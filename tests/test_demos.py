"""Every demo runs to completion.

A demo writes its CSVs next to the script, so each runs from a copy in a
temporary directory, in a subprocess that imports this checkout's package.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import entromin

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    script = Path(shutil.copy(DEMOS / demo, tmp_path))
    src = str(Path(entromin.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, script.name], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
