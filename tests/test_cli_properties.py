"""Properties of `cli.main` over its config space: every run of `solve`,
`compare` and both certify types, on any of the six entropies, either
built-in family, the pulse or the constant, any quadrature and any band,
ends in an exit code the README names, with no stray exception, no warning
and no NaN in an artifact but the one it documents.

Hypothesis draws the configs under the derandomized profile of
`tests/conftest.py`, so every run draws the same ones.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from entromin.cli import main

ENTROPIES = ["l2_norm", "boltzmann_shannon", "translated_boltzmann_shannon", "burg", "cosh",
             "fermi_dirac"]
KINDS = ["monomial", "piecewise_flat"]
COMMANDS = ["solve", "compare", "core", "qri"]
HYPOTHESES = ("admissible band", "margin interval", "linear independence",
              "witness acceptance", "moment match")


def _basis(section, kind, n):
    return f"[{section}]\nkind = {kind}\nn = {n}\n" + ("split = 0.5\n" if kind != "monomial" else "")


@st.composite
def runs(draw):
    """(command, INI text without [output]) of one random run."""
    command, n = draw(st.sampled_from(COMMANDS)), draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    kinds = draw(st.permutations(KINDS))
    text = (f"[problem]\nentropy = {draw(st.sampled_from(ENTROPIES))}\ninterval = 0 1\n"
            + (_basis("basis_a", kinds[0], n) + _basis("basis_b", kinds[1], n)
               if command == "compare" else _basis("basis", kinds[0], n))
            + f"[rho]\nkind = {draw(st.sampled_from(['pulse', 'constant']))}\n"
            f"split = 0.5\nc = 0.5\n[quad]\norder = {draw(st.sampled_from([4, 8, 20]))}\n"
            f"panels = {draw(st.sampled_from([1, 2, 8]))}\n")
    if command in ("core", "qri"):
        band = {}
        if draw(st.booleans()):
            band["alpha"] = draw(st.floats(-1.0, 0.5))
        if draw(st.booleans()):
            band["beta"] = draw(st.one_of(st.just(math.inf),
                                          st.floats(0.05, 3.0).map(
                                              lambda w: band.get("alpha", 0.0) + w)))
        text += "[certify]\n" + "".join(f"{key} = {value!r}\n" for key, value in band.items())
    return command, text


def _non_finite(obj, key=None):
    """(key, text) of each non-finite number a JSON artifact holds: the CLI
    writes them as the strings "nan", "inf" and "-inf"."""
    if isinstance(obj, dict):
        for name, value in obj.items():
            yield from _non_finite(value, name)
    elif isinstance(obj, list):
        for value in obj:
            yield from _non_finite(value, key)
    elif isinstance(obj, str) and obj in ("nan", "inf", "-inf"):
        yield key, obj


@settings(max_examples=300, deadline=None)
@given(runs())
def test_every_run_ends_in_a_named_outcome(run):
    """Each run exits 0-3 without raising or warning.  No artifact holds a
    NaN, but compare's overshoot of a basis whose solve did not converge,
    and no infinity, but qri's `upper_clearance` under a band unbounded
    above.  A certify exit 3 names a hypothesis or a failed verification."""
    command, text = run
    argv = (["certify", "--type", command] if command in ("core", "qri") else [command])
    with tempfile.TemporaryDirectory() as directory:
        path, out = Path(directory) / "run.ini", Path(directory) / "out"
        path.write_text(text)
        err = io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(argv + ["--config", str(path), "--out", str(out)])
        artifacts = {p.name: p.read_text() for p in out.glob("*")} if out.exists() else {}
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), (text, stderr)
    assert "Traceback" not in stderr
    for name, content in artifacts.items():
        if name.endswith(".csv"):
            assert "nan" not in content and "inf" not in content, (text, name)   # as %.17g writes them
            continue
        payload = json.loads(content)
        for key, value in _non_finite(payload):
            assert (key, value) in {("upper_clearance", "inf"), ("overshoot", "nan"),
                                    ("overshoot_a", "nan"), ("overshoot_b", "nan")}, (text, key)
        if name == "comparison.json":
            for label in "ab":
                measured = payload[f"basis_{label}"]["overshoot"] != "nan"
                assert measured or not payload[f"basis_{label}"]["converged"], text
                assert payload[f"overshoot_{label}"] == payload[f"basis_{label}"]["overshoot"]
    if code == 3:
        assert command in ("core", "qri"), text
        named = re.search(r"failed hypothesis \[(.*?)\]", stderr)
        assert (named and named.group(1) in HYPOTHESES) or (
            command == "core" and "verification failed" in stderr), (text, stderr)
