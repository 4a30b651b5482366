"""Byte-identity harness: a SHA-256 digest line for every CLI run of the benchmark plans.

Run it from the repository root against the source tree to be checked:

    PYTHONPATH=src python tests/cli_digests.py > digests.txt

and `diff` the output of two source trees: equal output means equal exit
codes, stdout, stderr and artifacts on every run.  It calls `cli.main`
in-process, in a temporary directory, over 458 runs:

- the 288 `solve-sweep` configs as `solve`;
- the 144 of them at 320 nodes as `compare` (labelled by the sweep config
  they come from);
- the `certify-core` and `certify-qri` plan configs at seeds 1 and 7, core
  with `--seed` as `bench/run.py` passes it.

Each line holds the arguments, the config label, the exit code, and the
SHA-256 of stdout, of stderr and of each artifact; the lines are sorted.
pytest does not collect this module; `tests/test_cli.py` runs two of its
runs twice.

It is also the tests' one loader of a `bench/` module (`load_bench`, which
the `bench_module` fixture returns) and their one in-process runner of a CLI
config (`run_cli`, which the census and property suites call): the census
tests read their configs from the plans of `bench/workloads.py`.
"""

import contextlib
import hashlib
import importlib.util
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7)


def load_bench(name):
    """`bench/<name>.py`, loaded from its file: `bench/` is no package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(args, ini_text, directory):
    """Run `cli.main` on `args` with the config `ini_text`, written to
    `directory`/run.ini, and `--out` `directory`/out.  Returns the exit code,
    stdout, stderr and {artifact name: bytes}; the out directory is removed,
    so `directory` takes the next run."""
    from entromin import cli

    ini, out = Path(directory, "run.ini"), Path(directory, "out")
    ini.write_text(ini_text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*args, "--config", str(ini), "--out", str(out)])
    artifacts = {}
    if out.is_dir():
        artifacts = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
    return code, stdout.getvalue(), stderr.getvalue(), artifacts


def runs(workloads) -> list:
    """(subcommand args, config, label) of every run."""
    sweep = workloads.plan("solve-sweep", SEEDS[0])["ops"]
    plan = [(("solve",), c, workloads.label(c)) for c in sweep]
    plan += [(("compare",), dict(c, compare=True), workloads.label(c))
             for c in sweep if c["nodes"] == 320]
    for seed in SEEDS:
        plan += [(("certify", "--type", "core", "--seed", str(c["trial_seed"])), c,
                  workloads.label(c)) for c in workloads.plan("certify-core", seed)["ops"]]
        plan += [(("certify", "--type", "qri"), c, workloads.label(c))
                 for c in workloads.plan("certify-qri", seed)["ops"]]
    return plan


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(workloads, args, cfg, label, tmp) -> str:
    """Run one config in the directory `tmp` and return its line."""
    code, stdout, stderr, artifacts = run_cli(args, workloads.to_ini(cfg), tmp)
    fields = [" ".join(args), label, f"exit={code}"]
    fields += [f"{name}={_sha256(text.replace(tmp, '<tmp>').encode())}"
               for name, text in (("stdout", stdout), ("stderr", stderr))]
    fields += [f"{name}={_sha256(data)}" for name, data in artifacts.items()]
    return " ".join(fields)


def digests(plan) -> list:
    """The sorted lines of the runs in `plan` (see `runs`)."""
    workloads = load_bench("workloads")
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
        return sorted(digest(workloads, *run, tmp) for run in plan)


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in digests(runs(load_bench("workloads")))))
