"""Solve outcome census: the 288 ops of the solve-sweep benchmark plan
(`bench/workloads.py`, seed 1), each loaded from its op's INI, solved
in-process as `solve` solves it and compared with the table
`sweep_census.json`.

An op is one of 6 entropies x {monomial, piecewise_flat split at 0.5} x
n in {2, 4, 6, 8, 12, 16} x {pulse split at 0.5, constant 0.5} x {320, 1280}
nodes, on [0, 1] with 20-node panels, tol 1e-10 and a budget of 100 Newton
iterations.  Its row, keyed by the op's label, holds the outcome class and
the iteration count, both exactly:

* "audited": converged, and |duality gap| <= GAP_TOL;
* "gap audit": converged, and |duality gap| > GAP_TOL;
* "not converged: <reason>": the solver's message without its residual,
  also where the solution cannot be tabulated, as `solve` reports it;
* otherwise the class name of the exception the run raised, with the
  iterations of the solve if it finished (Burg's field can leave the
  conjugate domain between nodes, which only tabulating the solution sees).

A change that moves an outcome updates the table (`python
tests/test_sweep_census.py` rewrites it) and says which rows moved.  The
README's "Sweep outcomes" bullet states the table's class counts.  The
configs are the plan's ops, read from the benchmark, and GAP_TOL is checked
against the benchmark's, so the two cannot drift apart.
"""

import json
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cli_digests import load_bench
from entromin.config import build_problem, load_config
from entromin.dual import solve_dual
from entromin.errors import DomainViolationError
from entromin.primal import reconstruct, sample_solution

TABLE = Path(__file__).with_name("sweep_census.json")
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
GAP_TOL = 1e-8  # the gap audit of the solve-sweep benchmark (GAP_TOL in bench/worker.py)
WORKLOADS = load_bench("workloads")   # stdlib only
CONFIGS = {WORKLOADS.label(op): op for op in WORKLOADS.plan("solve-sweep", 1)["ops"]}


def _run_configs(directory):
    """(label, RunConfig) of each op, as `load_config` reads its INI from `directory`."""
    path = Path(directory, "op.ini")
    for label, op in CONFIGS.items():
        path.write_text(WORKLOADS.to_ini(op))
        yield label, load_config(path)


def _row(cfg) -> dict:
    """One solve of `cfg`, reduced to its census row."""
    solution, primal = None, None
    try:
        instance = build_problem(cfg, cfg.basis)[0]
        solution = solve_dual(instance, phi0=cfg.phi0, tol=cfg.tol, max_iter=cfg.max_iter)
        primal = reconstruct(instance, solution.multipliers)
        sample_solution(primal, np.linspace(*cfg.interval, cfg.sample_points))
    except Exception as exc:  # a failure is an outcome, recorded as it is
        tabulating = primal is not None and isinstance(exc, DomainViolationError)
        if not tabulating or solution.converged:  # `solve` reports the others not converged
            return {"outcome": type(exc).__name__,
                    "iterations": None if solution is None else solution.iterations}
    if not solution.converged:
        outcome = "not converged: " + re.sub(r" (with|at) residual .*", "", solution.message)
    else:
        outcome = "audited" if abs(primal.duality_gap) <= GAP_TOL else "gap audit"
    return {"outcome": outcome, "iterations": solution.iterations}


def test_gap_tol_is_the_benchmarks():
    """GAP_TOL is the gap audit `bench/worker.py` assigns, read as text:
    importing the worker imports scipy."""
    text = (ROOT / "bench" / "worker.py").read_text()
    assert [float(v) for v in re.findall(r"^GAP_TOL = ([^\s#]+)", text, re.MULTILINE)] == [GAP_TOL]


def test_table_covers_the_configs():
    """The table keeps a row for every config, failures included, and no other."""
    assert sorted(json.loads(TABLE.read_text())) == sorted(CONFIGS)


@pytest.mark.kernel_pinned
def test_solve_outcomes_match_the_table(tmp_path):
    table = json.loads(TABLE.read_text())
    moved = {}
    for label, cfg in _run_configs(tmp_path):
        row = _row(cfg)
        if row != table[label]:
            moved[label] = {"table": table[label], "now": row}
    assert not moved, json.dumps(moved, indent=1)


def test_readme_states_the_census_counts():
    """The four counts of the README's "Sweep outcomes" bullet are the
    table's, one per outcome class, and cover all 288 configs."""
    bullet = README.read_text().split("* **Sweep outcomes.**")[1].split("\n* ")[0]
    bullet = " ".join(bullet.split())
    stated = {outcome: int(re.search(rf"(\d+) {phrase}", bullet).group(1))
              for outcome, phrase in (("audited", "converge and pass"),
                                      ("gap audit", "converge with a larger gap"),
                                      ("not converged", "stop unconverged"),
                                      ("DomainViolationError", "Burg solves exit 1"))}
    counts = Counter(row["outcome"].split(":")[0] for row in json.loads(TABLE.read_text()).values())
    assert stated == counts and sum(counts.values()) == len(CONFIGS)


@pytest.mark.kernel_pinned
def test_reconstruction_residual_is_the_solver_residual(tmp_path):
    """reconstruct reads the solver's oracle: at the multipliers solve_dual
    returns, its moment residual is the solver's residual, bit for bit."""
    converged = 0
    for label, cfg in _run_configs(tmp_path):
        instance = build_problem(cfg, cfg.basis)[0]
        solution = solve_dual(instance, tol=cfg.tol, max_iter=cfg.max_iter)
        if solution.converged:
            converged += 1
            primal = reconstruct(instance, solution.multipliers)
            assert primal.moment_residual_inf == solution.residual_inf, label
    assert converged == 277  # the 270 audited and gap-audit rows, and the 7 Burg rows


if __name__ == "__main__":  # rewrite the table from the current code, warnings as errors as in tier-1
    import tempfile

    warnings.simplefilter("error")
    with tempfile.TemporaryDirectory() as directory:
        rows = {label: _row(cfg) for label, cfg in _run_configs(directory)}
    TABLE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
