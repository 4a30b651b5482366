"""Certify outcome census: the 8 core and 5 qri configs of the certify
benchmarks, each run through the CLI in-process and compared with the table
`certify_census.json`.

A row holds the exit code, the hypothesis stderr names, the margin ends and
range, and `m`, all exactly, and `delta`, `t_unit`, `eps` and
`trials_passed` to 1e-9 relative, which BLAS builds do not move.  A change
that moves an outcome updates the table (`python tests/test_certify_census.py`
rewrites it) and says which rows moved.  The configs are checked against the
benchmark plans, so the two cannot drift apart.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from entromin.cli import main
from entromin.config import load_config

TABLE = Path(__file__).with_name("certify_census.json")

# (type, basis kind, n, density, panels per segment, band or None for the
# entropy domain, trial seed): translated Boltzmann-Shannon on [0, 1] with
# 20-node panels, 320 or 1280 nodes in all, and m_max = 4000: the ops of the
# certify-core and certify-qri plans at seed 1
CONFIGS = [
    ("core", "piecewise_flat", 6, "pulse", 8, None, 50368367),
    ("core", "piecewise_flat", 4, "pulse", 8, None, 998410498),
    ("core", "piecewise_flat", 4, "pulse", 32, None, 1276641131),
    ("core", "monomial", 4, "pulse", 8, None, 905398695),
    ("core", "monomial", 4, "pulse", 32, None, 1200494174),
    ("core", "monomial", 6, "pulse", 8, None, 1654757784),
    ("core", "monomial", 6, "pulse", 32, None, 771638049),
    ("core", "monomial", 4, "constant", 16, (0.0, 1.0), 1970581548),
    ("qri", "piecewise_flat", 6, "pulse", 8, None, 0),
    ("qri", "piecewise_flat", 4, "pulse", 8, None, 0),
    ("qri", "monomial", 4, "pulse", 8, None, 0),
    ("qri", "monomial", 5, "pulse", 8, None, 0),
    ("qri", "monomial", 3, "constant", 16, None, 0),
]
EXACT = ("exit", "hypothesis", "zeta1", "zeta2", "eps1", "eps2", "m")
CLOSE = ("delta", "t_unit", "eps", "trials_passed")


def _label(config) -> str:
    kind, basis, n, rho, panels, band, _ = config
    nodes = 20 * panels * (2 if rho == "pulse" or basis == "piecewise_flat" else 1)
    label = f"{kind}/{basis}/n={n}/{rho}/{nodes}"
    return label + (f"/band={band[0]:g},{band[1]:g}" if band else "")


def _ini(config) -> str:
    _, basis, n, rho, panels, band, seed = config
    text = ("[problem]\nentropy = translated_boltzmann_shannon\ninterval = 0 1\n"
            f"[basis]\nkind = {basis}\nn = {n}\n"
            + ("split = 0.5\n" if basis == "piecewise_flat" else "")
            + f"[rho]\nkind = {rho}\nsplit = 0.5\nc = 0.5\n[quad]\norder = 20\npanels = {panels}\n"
            f"[certify]\ntrials = 100\nseed = {seed}\nm_max = 4000\n")
    return text + (f"alpha = {band[0]!r}\nbeta = {band[1]!r}\n" if band else "")


def _row(config, directory: Path) -> dict:
    """One CLI run of `config` in `directory`, reduced to its census row."""
    path, out = directory / "run.ini", directory / "out"
    path.write_text(_ini(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["certify", "--type", config[0], "--config", str(path), "--out", str(out)])
    named = re.search(r"failed hypothesis \[(.*?)\]", err.getvalue())
    row = {"exit": code, "hypothesis": named and named.group(1)}
    certificate = out / "certificate.json"
    fields = json.loads(certificate.read_text()) if certificate.exists() else {}
    return {**row, **{key: fields.get(key) for key in EXACT[2:] + CLOSE}}


def test_configs_are_the_benchmark_plans(tmp_path, bench_module):
    """The census runs the 8 ops of the certify-core plan and the 5 of the
    certify-qri plan, each under its plan's type and trial seed, and each
    census INI loads to the RunConfig its op's INI loads to."""
    workloads = bench_module("workloads")   # stdlib only
    ops = {(kind, workloads.label(op).split("/", 1)[1], op["trial_seed"]): op
           for kind in ("core", "qri") for op in workloads.plan(f"certify-{kind}", 1)["ops"]}
    census = {(config[0], _label(config).split("/", 1)[1], config[6]): config
              for config in CONFIGS}
    assert sorted(census) == sorted(ops) and len(ops) == len(CONFIGS)
    for key, config in census.items():
        (tmp_path / "census.ini").write_text(_ini(config))
        (tmp_path / "op.ini").write_text(workloads.to_ini(ops[key]))
        assert load_config(str(tmp_path / "census.ini")) == load_config(str(tmp_path / "op.ini"))


def test_qri_residual_gate_is_the_builders():
    """The moment-match gate `bench/worker.py` applies to a qri witness,
    read as text (importing the worker imports scipy), is the P2_TOL that
    `build_qri_certificate` holds an accepted witness to."""
    from entromin.certificates import P2_TOL

    text = (Path(__file__).resolve().parents[1] / "bench" / "worker.py").read_text()
    found = re.findall(r"^QRI_RESIDUAL_TOL = ([^\s#]+)", text, re.MULTILINE)
    assert [float(v) for v in found] == [P2_TOL]


def test_table_covers_the_configs():
    """The table keeps a row for every config, failures included, and no other."""
    assert sorted(json.loads(TABLE.read_text())) == sorted(map(_label, CONFIGS))


@pytest.mark.parametrize("config", CONFIGS, ids=[_label(c) for c in CONFIGS])
def test_certify_outcome_matches_the_table(tmp_path, config):
    expected = json.loads(TABLE.read_text())[_label(config)]
    row = _row(config, tmp_path)
    assert {key: row[key] for key in EXACT} == {key: expected[key] for key in EXACT}
    for key in CLOSE:
        assert row[key] == (None if expected[key] is None
                            else pytest.approx(expected[key], rel=1e-9, abs=0.0)), key


@pytest.mark.parametrize("config", CONFIGS, ids=[_label(c) for c in CONFIGS])
def test_phi_evaluated_once_per_point_set(tmp_path, monkeypatch, config):
    """The phi_j the y_k expand over are evaluated once, on the margin grid,
    per build (every core config here takes the Legendre path), accepted qri
    witness or not (the README config's qri run accepts no level at m_max =
    4000), and never in verification."""
    from entromin import certificates, cli

    calls, verify = [], cli.verify_core_certificate
    monkeypatch.setattr(certificates, "_phi", lambda *args, _f=certificates._phi:
                        calls.append("phi") or _f(*args))
    monkeypatch.setattr(cli, "verify_core_certificate",
                        lambda *args, **kwargs: calls.append("verify") or verify(*args, **kwargs))
    accepted = _row(config, tmp_path)["exit"] == 0
    assert calls == (["phi", "verify"] if config[0] == "core" else ["phi"])
    assert accepted == (_label(config) != "qri/piecewise_flat/n=6/pulse/320")


@pytest.mark.parametrize("config", CONFIGS, ids=[_label(c) for c in CONFIGS])
def test_builders_never_call_the_evaluator(tmp_path, monkeypatch, config):
    """Every y_k or correction value a build reads is its coefficients times
    the phi_j on the margin grid, so neither builder, nor verification,
    calls the `DirectionFunctions`."""
    from entromin.certificates import DirectionFunctions

    calls, call = [], DirectionFunctions.__call__
    monkeypatch.setattr(DirectionFunctions, "__call__",
                        lambda *args, **kwargs: calls.append(args) or call(*args, **kwargs))
    _row(config, tmp_path)
    assert calls == []


if __name__ == "__main__":  # rewrite the table from the current code
    import tempfile

    rows = {}
    for config in CONFIGS:
        with tempfile.TemporaryDirectory() as directory:
            rows[_label(config)] = _row(config, Path(directory))
    TABLE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
