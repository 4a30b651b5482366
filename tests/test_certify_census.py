"""Certify outcome census: the 8 core and 5 qri ops of the certify-core and
certify-qri benchmark plans (`bench/workloads.py`, seed 1), each run through
the CLI in-process on its op's INI and compared with the table
`certify_census.json`.

A row holds the exit code, the hypothesis stderr names, the margin ends and
range, and `m`, all exactly, and `delta`, `t_unit`, `eps` and
`trials_passed` to 1e-9 relative, which BLAS builds do not move.  A change
that moves an outcome updates the table (`python tests/test_certify_census.py`
rewrites it) and says which rows moved.  The configs are the plans' ops, read
from the benchmark, so the two cannot drift apart.
"""

import json
import re
from pathlib import Path

import pytest

from cli_digests import load_bench, run_cli

TABLE = Path(__file__).with_name("certify_census.json")
WORKLOADS = load_bench("workloads")   # stdlib only
# {"<type>/<op label but its entropy>": (type, op)}: translated Boltzmann-Shannon
# on [0, 1] with 20-node panels, 320 or 1280 nodes in all, and m_max = 4000,
# each under its plan's trial seed
CONFIGS = {f"{kind}/{WORKLOADS.label(op).split('/', 1)[1]}": (kind, op)
           for kind in ("core", "qri") for op in WORKLOADS.plan(f"certify-{kind}", 1)["ops"]}
EXACT = ("exit", "hypothesis", "zeta1", "zeta2", "eps1", "eps2", "m")
CLOSE = ("delta", "t_unit", "eps", "trials_passed")


def _row(label, directory) -> dict:
    """One CLI run of the config `label` in `directory`, reduced to its census row."""
    kind, op = CONFIGS[label]
    code, _, stderr, artifacts = run_cli(("certify", "--type", kind), WORKLOADS.to_ini(op),
                                         directory)
    named = re.search(r"failed hypothesis \[(.*?)\]", stderr)
    fields = json.loads(artifacts.get("certificate.json", b"{}"))
    return {"exit": code, "hypothesis": named and named.group(1),
            **{key: fields.get(key) for key in EXACT[2:] + CLOSE}}


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
    assert sorted(json.loads(TABLE.read_text())) == sorted(CONFIGS)


@pytest.mark.parametrize("label", CONFIGS)
def test_certify_outcome_matches_the_table(tmp_path, label):
    expected = json.loads(TABLE.read_text())[label]
    row = _row(label, tmp_path)
    assert {key: row[key] for key in EXACT} == {key: expected[key] for key in EXACT}
    for key in CLOSE:
        assert row[key] == (None if expected[key] is None
                            else pytest.approx(expected[key], rel=1e-9, abs=0.0)), key


@pytest.mark.parametrize("label", CONFIGS)
def test_phi_evaluated_once_per_point_set(tmp_path, monkeypatch, label):
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
    accepted = _row(label, tmp_path)["exit"] == 0
    assert calls == (["phi", "verify"] if label.startswith("core/") else ["phi"])
    assert accepted == (label != "qri/piecewise_flat/n=6/pulse/320")


@pytest.mark.parametrize("label", CONFIGS)
def test_builders_never_call_the_evaluator(tmp_path, monkeypatch, label):
    """Every y_k or correction value a build reads is its coefficients times
    the phi_j on the margin grid, so neither builder, nor verification,
    calls the `DirectionFunctions`."""
    from entromin.certificates import DirectionFunctions

    calls, call = [], DirectionFunctions.__call__
    monkeypatch.setattr(DirectionFunctions, "__call__",
                        lambda *args, **kwargs: calls.append(args) or call(*args, **kwargs))
    _row(label, tmp_path)
    assert calls == []


if __name__ == "__main__":  # rewrite the table from the current code
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        rows = {label: _row(label, directory) for label in CONFIGS}
    TABLE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
