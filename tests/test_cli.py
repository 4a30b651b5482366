"""Command-line pipelines: artifacts, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entromin
from entromin.cli import main
from entromin.config import load_config

SOLVE_INI = """
[problem]
entropy = {entropy}
interval = 0 1

[basis]
kind = {kind}
n = {n}
{extra_basis}

[rho]
kind = {rho_kind}
split = 0.5
c = 0.5

[solver]
tol = 1e-10
max_iter = {max_iter}

[output]
dir = {out}
sample_points = 101
"""


def write_config(tmp_path, name="run.ini", **kw):
    defaults = dict(entropy="translated_boltzmann_shannon", kind="monomial", n=4,
                    extra_basis="", rho_kind="pulse", max_iter=100,
                    out=str(tmp_path / "out"))
    defaults.update(kw)
    path = tmp_path / name
    path.write_text(SOLVE_INI.format(**defaults))
    return path


class TestSolve:
    def test_converged_run_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--trace"]) == 0
        out = tmp_path / "out"
        assert (out / "solution.csv").exists()
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert abs(summary["duality_gap"]) <= 1e-8
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header == "s,x"

    def test_single_moment_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, entropy="l2_norm", n=1, rho_kind="constant")
        assert main(["solve", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mu"] == [0.5]

    def test_exhausted_budget_exits_2_with_summary(self, tmp_path):
        cfg = write_config(tmp_path, max_iter=0)
        assert main(["solve", "--config", str(cfg)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is False

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_unknown_entropy_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, entropy="entropy_of_the_gaps")
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_missing_basis_section_exits_1(self, tmp_path):
        path = tmp_path / "nobasis.ini"
        path.write_text("[problem]\nentropy = l2_norm\n")
        assert main(["solve", "--config", str(path)]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_1(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("tol = 1e-10", f"tol = {tol}"))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_sample_points_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("sample_points = 101", "sample_points = -1"))
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "output.sample_points must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_field_leaving_domain_between_nodes_exits_1_without_output(self, tmp_path, capsys):
        # the solve converges, but Burg's dual field turns positive between
        # quadrature nodes, where the solution cannot be tabulated
        cfg = write_config(tmp_path, entropy="burg", kind="piecewise_flat", n=6,
                           extra_basis="split = 0.5")
        assert main(["solve", "--config", str(cfg), "--trace"]) == 1
        assert "f_star_d1 of burg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_quad_overrides_accepted(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg),
                     "--quad-order", "12", "--quad-panels", "4"]) == 0


CERT_INI = """
[problem]
entropy = {entropy}

[basis]
kind = {kind}
n = {n}
{extra_basis}

[rho]
kind = {rho_kind}
split = 0.5
c = {c}

[certify]
{certify}

[output]
dir = {out}
"""


def write_cert_config(tmp_path, **kw):
    defaults = dict(entropy="translated_boltzmann_shannon", kind="piecewise_flat",
                    n=4, extra_basis="split = 0.5", rho_kind="pulse", c="0.5",
                    certify="trials = 100\nseed = 0", out=str(tmp_path / "out"))
    defaults.update(kw)
    path = tmp_path / "cert.ini"
    path.write_text(CERT_INI.format(**defaults))
    return path


class TestCertify:
    def test_core_pulse_piecewise(self, tmp_path):
        cfg = write_cert_config(tmp_path)
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["type"] == "core"
        assert 0.0 <= payload["zeta1"] < payload["zeta2"] <= 0.5
        assert payload["trials_passed"] == 100
        assert payload["residuals"]["p2_worst"] <= 1e-8

    def test_core_boundary_density_exits_3(self, tmp_path):
        cfg = write_cert_config(tmp_path, rho_kind="constant", c="0.0")
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 3

    def test_failed_verification_exits_3_with_certificate(self, tmp_path, capsys):
        """A kinked density tabulated without its breakpoints, on a coarse
        rule: the certificate builds, but P2 misses b + t*eta in every trial,
        and the certificate is still written as the evidence."""
        s = np.linspace(0.0, 1.0, 11)
        np.savetxt(tmp_path / "rho.txt", np.column_stack([s, 0.5 + 0.4 * np.abs(np.sin(7 * s))]))
        cfg = write_cert_config(tmp_path, kind="monomial", extra_basis="", rho_kind="tabulated",
                                certify="trials = 20\n[quad]\norder = 4\npanels = 2")
        cfg.write_text(cfg.read_text().replace("kind = tabulated",
                                               f"kind = tabulated\nfile = {tmp_path / 'rho.txt'}"))
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 3
        assert capsys.readouterr().err == "certify: verification failed (20/20 P1, 0/20 P2)\n"
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert sorted(payload) == ["delta", "eps1", "eps2", "m", "residuals", "t_unit",
                                   "trials", "trials_passed", "type", "zeta1", "zeta2"]
        assert (payload["type"], payload["m"], payload["trials"]) == ("core", None, 20)
        assert payload["trials_passed"] == 0
        assert payload["residuals"] == {"p1_worst_violation": 0,
                                        "p2_worst": pytest.approx(2.3e-05, rel=0.01)}

    def test_qri_pulse_monomials_unit_band(self, tmp_path):
        cfg = write_cert_config(tmp_path, entropy="boltzmann_shannon",
                                kind="monomial", n=3, extra_basis="",
                                certify="alpha = 0\nbeta = 1")
        assert main(["certify", "--config", str(cfg), "--type", "qri"]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["type"] == "qri"
        assert payload["eps"] > 0
        assert payload["residuals"]["moment_match"] <= 1e-8
        assert payload["m"] >= 3

    @pytest.mark.parametrize("trials", [0, -3])
    def test_core_without_trials_exits_1(self, tmp_path, trials):
        cfg = write_cert_config(tmp_path, certify=f"trials = {trials}\nseed = 0")
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 1
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_qri_below_first_clip_level_exits_1(self, tmp_path):
        cfg = write_cert_config(tmp_path, entropy="boltzmann_shannon",
                                kind="monomial", n=3, extra_basis="",
                                certify="alpha = 0\nbeta = 1\nm_max = 2")
        assert main(["certify", "--config", str(cfg), "--type", "qri"]) == 1
        assert not (tmp_path / "out" / "certificate.json").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cert_config(tmp_path)
        assert main(["certify", "--config", str(cfg), "--type", "core",
                     "--seed", "12345"]) == 0

    @pytest.mark.parametrize("cert_type", ["core", "qri"])
    @pytest.mark.parametrize("min_width", ["nan", "inf"])
    def test_non_finite_min_width_exits_1(self, tmp_path, capsys, min_width, cert_type):
        cfg = write_cert_config(tmp_path, certify=f"alpha = 0\nmin_width = {min_width}")
        assert main(["certify", "--config", str(cfg), "--type", cert_type]) == 1
        assert "min_width must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "certificate.json").exists()

    @pytest.mark.parametrize("seed,flag", [("-1", []), ("0", ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, seed, flag):
        cfg = write_cert_config(tmp_path, certify=f"trials = 100\nseed = {seed}")
        assert main(["certify", "--config", str(cfg), "--type", "core", *flag]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "certificate.json").exists()

    @pytest.mark.parametrize("cert_type,certify,flag", [
        ("core", "seed = 0", ["--seed", "-1"]),
        ("core", "alpha = 0\nmin_width = nan", []),
        ("qri", "alpha = 0\nmin_width = nan", []),
    ], ids=["core-seed-flag", "core-min-width", "qri-min-width"])
    def test_config_error_leaves_no_output_directory(self, tmp_path, cert_type, certify, flag):
        cfg = write_cert_config(tmp_path, certify=certify)
        out = tmp_path / "E" / cert_type
        assert main(["certify", "--config", str(cfg), "--type", cert_type,
                     "--out", str(out), *flag]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("cert_type", ["core", "qri"])
    def test_burg_default_band_names_alpha(self, tmp_path, capsys, cert_type):
        """Burg's domain (0, inf) leaves 0 open, so the default band [0, inf]
        is outside it, and the error names the key that sets the lower end."""
        cfg = write_cert_config(tmp_path, entropy="burg")
        out = tmp_path / "E" / cert_type
        assert main(["certify", "--config", str(cfg), "--type", cert_type,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "certify: band [0.0, inf] is not contained in the domain (0.0, inf) of burg, "
            "which leaves its end 0.0 open; set certify.alpha explicitly\n")
        assert not out.exists()

    @pytest.mark.parametrize("cert_type", ["core", "qri"])
    @pytest.mark.parametrize("band", ["alpha = -1\nbeta = 2", "alpha = 2\nbeta = 1"],
                             ids=["outside-domain", "empty"])
    def test_band_outside_entropy_domain_exits_1(self, tmp_path, capsys, cert_type, band):
        cfg = write_cert_config(tmp_path, entropy="boltzmann_shannon", n=6, certify=band)
        out = tmp_path / "E" / cert_type
        assert main(["certify", "--config", str(cfg), "--type", cert_type,
                     "--out", str(out)]) == 1
        assert "is not contained in the domain" in capsys.readouterr().err
        assert not out.exists()


COMPARE_INI = """
[problem]
entropy = translated_boltzmann_shannon

[basis_a]
kind = {kind_a}
n = {n}
{extra_a}

[basis_b]
kind = {kind_b}
n = {n}
{extra_b}

[rho]
kind = pulse
split = 0.5

[compare]
window = 0.4 0.6

[output]
dir = {out}
sample_points = 201
"""


def write_compare_config(tmp_path, out, name="cmp.ini", **kw):
    defaults = dict(kind_a="monomial", extra_a="", kind_b="piecewise_flat",
                    extra_b="split = 0.5", n=6)
    defaults.update(kw)
    path = tmp_path / name
    path.write_text(COMPARE_INI.format(out=out, **defaults))
    return path


class TestCompare:
    def test_piecewise_tames_overshoot(self, tmp_path):
        cfg = write_compare_config(tmp_path, out=str(tmp_path / "out"))
        assert main(["compare", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert payload["overshoot_b"] < payload["overshoot_a"]
        assert payload["basis_a"]["converged"] and payload["basis_b"]["converged"]
        assert (tmp_path / "out" / "solution_a.csv").exists()
        assert (tmp_path / "out" / "solution_b.csv").exists()

    def test_identical_bases_identical_outputs(self, tmp_path):
        cfg = write_compare_config(tmp_path, kind_b="monomial", extra_b="", n=4,
                                   out=str(tmp_path / "out"))
        assert main(["compare", "--config", str(cfg)]) == 0
        a = (tmp_path / "out" / "solution_a.csv").read_bytes()
        b = (tmp_path / "out" / "solution_b.csv").read_bytes()
        assert a == b
        payload = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert payload["overshoot_a"] == payload["overshoot_b"]

    def test_single_constant_bases_give_flat_half(self, tmp_path):
        cfg = write_compare_config(tmp_path, n=1, out=str(tmp_path / "out"))
        assert main(["compare", "--config", str(cfg)]) == 0
        rows = np.loadtxt(tmp_path / "out" / "solution_a.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], 0.5, rtol=1e-12)

    def test_mismatched_sizes_exit_1(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(COMPARE_INI.format(kind_a="monomial", extra_a="",
                                           kind_b="piecewise_flat", extra_b="split = 0.5",
                                           n=3, out=str(tmp_path / "out"))
                        .replace("n = 3\nsplit = 0.5", "n = 4\nsplit = 0.5"))
        assert main(["compare", "--config", str(path)]) == 1

    def test_second_basis_leaving_domain_exits_1_without_output(self, tmp_path, capsys):
        # basis a solves and tabulates; basis b's Burg field turns positive
        # between quadrature nodes, so nothing of the run may be written
        cfg = write_compare_config(tmp_path, out=str(tmp_path / "out"))
        cfg.write_text(cfg.read_text().replace("translated_boltzmann_shannon", "burg"))
        assert main(["compare", "--config", str(cfg), "--trace"]) == 1
        assert "f_star_d1 of burg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = write_compare_config(tmp_path, name="c1.ini", out=str(tmp_path / "run1"))
        cfg2 = write_compare_config(tmp_path, name="c2.ini", out=str(tmp_path / "run2"))
        assert main(["compare", "--config", str(cfg1), "--seed", "42"]) == 0
        assert main(["compare", "--config", str(cfg2), "--seed", "42"]) == 0
        for name in ("solution_a.csv", "solution_b.csv", "comparison.json"):
            b1 = (tmp_path / "run1" / name).read_bytes()
            b2 = (tmp_path / "run2" / name).read_bytes()
            assert b1 == b2, name


class TestFileBackedInputs:
    def test_tabulated_basis_and_density(self, tmp_path):
        s = np.linspace(0.0, 1.0, 401)
        basis_file = tmp_path / "basis.txt"
        with open(basis_file, "w") as fh:
            fh.write("# breakpoints: 0.5\n")
            np.savetxt(fh, np.column_stack([s, np.ones_like(s),
                                            np.where(s <= 0.5, s, 1.0)]))
        rho_file = tmp_path / "rho.txt"
        np.savetxt(rho_file, np.column_stack([s, np.full_like(s, 0.5)]))
        ini = tmp_path / "tab.ini"
        ini.write_text(f"""
[problem]
entropy = translated_boltzmann_shannon

[basis]
kind = tabulated
n = 2
file = {basis_file}

[rho]
kind = tabulated
file = {rho_file}

[output]
dir = {tmp_path / 'out'}
""")
        assert main(["solve", "--config", str(ini)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is True
        assert abs(summary["duality_gap"]) <= 1e-8

    def test_non_finite_tabulated_density_exits_1(self, tmp_path):
        # a nan in the s column slips past the strictly-increasing check
        rho_file = tmp_path / "rho.txt"
        np.savetxt(rho_file, [[0.0, 0.5], [np.nan, 0.5], [1.0, 0.5]])
        ini = tmp_path / "tab.ini"
        ini.write_text(f"""
[problem]
entropy = translated_boltzmann_shannon

[basis]
kind = monomial
n = 2

[rho]
kind = tabulated
file = {rho_file}

[output]
dir = {tmp_path / 'out'}
""")
        assert main(["solve", "--config", str(ini)]) == 1
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_phi0_from_config_enables_burg(self, tmp_path):
        # Burg's conjugate domain excludes zero, so a per-config start matters
        ini = tmp_path / "burg.ini"
        ini.write_text(f"""
[problem]
entropy = burg

[basis]
kind = monomial
n = 1

[rho]
kind = constant
c = 0.5

[solver]
phi0 = -4

[output]
dir = {tmp_path / 'out'}
""")
        assert main(["solve", "--config", str(ini)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mu"][0] == pytest.approx(-2.0, abs=1e-9)


TBS = "[problem]\nentropy = translated_boltzmann_shannon\n"
MONOMIAL_2 = "[basis]\nkind = monomial\nn = 2\n"

# subcommand args, config text and the problem stderr names; {tmp} is the
# test's directory, where basis.txt holds two tabulated functions
CONFIG_ERRORS = {
    "piecewise-without-split": (["solve"], TBS + "[basis]\nkind = piecewise_flat\nn = 2\n",
                                "piecewise_flat basis requires a split point"),
    "tabulated-basis-without-file": (["solve"], TBS + "[basis]\nkind = tabulated\nn = 2\n",
                                     "tabulated basis requires a file"),
    "tabulated-basis-missing-file": (["solve"], TBS + "[basis]\nkind = tabulated\nn = 2\n"
                                     "file = {tmp}/none.txt\n", "basis file not found: "),
    "tabulated-basis-wrong-n": (["solve"], TBS + "[basis]\nkind = tabulated\nn = 3\n"
                                "file = {tmp}/basis.txt\n",
                                "provides 2 functions, config says n=3"),
    "unknown-basis-kind": (["solve"], TBS + "[basis]\nkind = hermite\nn = 2\n",
                           "unknown basis kind 'hermite'; expected monomial, "
                           "piecewise_flat or tabulated"),
    "tabulated-density-without-file": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = tabulated\n",
                                       "tabulated density requires a file"),
    "tabulated-density-missing-file": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = tabulated\n"
                                       "file = {tmp}/none.txt\n", "density file not found: "),
    "unknown-density-kind": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = gaussian\n",
                             "unknown density kind 'gaussian'; expected pulse, "
                             "constant or tabulated"),
    "l2-norm-without-alpha": (["certify", "--type", "core"],
                              "[problem]\nentropy = l2_norm\n" + MONOMIAL_2,
                              "certificates need a finite lower bound"),
    "basis-without-n": (["solve"], TBS + "[basis]\nkind = monomial\n",
                        "basis section requires 'kind' and 'n'"),
    "unparsable-file": (["solve"], "entropy without a section\n", "cannot parse "),
    "unknown-entropy": (["solve"], "[problem]\nentropy = gaps\n" + MONOMIAL_2,
                        "unknown entropy 'gaps'; available: boltzmann_shannon, burg"),
    "no-entropy": (["solve"], "[problem]\ninterval = 0 1\n" + MONOMIAL_2,
                   "section [problem] with 'entropy' is required"),
    "decreasing-interval": (["solve"], TBS + "interval = 1 0\n" + MONOMIAL_2,
                            "interval must be two increasing numbers, got [1.0, 0.0]"),
    "single-window": (["compare"], TBS + "[compare]\nwindow = 0.4\n",
                      "compare window must be two increasing numbers, got [0.4]"),
    "n-not-a-number": (["solve"], TBS + "[basis]\nkind = monomial\nn = six\n",
                       "invalid literal for int() with base 10: 'six'"),
    "certify-without-basis": (["certify", "--type", "qri"], TBS,
                              "certify: certify requires a [basis] section"),
    "compare-without-bases": (["compare"], TBS + MONOMIAL_2,
                              "compare: compare requires [basis_a] and [basis_b] sections"),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_exits_1_naming_it_without_output(tmp_path, capsys, case):
    """Every configuration error path: exit 1, its problem on stderr, and no
    output directory."""
    command, text, message = CONFIG_ERRORS[case]
    s = np.linspace(0.0, 1.0, 11)
    np.savetxt(tmp_path / "basis.txt", np.column_stack([s, np.ones_like(s), s]))
    path = tmp_path / "bad.ini"
    path.write_text(text.format(tmp=tmp_path))
    out = tmp_path / "E"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command[0]}: ") and message in err, err
    assert not out.exists()


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, n=2)
    src = str(Path(entromin.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "entromin.cli", "solve",
                           "--config", str(cfg)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "converged" in proc.stdout


def test_cli_imports_no_scipy():
    src = str(Path(entromin.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, entromin.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_config_schema_loads(tmp_path):
    """The README's "Config schema" block loads as it stands, inline comments included."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "schema.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    assert cfg.entropy == "translated_boltzmann_shannon"
    assert (cfg.basis.kind, cfg.basis.n, cfg.basis.split) == ("piecewise_flat", 6, 0.5)
    assert cfg.certify.m_max == 4000
    assert cfg.certify.seed == 0
    assert cfg.tol == 1e-10
