"""Command-line pipelines: artifacts, exit codes, and determinism."""

import argparse
import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import entromin
from entromin import cli
from entromin.cli import main
from entromin.config import CertifyOptions, load_config
from entromin.quadrature import build_rule

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
        assert main(["solve", "--config", str(cfg)]) == 0
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

    @pytest.mark.parametrize("kind", ["monomial", "piecewise_flat", "tabulated"])
    def test_zero_sample_points_writes_the_header_alone(self, tmp_path, kind):
        """`sample_points = 0` tabulates the solution on an empty grid, so
        solution.csv holds its header alone, whatever the basis kind."""
        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s, np.ones_like(s), s]))
        extra = {"monomial": "", "piecewise_flat": "split = 0.5",
                 "tabulated": f"file = {tmp_path / 'basis.txt'}"}[kind]
        cfg = write_config(tmp_path, kind=kind, n=2, extra_basis=extra)
        cfg.write_text(cfg.read_text().replace("sample_points = 101", "sample_points = 0"))
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "solution.csv").read_text() == "s,x\n"

    def test_field_leaving_domain_between_nodes_exits_1_without_output(self, tmp_path, capsys):
        # the solve converges, but Burg's dual field turns positive between
        # quadrature nodes, where the solution cannot be tabulated
        cfg = write_config(tmp_path, entropy="burg", kind="piecewise_flat", n=6,
                           extra_basis="split = 0.5")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "f_star_d1 of burg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_untabulable_solution_of_unconverged_solve_exits_2(self, tmp_path, capsys):
        """Burg monomial n=12 on the pulse, cut at 30 Newton iterations,
        spends its budget, and its field also turns positive between nodes:
        the run reports the spent budget, with summary.json and trace.csv,
        and writes no solution.csv."""
        cfg = write_config(tmp_path, entropy="burg", n=12, max_iter=30)
        cfg.write_text(cfg.read_text().replace("sample_points = 101", "sample_points = 1001"))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solve: not converged: iteration budget 30 exhausted")
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["summary.json", "trace.csv"]
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["converged"], summary["iterations"]) == (False, 30)

    def test_quad_set_in_config_builds_the_rule(self, tmp_path, monkeypatch):
        """`[quad]` is set in the run file alone: its order and panels build
        the rule the run solves on."""
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "\n[quad]\norder = 12\npanels = 4\n")
        rules, build_problem = [], cli.build_problem

        def build(run, spec):
            built = build_problem(run, spec)
            rules.append(built[0].rule)
            return built

        monkeypatch.setattr(cli, "build_problem", build)
        assert main(["solve", "--config", str(cfg)]) == 0
        expected = build_rule((0.0, 1.0), (0.5,), 12, 4)  # the pulse split is the breakpoint
        assert len(rules) == 1 and rules[0].nodes.size == 2 * 4 * 12
        assert np.array_equal(rules[0].nodes, expected.nodes)
        assert np.array_equal(rules[0].weights, expected.weights)


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
        because the density's moments on the margin rule miss the targets
        (a "target moments" failure), and the certificate is still written
        as the evidence."""
        s = np.linspace(0.0, 1.0, 11)
        np.savetxt(tmp_path / "rho.txt", np.column_stack([s, 0.5 + 0.4 * np.abs(np.sin(7 * s))]))
        cfg = write_cert_config(tmp_path, kind="monomial", extra_basis="", rho_kind="tabulated",
                                certify="trials = 20\n[quad]\norder = 4\npanels = 2")
        cfg.write_text(cfg.read_text().replace("kind = tabulated",
                                               f"kind = tabulated\nfile = {tmp_path / 'rho.txt'}"))
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 3
        assert capsys.readouterr().err == ("certify: verification failed (20/20 P1, 0/20 P2; "
                                           "failed: target moments)\n")
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert sorted(payload) == ["delta", "eps1", "eps2", "m", "residuals", "t_unit",
                                   "trials", "trials_passed", "type", "zeta1", "zeta2"]
        assert (payload["type"], payload["m"], payload["trials"]) == ("core", None, 20)
        assert payload["trials_passed"] == 0
        assert payload["residuals"] == {"p1_worst_violation": 0,
                                        "p2_worst": pytest.approx(2.3e-05, rel=0.01),
                                        "orthogonality": pytest.approx(0.0, abs=1e-12),
                                        "target": pytest.approx(2.3e-05, rel=0.01)}

    def test_corrupted_direction_functions_exit_3_by_name(self, tmp_path, capsys, monkeypatch):
        """y_1 + 1e-6 y_2 in place of y_1: every trial passes, but the
        orthogonality defect fails by name, and certificate.json carries it."""
        from entromin import certificates

        build = certificates.build_direction_functions

        def corrupted(*args):
            directions = build(*args)
            coeffs = directions.coeffs.copy()
            coeffs[0] += 1e-6 * coeffs[1]
            return dataclasses.replace(directions, coeffs=coeffs)

        monkeypatch.setattr(certificates, "build_direction_functions", corrupted)
        cfg = write_cert_config(tmp_path)
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 3
        assert capsys.readouterr().err == ("certify: verification failed (100/100 P1, "
                                           "100/100 P2; failed: direction functions)\n")
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["trials_passed"] == 100
        assert payload["residuals"]["orthogonality"] == pytest.approx(1e-6, rel=1e-6)
        assert payload["residuals"]["target"] <= 1e-14

    @pytest.mark.parametrize("basis,rho,quad,t_unit,target", [
        ("kind = monomial\nn = 3", "0.999999999999999", "", 9.1e-18, 1.2e-15),
        ("kind = tabulated\nn = 3\nfile = {tmp}/basis.txt", "0.9999999999",
         "[quad]\norder = 8\npanels = 48\n", 9.1e-13, 5.1e-9),
    ], ids=["monomial-default-quad", "tabulated-48-panels"])
    def test_core_radius_not_positive_exits_3(self, tmp_path, capsys, basis, rho, quad,
                                              t_unit, target):
        """Fermi-Dirac on a constant just below 1, band [0, 1]: every trial
        passes P1 and P2, but the target defect exceeds the step the
        certificate takes, so no neighbourhood of b is reached, and
        verification fails by name as "radius".  The certificate is written,
        with its keys unchanged."""
        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(3)]))
        ini = tmp_path / "run.ini"
        ini.write_text(f"[problem]\nentropy = fermi_dirac\n"
                       f"[basis]\n{basis.format(tmp=tmp_path)}\n"
                       f"[rho]\nkind = constant\nc = {rho}\n{quad}"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        assert main(["certify", "--config", str(ini), "--type", "core"]) == 3
        assert capsys.readouterr().err == ("certify: verification failed (100/100 P1, "
                                           "100/100 P2; failed: radius)\n")
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["t_unit"] == pytest.approx(t_unit, rel=0.01)
        assert payload["residuals"]["target"] == pytest.approx(target, rel=0.05)
        assert payload["trials_passed"] == 100
        assert sorted(payload) == ["delta", "eps1", "eps2", "m", "residuals", "t_unit",
                                   "trials", "trials_passed", "type", "zeta1", "zeta2"]

    def test_qri_pulse_monomials_unit_band(self, tmp_path, capsys):
        """The pulse under Boltzmann-Shannon with band [0, 1], whose ends it
        touches: both certificates fail `[margin interval]` and write nothing.
        On the default band, dom f = [0, inf), qri accepts a witness."""
        cfg = write_cert_config(tmp_path, entropy="boltzmann_shannon",
                                kind="monomial", n=3, extra_basis="",
                                certify="alpha = 0\nbeta = 1")
        for cert_type in ("core", "qri"):
            assert main(["certify", "--config", str(cfg), "--type", cert_type]) == 3
            assert capsys.readouterr().err.startswith(
                "certify: failed hypothesis [margin interval]: no margin interval")
            assert not (tmp_path / "out").exists()
        cfg = write_cert_config(tmp_path, entropy="boltzmann_shannon",
                                kind="monomial", n=3, extra_basis="", certify="")
        assert main(["certify", "--config", str(cfg), "--type", "qri"]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["type"] == "qri"
        assert payload["eps"] > 0
        assert payload["residuals"]["moment_match"] <= 1e-8
        assert payload["m"] >= 3

    @pytest.mark.parametrize("entropy,message", [
        ("boltzmann_shannon", "[moment match]: the witness accepted at m=3 misses the target "
                              "moments by 3.822e-08 > 1e-08"),
        ("fermi_dirac", "[witness acceptance]: no acceptable witness up to m=50000 (need "
                        "sup|v| < 5.000e-11 with positive lower clearance and clearance "
                        "below 1.0)"),
    ], ids=["bs-moment-match", "fd-witness-leaves-domain"])
    def test_qri_witness_missing_the_moments_exits_3(self, tmp_path, capsys, entropy, message):
        """Monomials tabulated on 401 samples, on `constant 0.9999999999`
        with a coarse rule: under Boltzmann-Shannon the witness accepted at
        m = 3 misses the target moments by 3.8e-8 on the margin rule, more
        than P2_TOL, so the build fails by name and writes no certificate.
        Under Fermi-Dirac the density clears dom f = [0, 1] by 1e-10 below
        its upper end, so delta/2 is 5e-11 and no correction up to the
        default budget is that small: the scan solves for no level and
        fails within a second."""
        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(3)]))
        ini = tmp_path / "run.ini"
        ini.write_text(f"[problem]\nentropy = {entropy}\n"
                       f"[basis]\nkind = tabulated\nn = 3\nfile = {tmp_path / 'basis.txt'}\n"
                       f"[rho]\nkind = constant\nc = 0.9999999999\n"
                       f"[quad]\norder = 8\npanels = 8\n[output]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        assert main(["certify", "--config", str(ini), "--type", "qri"]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"certify: failed hypothesis {message}"), err
        assert not (tmp_path / "out" / "certificate.json").exists()

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("kind,extra_basis", [("monomial", ""),
                                                  ("piecewise_flat", "split = 0.5")])
    def test_qri_fermi_dirac_boundary_target_exits_3(self, tmp_path, capsys, kind,
                                                     extra_basis, n):
        """The pulse under Fermi-Dirac's default band [0, 1], which reaches the
        domain's upper end: the target is a boundary point, and qri fails
        `[margin interval]` as core does, instead of accepting a witness that
        exceeds 1."""
        cfg = write_cert_config(tmp_path, entropy="fermi_dirac", kind=kind, n=n,
                                extra_basis=extra_basis, certify="")
        for cert_type in ("core", "qri"):
            assert main(["certify", "--config", str(cfg), "--type", cert_type]) == 3
            assert capsys.readouterr().err.startswith(
                "certify: failed hypothesis [margin interval]: no margin interval")
            assert not (tmp_path / "out").exists()

    def test_qri_fermi_dirac_clearance_counts_the_domain_end(self, tmp_path):
        """Fermi-Dirac, constant 0.9: delta counts the density's clearance
        below 1, so levels 3-6, whose corrections reach delta/2 = 0.05, are
        passed over; the witness accepted at m = 7 clears 1 by 0.0997, less
        than it clears 0, and eps is that clearance below 1."""
        cfg = write_cert_config(tmp_path, entropy="fermi_dirac", kind="monomial", n=3,
                                extra_basis="", rho_kind="constant", c="0.9", certify="")
        assert main(["certify", "--config", str(cfg), "--type", "qri"]) == 0
        payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
        assert payload["m"] == 7
        assert payload["eps"] == payload["upper_clearance"] == pytest.approx(0.0997, abs=1e-4)

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

    @pytest.mark.parametrize("section,message", [
        ("[quad]\norder = 0", "quad.order must be >= 1, got 0"),
        ("[quad]\npanels = 0", "quad.panels must be >= 1, got 0"),
        ("[solver]\nmax_iter = -3", "solver.max_iter must be >= 0, got -3"),
        ("[solver]\ntol = nan", "solver.tol: tolerance must be positive and finite, got nan"),
        ("[solver]\ntol = 0", "solver.tol: tolerance must be positive and finite, got 0.0"),
    ], ids=["quad-order", "quad-panels", "max-iter", "tol-nan", "tol-zero"])
    def test_bad_quad_or_solver_key_names_it(self, tmp_path, capsys, section, message):
        cfg = write_cert_config(tmp_path, certify=f"trials = 100\n{section}")
        assert main(["certify", "--config", str(cfg), "--type", "core"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
    @pytest.mark.parametrize("entropy,band,message", [
        ("boltzmann_shannon", "alpha = -1\nbeta = 2", "is not contained in the domain"),
        ("boltzmann_shannon", "alpha = 2\nbeta = 1",
         "band [2.0, 1.0] is empty; set certify.alpha below certify.beta"),
        ("fermi_dirac", "alpha = 0.5\nbeta = 0.5",
         "band [0.5, 0.5] is empty; set certify.alpha below certify.beta"),
    ], ids=["outside-domain", "empty", "point"])
    def test_band_outside_entropy_domain_exits_1(self, tmp_path, capsys, cert_type, entropy,
                                                 band, message):
        """A band outside the entropy's domain is a configuration error that
        writes nothing, and so is an empty one, named as empty: a band of one
        point, which Fermi-Dirac's domain holds, has no interior for a
        margin's range to clear."""
        cfg = write_cert_config(tmp_path, entropy=entropy, n=6, certify=band)
        out = tmp_path / "E" / cert_type
        assert main(["certify", "--config", str(cfg), "--type", cert_type,
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
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

    def test_unconverged_solve_exits_2_with_comparison(self, tmp_path, capsys):
        """One Newton iteration converges neither basis: exit 2 with one
        stderr line per basis, naming it and why its solve stopped, and
        comparison.json is still written as the evidence."""
        cfg = write_compare_config(tmp_path, out=str(tmp_path / "out"))
        cfg.write_text(cfg.read_text() + "\n[solver]\nmax_iter = 1\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        assert re.fullmatch(r"compare: basis a not converged: iteration budget 1 exhausted "
                            r"with residual \S+\n"
                            r"compare: basis b not converged: iteration budget 1 exhausted "
                            r"with residual \S+\n", capsys.readouterr().err)
        payload = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert (payload["basis_a"]["converged"], payload["basis_b"]["converged"]) == (False, False)
        assert min(payload["residuals"]) > 1e-10
        assert (tmp_path / "out" / "solution_a.csv").exists()

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
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "f_star_d1 of burg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window,measured", [("0.4 0.6", True), ("0 1", False)])
    def test_untabulable_unconverged_basis_exits_2(self, tmp_path, capsys, window, measured):
        """Burg monomial n=12 on the pulse, cut at 30 Newton iterations,
        spends its budget, and its field turns positive between nodes; basis
        b (split 0.4) converges.  As for `solve`, the spent budget is what
        the run reports: exit 2, with comparison.json and both traces, and
        without solution_a.csv.  Basis a's overshoot is measured where its x
        can be evaluated (the window around the jump) and NaN where it cannot
        (the whole interval)."""
        cfg = write_compare_config(tmp_path, n=12, extra_b="split = 0.4",
                                   out=str(tmp_path / "out"))
        cfg.write_text(cfg.read_text().replace("translated_boltzmann_shannon", "burg")
                       .replace("window = 0.4 0.6", f"window = {window}")
                       + "\n[solver]\nmax_iter = 30\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        assert re.fullmatch(r"compare: basis a not converged: iteration budget 30 exhausted "
                            r"with residual \S+\n", capsys.readouterr().err)
        out = tmp_path / "out"
        assert sorted(os.listdir(out)) == ["comparison.json", "solution_b.csv",
                                           "trace_a.csv", "trace_b.csv"]
        text = (out / "comparison.json").read_text()
        payload = json.loads(text)
        assert (payload["basis_a"]["converged"], payload["basis_b"]["converged"]) == (False, True)
        assert payload["overshoot_a"] == payload["basis_a"]["overshoot"]
        if measured:
            assert np.isfinite(payload["overshoot_a"])
        else:
            assert payload["overshoot_a"] == "nan" and '"overshoot_a": "nan"' in text
        assert np.isfinite(payload["overshoot_b"])

    def test_invalid_second_basis_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        """Both instances are built before either is solved, so a [basis_b]
        that cannot be built costs no solve."""
        calls = []
        monkeypatch.setattr(cli, "solve_dual", lambda *args, **kw: calls.append(args))
        cfg = write_compare_config(tmp_path, extra_b="", out=str(tmp_path / "out"))
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "compare: piecewise_flat basis requires a split point\n"
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = write_compare_config(tmp_path, name="c1.ini", out=str(tmp_path / "run1"))
        cfg2 = write_compare_config(tmp_path, name="c2.ini", out=str(tmp_path / "run2"))
        assert main(["compare", "--config", str(cfg1)]) == 0
        assert main(["compare", "--config", str(cfg2)]) == 0
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

    @pytest.mark.parametrize("header", ["0", "1", "0 1"])
    def test_breakpoint_header_at_interval_end_solves_as_without(self, tmp_path, header):
        """A `# breakpoints:` header naming only interval ends declares no
        breakpoint: the solve writes the bytes it writes without the header."""
        s = np.linspace(0.0, 1.0, 401)
        rows = np.column_stack([s, np.ones_like(s), s])
        artifacts = []
        for name, text in (("plain", ""), ("ends", f"# breakpoints: {header}\n")):
            table = tmp_path / f"{name}.txt"
            with open(table, "w") as fh:
                fh.write(text)
                np.savetxt(fh, rows)
            out = tmp_path / name
            ini = tmp_path / f"{name}.ini"
            ini.write_text(f"{TBS}[basis]\nkind = tabulated\nn = 2\nfile = {table}\n"
                           f"[output]\ndir = {out}\n")
            assert main(["solve", "--config", str(ini)]) == 0
            artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert artifacts[0] == artifacts[1] and len(artifacts[0]) == 3

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

    def test_burg_start_outside_domain_names_plain_floats(self, tmp_path, capsys):
        """The failed start's stderr line prints the field and node as floats,
        not as numpy scalar reprs."""
        ini = tmp_path / "burg.ini"
        ini.write_text(f"""
[problem]
entropy = burg

[basis]
kind = monomial
n = 2

[rho]
kind = constant
c = 0.5

[solver]
phi0 = 1 0

[output]
dir = {tmp_path / 'out'}
""")
        assert main(["solve", "--config", str(ini)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("solve: dual field 1.0 at node s=0.000")
        assert "np." not in line

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
# test's directory, where basis.txt holds two tabulated functions and
# empty.txt nothing
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
    "tabulated-basis-directory": (["solve"], TBS + "[basis]\nkind = tabulated\nn = 2\n"
                                  "file = {tmp}\n", "solve: {tmp}: cannot read: "),
    "tabulated-density-directory": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = tabulated\n"
                                    "file = {tmp}\n", "solve: {tmp}: cannot read: "),
    "tabulated-density-missing-file": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = tabulated\n"
                                       "file = {tmp}/none.txt\n", "density file not found: "),
    "unknown-density-kind": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = gaussian\n",
                             "unknown density kind 'gaussian'; expected pulse, "
                             "constant or tabulated"),
    "pulse-split-nan": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = pulse\nsplit = nan\n",
                        "the pulse split must be finite, got split=nan"),
    "pulse-split-inf": (["certify", "--type", "core"],
                        TBS + MONOMIAL_2 + "[rho]\nkind = pulse\nsplit = inf\n",
                        "the pulse split must be finite, got split=inf"),
    "pulse-split-minus-inf": (["certify", "--type", "qri"],
                              TBS + MONOMIAL_2 + "[rho]\nkind = pulse\nsplit = -inf\n",
                              "the pulse split must be finite, got split=-inf"),
    "pulse-split-at-start": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = pulse\nsplit = 0\n",
                             "rho.split 0.0 must lie strictly inside the interval [0.0, 1.0]"),
    "pulse-split-left": (["certify", "--type", "core"],
                         TBS + MONOMIAL_2 + "[rho]\nkind = pulse\nsplit = -1\n",
                         "rho.split -1.0 must lie strictly inside the interval [0.0, 1.0]"),
    "pulse-split-at-end": (["compare"], TBS + "[rho]\nsplit = 1\n",
                           "rho.split 1.0 must lie strictly inside the interval [0.0, 1.0]"),
    "l2-norm-without-alpha": (["certify", "--type", "core"],
                              "[problem]\nentropy = l2_norm\n" + MONOMIAL_2,
                              "certificates need a finite lower bound"),
    "basis-without-n": (["solve"], TBS + "[basis]\nkind = monomial\n",
                        "basis section requires 'kind' and 'n'"),
    "unparsable-file": (["solve"], "entropy without a section\n",
                        "cannot parse {tmp}/bad.ini: File contains no section headers."),
    "unknown-section": (["certify", "--type", "qri"], TBS + MONOMIAL_2 + "[certfy]\nm_max = 50000\n",
                        "{tmp}/bad.ini: unknown section [certfy]"),
    "unknown-key": (["certify", "--type", "qri"], TBS + MONOMIAL_2 + "[certify]\nm-max = 50000\n",
                    "{tmp}/bad.ini: unknown key certify.m-max"),
    "default-section": (["solve"], "[DEFAULT]\nn = 2\n" + TBS + MONOMIAL_2,
                        "{tmp}/bad.ini: unknown section [DEFAULT]"),
    "empty-output-dir": (["solve"], TBS + MONOMIAL_2 + "[output]\ndir =\n",
                         "output.dir must not be empty"),
    "seed-flag": (["certify", "--type", "core", "--seed", "-1"], TBS + MONOMIAL_2,
                  "certify.seed must be >= 0, got -1"),
    "empty-basis-file": (["solve"], TBS + "[basis]\nkind = tabulated\nn = 2\n"
                         "file = {tmp}/empty.txt\n", "{tmp}/empty.txt: contains no data rows"),
    "empty-density-file": (["solve"], TBS + MONOMIAL_2 + "[rho]\nkind = tabulated\n"
                           "file = {tmp}/empty.txt\n", "{tmp}/empty.txt: contains no data rows"),
    "unknown-entropy": (["solve"], "[problem]\nentropy = gaps\n" + MONOMIAL_2,
                        "unknown entropy 'gaps'; available: boltzmann_shannon, burg"),
    "no-entropy": (["solve"], "[problem]\ninterval = 0 1\n" + MONOMIAL_2,
                   "section [problem] with 'entropy' is required"),
    "decreasing-interval": (["solve"], TBS + "interval = 1 0\n" + MONOMIAL_2,
                            "interval must be two increasing numbers, got [1.0, 0.0]"),
    "infinite-interval": (["solve"], TBS + "interval = 0 inf\n" + MONOMIAL_2,
                          "integration interval [0.0, inf] must be finite"),
    "infinite-interval-certify": (["certify", "--type", "core"],
                                  TBS + "interval = -inf 1\n" + MONOMIAL_2,
                                  "integration interval [-inf, 1.0] must be finite"),
    "single-window": (["compare"], TBS + "[compare]\nwindow = 0.4\n",
                      "compare window must be two increasing numbers, got [0.4]"),
    "window-outside-interval": (["compare"], TBS + "[compare]\nwindow = 3 5\n",
                                "compare.window [3.0, 5.0] must lie inside the interval "
                                "[0.0, 1.0]"),
    "min-width-zero": (["certify", "--type", "core"],
                       TBS + MONOMIAL_2 + "[certify]\nmin_width = 0\n",
                       "certify.min_width must be positive and finite, got 0.0"),
    "min-width-nan": (["solve"], TBS + MONOMIAL_2 + "[certify]\nmin_width = nan\n",
                      "certify.min_width must be positive and finite, got nan"),
    "min-width-negative": (["compare"], TBS + "[certify]\nmin_width = -1\n",
                           "certify.min_width must be positive and finite, got -1.0"),
    "min-width-whole-interval-core": (["certify", "--type", "core"],
                                      TBS + MONOMIAL_2 + "[certify]\nmin_width = 2\n",
                                      "certify.min_width 2.0 must be shorter than the "
                                      "interval [0.0, 1.0]"),
    "min-width-whole-interval-qri": (["certify", "--type", "qri"], TBS + "interval = 0 2\n"
                                     + MONOMIAL_2 + "[certify]\nmin_width = 2\n",
                                     "certify.min_width 2.0 must be shorter than the "
                                     "interval [0.0, 2.0]"),
    "min-width-whole-interval-solve": (["solve"], TBS + MONOMIAL_2 + "[certify]\nmin_width = 1\n",
                                       "certify.min_width 1.0 must be shorter than the "
                                       "interval [0.0, 1.0]"),
    "min-width-whole-interval-compare": (["compare"], TBS + "[certify]\nmin_width = 5\n",
                                         "certify.min_width 5.0 must be shorter than the "
                                         "interval [0.0, 1.0]"),
    "phi0-short": (["solve"], TBS + "[basis]\nkind = monomial\nn = 3\n[solver]\nphi0 = 1 2\n",
                   "solver.phi0 needs one value per function of [basis] (n = 3), got 2"),
    "phi0-long-certify": (["certify", "--type", "core"],
                          TBS + MONOMIAL_2 + "[solver]\nphi0 = 0 0 0\n",
                          "solver.phi0 needs one value per function of [basis] (n = 2), got 3"),
    "phi0-compare": (["compare"], TBS + "[basis_a]\nkind = monomial\nn = 2\n[basis_b]\n"
                     "kind = monomial\nn = 2\n[solver]\nphi0 = 0\n",
                     "solver.phi0 needs one value per function of [basis_a] "
                     "(n = 2), got 1"),
    "n-not-a-number": (["solve"], TBS + "[basis]\nkind = monomial\nn = six\n",
                       "basis.n: invalid literal for int() with base 10: 'six'"),
    "certify-without-basis": (["certify", "--type", "qri"], TBS,
                              "certify: certify requires a [basis] section"),
    "compare-without-bases": (["compare"], TBS + MONOMIAL_2,
                              "compare: compare requires [basis_a] and [basis_b] sections"),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_exits_1_naming_it_without_output(tmp_path, capsys, case):
    """Every configuration error path: exit 1, its problem on one stderr
    line, and no output directory."""
    command, text, message = CONFIG_ERRORS[case]
    s = np.linspace(0.0, 1.0, 11)
    np.savetxt(tmp_path / "basis.txt", np.column_stack([s, np.ones_like(s), s]))
    (tmp_path / "empty.txt").write_text("")
    path = tmp_path / "bad.ini"
    path.write_text(text.format(tmp=tmp_path))
    out = tmp_path / "E"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command[0]}: ") and message.format(tmp=tmp_path) in err, err
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert not out.exists()


@pytest.mark.parametrize("case", ["directory", "not-utf-8"])
def test_unreadable_config_exits_1_naming_it(tmp_path, capsys, case):
    """A `--config` that names a directory, or a file that is not UTF-8 text,
    is a configuration error naming the path, not a missing [problem] section
    or a traceback."""
    path = tmp_path / "run.ini"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(TBS.encode() + b"; \xff\n" + MONOMIAL_2.encode())
    out = tmp_path / "E"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"solve: cannot read {path}: ") and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
@pytest.mark.parametrize("command", [["solve"], ["compare"], ["certify", "--type", "core"],
                                     ["certify", "--type", "qri"]],
                         ids=["solve", "compare", "certify-core", "certify-qri"])
def test_unwritable_output_path_exits_1_in_one_line(tmp_path, capsys, command, where):
    """An `--out` that names an existing file, or a path under one, cannot be
    made a directory: exit 1 and one stderr line naming it, no traceback."""
    write = {"solve": write_config, "certify": write_cert_config,
             "compare": write_compare_config}[command[0]]
    path = write(tmp_path, out=str(tmp_path / "unused"))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "a-file" else blocker / "out"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{command[0]}: ") and str(out) in err, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("case", ["seed-flag"])
def test_flag_fails_its_key_check_before_any_build(tmp_path, capsys, monkeypatch, case):
    """A flag passes the check of the INI key it overrides, with that key's
    message, before build_problem makes a rule."""
    monkeypatch.setattr(cli, "build_problem", lambda *args: pytest.fail("build_problem ran"))
    command, text, message = CONFIG_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "E")]) == 1
    assert capsys.readouterr().err == f"{command[0]}: {message}\n"


@pytest.mark.parametrize("where", ["key", "flag"])
def test_empty_output_dir_exits_1_before_solving(tmp_path, capsys, monkeypatch, where):
    """An empty `[output] dir` and `--out ""` are one configuration error,
    named by its key, before anything is built or solved."""
    monkeypatch.setattr(cli, "build_problem", lambda *args: pytest.fail("build_problem ran"))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.ini"
    path.write_text(TBS + MONOMIAL_2 + ("[output]\ndir =\n" if where == "key" else ""))
    flags = ["--out", ""] if where == "flag" else []
    assert main(["solve", "--config", str(path), *flags]) == 1
    assert capsys.readouterr().err == "solve: output.dir must not be empty\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("args", [
    ["solve"], ["certify", "--config", "run.ini"], ["frobnicate", "--config", "run.ini"],
    ["certify", "--config", "run.ini", "--type", "core", "--seed", "x"],
    ["solve", "--config", "run.ini", "--trace"], ["compare", "--config", "run.ini", "--trace"],
], ids=["solve-without-config", "certify-without-type", "unknown-subcommand", "seed-not-int",
        "solve-trace", "compare-trace"])
def test_usage_error_exits_1(capsys, args):
    """argparse's usage errors take the configuration-error code, not 2.
    `--trace` is one for every subcommand: solve and compare always write
    their Newton trace."""
    assert main(args) == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["solve", "--seed", "1"], ["compare", "--seed", "1"], ["certify", "--type", "core", "--trace"],
    ["solve", "--quad-order", "12"], ["certify", "--type", "core", "--quad-panels", "4"],
    ["compare", "--quad-order", "12"],
], ids=["solve-seed", "compare-seed", "certify-trace", "solve-quad-order",
        "certify-quad-panels", "compare-quad-order"])
def test_flag_another_subcommand_reads_exits_1(tmp_path, capsys, args):
    """Each subcommand takes only the flags it reads: --seed is certify's,
    no subcommand reads --trace, and `[quad]` is set in the config file
    alone.  Any other flag is a usage error: exit 1 on a config that runs,
    and no output directory."""
    out = tmp_path / "out"
    write = {"solve": write_config, "certify": write_cert_config,
             "compare": write_compare_config}[args[0]]
    path = write(tmp_path, out=str(out))
    assert main([*args, "--config", str(path)]) == 1
    assert "error: unrecognized arguments: " in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--out" in capsys.readouterr().out


def test_usage_error_exits_1_from_module():
    src = str(Path(entromin.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "entromin.cli", "solve"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert "the following arguments are required: --config" in proc.stderr


# a malformed table's text and what stderr says of it after "<path>: "
MALFORMED_TABLES = {
    "non-numeric": ("0 1 0\n0.5 one 0.5\n1 1 1\n",
                    "could not convert string 'one' to float64 at row 1, column 2."),
    "ragged": ("0 1 0\n0.5 1\n1 1 1\n", "the number of columns changed from 3 to 2 at row 2"),
    "breakpoints": ("# breakpoints: 0.2 half\n0 1 0\n1 1 1\n",
                    "could not convert string to float: 'half'"),
    "one-column": ("0\n0.5\n1\n", {"basis": "need an s column plus at least one function column",
                                   "rho": "need at least two columns (s, value)"}),
}


@pytest.mark.parametrize("section", ["basis", "rho"])
@pytest.mark.parametrize("table", list(MALFORMED_TABLES))
def test_malformed_table_is_one_config_error_line(tmp_path, capsys, table, section):
    """A tabulated basis or density file with a token that is no number, a
    ragged row, a breakpoint that is no number or one column: exit 1, one
    stderr line naming the file, and no output directory, for every subcommand."""
    text, message = MALFORMED_TABLES[table]
    if isinstance(message, dict):   # the one-column message says what each table holds
        message = message[section]
    path = tmp_path / "table.txt"
    path.write_text(text)
    tabulated = f"kind = tabulated\nfile = {path}\n"
    monomial = "kind = monomial\nn = 2\n"
    basis = f"{tabulated}n = 2\n" if section == "basis" else monomial  # [basis_a] for compare too
    rho = f"[rho]\n{tabulated}" if section == "rho" else ""
    ini = tmp_path / "bad.ini"
    ini.write_text(f"{TBS}[basis]\n{basis}[basis_a]\n{basis}[basis_b]\n{monomial}{rho}")
    for command in (["solve"], ["certify", "--type", "core"], ["compare"]):
        out = tmp_path / "E"
        assert main([*command, "--config", str(ini), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"{command[0]}: {path}: {message}\n"
        assert not out.exists()


def test_byte_identity_harness_repeats(bench_module):
    """`tests/cli_digests.py` covers its 458 runs, and two of them, a solve
    and a core certificate, digest to the same lines when run twice."""
    from cli_digests import digests, runs

    plan = runs(bench_module("workloads"))
    assert len(plan) == 458
    chosen = [plan[0], next(run for run in plan if run[0][2:3] == ("core",))]
    lines = digests(chosen)
    assert lines == digests(chosen)
    assert [line.split()[0] for line in lines] == ["certify", "solve"]
    assert all(" exit=0 " in line for line in lines)


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, n=2)
    src = str(Path(entromin.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "entromin.cli", "solve",
                           "--config", str(cfg)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "converged" in proc.stdout


def test_package_exports_are_pinned():
    """The public names of `entromin`, its submodules aside, are these: an
    API that grows or shrinks changes this list on purpose."""
    exported = sorted(name for name, value in vars(entromin).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == [
        "CertificateError", "CertificateVerification", "CoreCertificate", "Density",
        "DirectionFunctions", "DomainViolationError", "DualSolution", "EntrominError",
        "EntropySpec", "IndependenceReport", "Interval", "MarginInterval", "MomentBasis",
        "PrimalSolution", "ProblemInstance", "QriCertificate", "QuadratureRule", "ValidationError",
        "available_entropies", "build_core_certificate", "build_direction_functions",
        "build_qri_certificate", "build_rule", "builtin_entropy", "constant_density",
        "dual_gradient", "dual_hessian", "dual_value", "fenchel_young_gap",
        "find_margin_interval", "gibbs_overshoot",
        "instance_from_density", "integrate", "linearly_independent_on", "moment_vector",
        "monomial_basis", "piecewise_flat_basis", "pulse_density", "reconstruct",
        "sample_solution", "solve_dual", "tabulated_basis", "tabulated_density",
        "verify_core_certificate",
    ]


def test_each_export_is_declared_once():
    """Each name `entromin` exports is in exactly one module's `__all__` and
    defined in that module, and the lists together are the exports, so the
    package's star re-exports neither shadow nor drop a name."""
    tree = ast.parse(Path(entromin.__file__).read_text())
    starred = [f"entromin.{node.module}" for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.level == 1 and [alias.name for alias in node.names] == ["*"]]
    assert len(starred) == 8
    declared = {}
    for module in starred:
        for name in sys.modules[module].__all__:
            declared.setdefault(name, []).append(module)
    exported = {name for name, value in vars(entromin).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(declared) == exported
    for name, modules in declared.items():
        assert len(modules) == 1, (name, modules)
        assert getattr(entromin, name).__module__ == modules[0], name


def test_cli_imports_no_scipy():
    src = str(Path(entromin.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, entromin.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _readme_block(heading, lang):
    """The first ```lang block under `heading` in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(heading, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_usage_lines_are_the_parser():
    """The README's usage line of each subcommand names exactly the options
    the parser gives it, so an undocumented or unread flag fails here."""
    block = _readme_block("## Command line", "")
    stated = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
              for line in block.splitlines()}
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {option for action in sub._actions for option in action.option_strings
                     if option.startswith("--") and option != "--help"}
              for name, sub in subparsers.choices.items()}
    assert stated == parsed


def test_readme_config_schema_loads(tmp_path):
    """The README's "Config schema" block loads as it stands, inline comments included."""
    block = _readme_block("### Config schema", "ini")
    path = tmp_path / "schema.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    assert cfg.entropy == "translated_boltzmann_shannon"
    assert (cfg.basis.kind, cfg.basis.n, cfg.basis.split) == ("piecewise_flat", 6, 0.5)
    assert cfg.certify.m_max == 50000
    assert cfg.certify.seed == 0
    assert cfg.tol == 1e-10


def test_readme_config_certifies_qri_at_the_default_budget(tmp_path, capsys):
    """The README's "Config schema" block states the default qri budget, and
    at that default the example config certifies under `certify --type qri`,
    at m = 44103 (a budget of 4000 levels exits 3)."""
    block = _readme_block("### Config schema", "ini")
    stated = re.search(r"^m_max = (\d+) ", block, re.MULTILINE)
    assert int(stated.group(1)) == CertifyOptions().m_max
    path, out = tmp_path / "schema.ini", tmp_path / "out"
    path.write_text(block.replace(stated.group(0), ""))   # the default applies
    assert main(["certify", "--config", str(path), "--type", "qri", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("certify: qri witness accepted at m=44103,")
    assert json.loads((out / "certificate.json").read_text())["m"] == 44103


def test_readme_config_certify_core_imports_no_numpy_random(tmp_path):
    """Core verification decides P1 and P2 for every admissible step and
    samples none: `certify --type core` on the README config, in a fresh
    interpreter, verifies without importing numpy.random."""
    path = tmp_path / "schema.ini"
    path.write_text(_readme_block("### Config schema", "ini"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from entromin import cli; "
         "code = cli.main(sys.argv[1:]); print(code, 'numpy.random' in sys.modules)",
         "certify", "--config", str(path), "--type", "core", "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(entromin.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_readme_config_schema_commented_keys_load(tmp_path):
    """Each optional key the README shows commented out is one load_config
    reads, too."""
    lines = _readme_block("### Config schema", "ini").splitlines()
    block = "\n".join(line[2:] if line.startswith("; ") and " = " in line else line
                      for line in lines)
    path = tmp_path / "schema.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    assert (cfg.certify.alpha, cfg.certify.beta, cfg.certify.min_width) == (0.0, np.inf, 0.01)
    assert list(cfg.phi0) == [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert (cfg.basis.file, cfg.rho.file) == ("basis.txt", "rho.txt")


@pytest.mark.parametrize("old,new,named", [
    ("m_max = 50000", "m-max = 50000", "unknown key certify.m-max"),
    ("max_iter = 100", "max_iters = 1", "unknown key solver.max_iters"),
    ("[certify]", "[certfy]", "unknown section [certfy]"),
], ids=["m-max", "max-iters", "certfy"])
def test_readme_config_with_undeclared_key_exits_1(tmp_path, capsys, old, new, named):
    """A misspelt key or section of the README config is not dropped: the
    run exits 1 with one stderr line naming it, and writes nothing."""
    path = tmp_path / "schema.ini"
    path.write_text(_readme_block("### Config schema", "ini").replace(old, new))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(path), "--type", "qri", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"certify: {path}: {named}\n"
    assert not out.exists()


def test_readme_library_quick_start_runs():
    """The README's "Library quick start" block runs as it stands, asserts included."""
    exec(compile(_readme_block("## Library quick start", "python"), "README.md", "exec"), {})
