"""Run configuration: defaults shared with the library, bounds, the key
table, and the comparison window."""

import dataclasses
import inspect

import pytest

from entromin.certificates import build_qri_certificate, verify_core_certificate
from entromin.config import BasisSpec, CertifyOptions, RhoSpec, RunConfig, load_config
from entromin.densities import pulse_density
from entromin.dual import solve_dual
from entromin.quadrature import build_rule


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_front_end_defaults_are_the_library_defaults():
    """A config that leaves a key out runs what the library runs by default."""
    cfg = RunConfig(entropy="l2_norm")
    assert (cfg.tol, cfg.max_iter) == (_default(solve_dual, "tol"),
                                       _default(solve_dual, "max_iter"))
    assert (cfg.quad_order, cfg.quad_panels) == (_default(build_rule, "nodes_per_panel"),
                                                 _default(build_rule, "panels_per_segment"))
    opts = CertifyOptions()
    assert (opts.trials, opts.seed) == (_default(verify_core_certificate, "trials"),
                                        _default(verify_core_certificate, "seed"))
    assert opts.m_max == _default(build_qri_certificate, "m_max")
    assert RhoSpec().split == _default(pulse_density, "split")
    assert cfg.rho == RhoSpec()


PIECEWISE = BasisSpec("piecewise_flat", 4, split=0.7)


@pytest.mark.parametrize("fields,window", [
    (dict(window=(0.2, 0.9), rho=RhoSpec(split=0.3)), (0.2, 0.9)),
    (dict(rho=RhoSpec(split=0.3), basis_a=PIECEWISE), (0.3 - 0.1, 0.3 + 0.1)),
    (dict(rho=RhoSpec("constant"), basis_a=PIECEWISE, basis=BasisSpec("monomial", 4)),
     (0.7 - 0.1, 0.7 + 0.1)),
    (dict(rho=RhoSpec("constant"), basis=PIECEWISE), (0.7 - 0.1, 0.7 + 0.1)),
    (dict(rho=RhoSpec("tabulated"), basis_a=BasisSpec("monomial", 4), interval=(1.0, 2.0)),
     (1.5 - 0.1, 1.5 + 0.1)),
    (dict(rho=RhoSpec(split=0.95)), (0.95 - 0.1, 1.0)),
    (dict(rho=RhoSpec(split=0.05)), (0.0, 0.05 + 0.1)),
], ids=["explicit", "pulse-split", "basis-a-split", "basis-split", "interval-midpoint",
        "clipped-above", "clipped-below"])
def test_default_window_fallbacks(fields, window):
    """An explicit window, else the pulse split, else a basis split, else the
    interval midpoint, each +- 0.1 and clipped to the interval, where the
    reconstruction is defined."""
    assert RunConfig(entropy="l2_norm", **fields).default_window() == window


def test_default_window_missing_the_interval_named():
    """A basis split 0.1 or more past the interval leaves no window to clip
    (a pulse split must lie inside the interval)."""
    with pytest.raises(ValueError) as exc:
        RunConfig(entropy="l2_norm", rho=RhoSpec("constant"),
                  basis_a=BasisSpec("piecewise_flat", 4, 1.5)).default_window()
    assert str(exc.value) == ("compare.window: split 1.5 +- 0.1 misses the interval "
                              "[0.0, 1.0]; set compare.window")


@pytest.mark.parametrize("make,message", [
    (lambda: RunConfig("l2_norm", quad_order=0), "quad.order must be >= 1, got 0"),
    (lambda: RunConfig("l2_norm", quad_panels=0), "quad.panels must be >= 1, got 0"),
    (lambda: RunConfig("l2_norm", max_iter=-1), "solver.max_iter must be >= 0, got -1"),
    (lambda: RunConfig("l2_norm", tol=float("nan")),
     "solver.tol: tolerance must be positive and finite, got nan"),
    (lambda: RunConfig("l2_norm", sample_points=-1), "output.sample_points must be >= 0, got -1"),
    (lambda: RunConfig("l2_norm", interval=(1.0, 0.0)),
     "interval must be two increasing numbers, got [1.0, 0.0]"),
    (lambda: RunConfig("l2_norm", window=(0.4,)),
     "compare window must be two increasing numbers, got [0.4]"),
    (lambda: RunConfig("l2_norm", interval=(0.0, 2.0), window=(1.5, 2.5)),
     "compare.window [1.5, 2.5] must lie inside the interval [0.0, 2.0]"),
    (lambda: CertifyOptions(trials=0), "certify.trials must be >= 1, got 0"),
    (lambda: CertifyOptions(m_max=2), "certify.m_max must be >= 3, got 2"),
    (lambda: CertifyOptions(seed=-1), "certify.seed must be >= 0, got -1"),
    (lambda: CertifyOptions(min_width=float("inf")),
     "certify.min_width must be positive and finite, got inf"),
    (lambda: dataclasses.replace(RunConfig("l2_norm"), quad_order=0),
     "quad.order must be >= 1, got 0"),
    (lambda: RunConfig("l2_norm", interval=(0.0, 0.5), certify=CertifyOptions(min_width=0.5)),
     "certify.min_width 0.5 must be shorter than the interval [0.0, 0.5]"),
    (lambda: RunConfig("l2_norm", basis_b=BasisSpec("monomial", 3), phi0=(1.0, 2.0)),
     "solver.phi0 needs one value per function of [basis_b] (n = 3), got 2"),
    (lambda: RunConfig("l2_norm", rho=RhoSpec(split=0.0)),
     "rho.split 0.0 must lie strictly inside the interval [0.0, 1.0]"),
    (lambda: RunConfig("l2_norm", rho=RhoSpec(split=-1.0)),
     "rho.split -1.0 must lie strictly inside the interval [0.0, 1.0]"),
    (lambda: RunConfig("l2_norm", interval=(1.0, 3.0)),
     "rho.split 0.5 must lie strictly inside the interval [1.0, 3.0]"),
], ids=["order", "panels", "max-iter", "tol", "sample-points", "interval", "window",
        "window-outside", "trials", "m-max", "seed", "min-width", "replace",
        "min-width-whole-interval", "phi0-length", "pulse-split-at-start", "pulse-split-left",
        "pulse-default-split-left"])
def test_bounds_checked_where_the_value_is_held(make, message):
    """Each bound is the dataclass's own, so a config built in code or
    changed with dataclasses.replace meets the INI key's check."""
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_run_config_frozen():
    cfg = RunConfig("l2_norm")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.out_dir = "elsewhere"


@pytest.mark.parametrize("text,message", [
    ("[problem]\nentropy = l2_norm\nentropy_name = burg\n", "unknown key problem.entropy_name"),
    ("[problem]\nentropy = l2_norm\n[output]\ndirectory = x\n", "unknown key output.directory"),
    ("[problem]\nentropy = l2_norm\n[quad]\nnodes = 4\n", "unknown key quad.nodes"),
    ("[problem]\nentropy = l2_norm\n[rho]\nn = 2\n", "unknown key rho.n"),
    ("[problem]\nentropy = l2_norm\n[compare]\nsplit = 0.5\n", "unknown key compare.split"),
    ("[problem]\nentropy = l2_norm\n[basis_c]\nkind = monomial\n", "unknown section [basis_c]"),
    ("[problem]\nentropy = l2_norm\n[quad]\norder = 2.5\n",
     "quad.order: invalid literal for int() with base 10: '2.5'"),
    ("[problem]\nentropy = l2_norm\ninterval = 0 one\n",
     "problem.interval: could not convert string to float: 'one'"),
    ("[problem]\nentropy = l2_norm\n[solver]\nphi0 = -1 x\n",
     "solver.phi0: could not convert string to float: 'x'"),
], ids=["problem", "output", "quad", "rho", "compare", "section", "int", "interval", "phi0"])
def test_undeclared_key_or_unparsable_value_named(tmp_path, text, message):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_keys_fill_their_fields(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[problem]\nentropy = l2_norm\ninterval = 1, 3\n[rho]\nsplit = 2\n"
                    "[quad]\norder = 5\npanels = 2\n[output]\ndir = there\nsample_points = 7\n"
                    "[compare]\nwindow = 1.5 2\n[solver]\nmax_iter = 9\ntol = 1e-9\n")
    cfg = load_config(str(path))
    assert (cfg.interval, cfg.rho.split, cfg.quad_order, cfg.quad_panels) == ((1.0, 3.0), 2.0, 5, 2)
    assert (cfg.out_dir, cfg.sample_points, cfg.window) == ("there", 7, (1.5, 2.0))
    assert (cfg.max_iter, cfg.tol, cfg.phi0) == (9, 1e-9, None)
