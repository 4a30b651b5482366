"""Run configuration: defaults shared with the library, and the comparison window."""

import inspect

import pytest

from entromin.certificates import build_qri_certificate, verify_core_certificate
from entromin.config import BasisSpec, CertifyOptions, RhoSpec, RunConfig
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
], ids=["explicit", "pulse-split", "basis-a-split", "basis-split", "interval-midpoint"])
def test_default_window_fallbacks(fields, window):
    """An explicit window, else the pulse split, else a basis split, else the
    interval midpoint, each +- 0.1."""
    assert RunConfig(entropy="l2_norm", **fields).default_window() == window
