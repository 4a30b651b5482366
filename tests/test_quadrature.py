"""Composite rule construction, exactness, and error reporting."""

import numpy as np
import pytest

from entromin import NonFiniteIntegrandError, ValidationError, build_rule, integrate
from entromin.densities import pulse_density
from entromin.quadrature import _reference_rule


def test_weights_sum_to_interval_length():
    rule = build_rule((0.0, 1.0), (0.5,))
    assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-12)
    rule = build_rule((0.0, 3.5), (0.2, 1.7))
    assert np.sum(rule.weights) == pytest.approx(3.5, rel=1e-12)


def test_nodes_interior_and_avoid_breakpoints():
    rule = build_rule((0.0, 1.0), (0.5,), nodes_per_panel=5, panels_per_segment=2)
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
    assert np.all(np.abs(rule.nodes - 0.5) > 1e-12)


def test_polynomial_exactness_single_panel():
    # 5-point Gauss-Legendre is exact through degree 9
    rule = build_rule((0.0, 1.0), nodes_per_panel=5, panels_per_segment=1)
    assert integrate(rule, lambda s: s**4) == pytest.approx(0.2, abs=1e-15)
    assert integrate(rule, lambda s: s**9) == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("degree", range(0, 10))
def test_polynomial_exactness_composite(degree):
    rule = build_rule((0.0, 2.0), (0.3, 1.1), nodes_per_panel=5, panels_per_segment=3)
    exact = 2.0 ** (degree + 1) / (degree + 1)
    assert integrate(rule, lambda s: s**degree) == pytest.approx(exact, rel=1e-12)


def test_pulse_integrals_exact_with_breakpoint():
    pulse = pulse_density(0.5)
    rule = build_rule((0.0, 1.0), (0.5,))
    assert integrate(rule, pulse) == pytest.approx(0.5, abs=1e-15)
    # integral of s over the pulse support: 1/8
    assert integrate(rule, lambda s: pulse(s) * s) == pytest.approx(0.125, abs=1e-15)


def test_piecewise_flat_second_function_integral():
    # t on [0,1/2] then 1 on (1/2,1]: 1/8 + 1/2 = 5/8
    rule = build_rule((0.0, 1.0), (0.5,))
    a2 = lambda s: np.where(s <= 0.5, s, 1.0)
    assert integrate(rule, a2) == pytest.approx(0.625, abs=1e-15)


def test_constant_and_identity():
    rule = build_rule((0.0, 1.0))
    assert integrate(rule, lambda s: np.ones_like(s)) == pytest.approx(1.0, rel=1e-14)
    assert integrate(rule, lambda s: s) == pytest.approx(0.5, rel=1e-14)


class TestValidation:
    def test_breakpoints_outside(self):
        with pytest.raises(ValidationError):
            build_rule((0.0, 1.0), (1.5,))
        with pytest.raises(ValidationError):
            build_rule((0.0, 1.0), (0.0,))

    def test_breakpoints_unsorted_or_duplicate(self):
        with pytest.raises(ValidationError):
            build_rule((0.0, 1.0), (0.7, 0.3))
        with pytest.raises(ValidationError):
            build_rule((0.0, 1.0), (0.3, 0.3))

    def test_bad_orders(self):
        with pytest.raises(ValidationError):
            build_rule((0.0, 1.0), nodes_per_panel=0)
        with pytest.raises(ValidationError):
            build_rule((0.0, 1.0), panels_per_segment=0)

    def test_empty_interval(self):
        with pytest.raises(ValidationError):
            build_rule((1.0, 1.0))


def test_nonfinite_integrand_carries_node():
    rule = build_rule((0.0, 1.0))

    def bad(s):
        return np.where(s > 0.7, np.inf, 1.0)

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate(rule, bad)
    assert err.value.node > 0.7


def test_refinement_stability():
    """Doubling the panel count moves smooth and benchmark integrands
    by at most 1e-10."""
    pulse = pulse_density(0.5)
    integrands = [
        lambda s: np.exp(s),
        lambda s: pulse(s) * np.exp(np.sin(3 * s)),
        lambda s: np.where(s <= 0.5, s**5, 1.0),
        lambda s: 1.0 / (1.0 + s * s),
    ]
    coarse = build_rule((0.0, 1.0), (0.5,), panels_per_segment=8)
    fine = build_rule((0.0, 1.0), (0.5,), panels_per_segment=16)
    for g in integrands:
        assert integrate(coarse, g) == pytest.approx(integrate(fine, g), abs=1e-10)


def per_panel_rule(lo, hi, breakpoints, nodes_per_panel, panels_per_segment):
    """The composite rule laid out one panel at a time, with its own leggauss."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = [lo, *breakpoints, hi]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        panel_edges = np.linspace(a, b, panels_per_segment + 1)
        for pa, pb in zip(panel_edges[:-1], panel_edges[1:]):
            half = 0.5 * (pb - pa)
            nodes.append(pa + half * (ref_x + 1.0))
            weights.append(half * ref_w)
    return np.concatenate(nodes), np.concatenate(weights)


class TestLayout:
    @pytest.mark.parametrize("interval,breakpoints", [
        ((0.0, 1.0), ()),
        ((0.0, 1.0), (0.5,)),
        ((-2.5, 3.0), (-1.0, 0.1, 2.9)),
        ((1e-3, 7.25), (1.0 / 3.0, np.pi)),
    ])
    @pytest.mark.parametrize("order", [1, 2, 7, 20])
    @pytest.mark.parametrize("panels", [1, 3, 8])
    def test_matches_per_panel_layout(self, interval, breakpoints, order, panels):
        rule = build_rule(interval, breakpoints, order, panels)
        nodes, weights = per_panel_rule(*interval, breakpoints, order, panels)
        assert rule.nodes.shape == nodes.shape
        assert np.all(rule.nodes == nodes) and np.all(rule.weights == weights)

    def test_reference_rule_is_read_only_and_not_shared(self):
        rule = build_rule((-1.0, 1.0), (), 7, 1)  # one panel: the reference rule itself
        ref_x, ref_w = _reference_rule(7)
        assert np.all(rule.weights == ref_w)
        for ref in (ref_x, ref_w):
            with pytest.raises(ValueError):
                ref[0] = 0.0
            assert not np.shares_memory(rule.nodes, ref)
            assert not np.shares_memory(rule.weights, ref)
        assert _reference_rule(7) is _reference_rule(7)
