"""Composite rule construction, exactness, and error reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import DomainViolationError, ValidationError, build_rule, integrate
from entromin.densities import pulse_density
from entromin.quadrature import _reference_rule, nodes_in, refine_rule, uniform_grid


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
    assert integrate(rule, lambda s: 2.0) == pytest.approx(2.0, rel=1e-14)  # broadcast


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

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
    def test_non_finite_interval(self, interval):
        with pytest.raises(ValidationError, match=r"integration interval \[.*\] must be finite"):
            build_rule(interval)


class TestRefineRule:
    RULE = build_rule((0.0, 1.0), (0.5,))

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.0, 0.5), (0.5 - 1e-13, 1.0),
                                       (0.0, 0.5 + 1e-12)])
    def test_rule_itself_when_nothing_is_added(self, lo, hi):
        """Ends at the interval ends or within 1e-12 of a breakpoint add none."""
        assert refine_rule(self.RULE, lo, hi) is self.RULE

    def test_ends_become_breakpoints(self):
        refined = refine_rule(self.RULE, 0.1, 0.5 + 2e-12)
        assert refined.breakpoints == (0.1, 0.5, 0.5 + 2e-12)
        assert (refined.nodes_per_panel, refined.panels_per_segment) == (20, 8)
        assert refine_rule(refined, 0.1, 0.5 + 2e-12) is refined

    def test_nodes_inside_are_the_subinterval_rule(self):
        """On a refined rule the nodes in [lo, hi] are, float for float, the
        rule built on [lo, hi] when no breakpoint lies inside."""
        nodes, weights = nodes_in(refine_rule(self.RULE, 0.1, 0.4), 0.1, 0.4)
        sub = build_rule((0.1, 0.4))
        assert nodes.tobytes() == sub.nodes.tobytes()
        assert weights.tobytes() == sub.weights.tobytes()

    @pytest.mark.parametrize("lo,hi,message", [(0.7, 0.7, "empty subinterval"),
                                               (0.6, 0.2, "empty subinterval"),
                                               (-0.1, 0.5, "not inside"),
                                               (0.5, 1.1, "not inside")])
    def test_bad_subinterval(self, lo, hi, message):
        with pytest.raises(ValidationError, match=message):
            refine_rule(self.RULE, lo, hi)


def test_nonfinite_integrand_carries_node():
    rule = build_rule((0.0, 1.0))

    def bad(s):
        return np.where(s > 0.7, np.inf, 1.0)

    with pytest.raises(DomainViolationError) as err:
        integrate(rule, bad)
    assert err.value.node > 0.7 and err.value.value == np.inf
    assert str(err.value) == f"integrand is inf at node s={err.value.node!r}"


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


def test_rule_holds_its_arrays_read_only():
    """A frozen rule's nodes and weights are read-only: a write raises rather
    than moving every integral taken on the rule."""
    rule = build_rule((0.0, 1.0), (0.5,))
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


FINITE = st.floats(-1e300, 1e300)   # any width between them is finite


def _per_segment_rule(edges, nodes_per_panel, panels_per_segment):
    """Nodes and weights laid out with one np.linspace per segment."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    panels = [np.linspace(a, b, panels_per_segment + 1) for a, b in zip(edges, edges[1:])]
    pa = np.concatenate([p[:-1] for p in panels])
    half = 0.5 * (np.concatenate([p[1:] for p in panels]) - pa)
    return (pa[:, None] + half[:, None] * (ref_x + 1.0)).ravel(), (half[:, None] * ref_w).ravel()


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(FINITE, min_size=2, max_size=6, unique=True).map(sorted),
       nodes_per_panel=st.integers(1, 12), panels_per_segment=st.integers(1, 12))
def test_panels_laid_out_as_linspace_per_segment(edges, nodes_per_panel, panels_per_segment):
    """The one-broadcast panel layout gives a per-segment np.linspace's rule,
    byte for byte, subnormal and huge widths included."""
    rule = build_rule((edges[0], edges[-1]), edges[1:-1], nodes_per_panel, panels_per_segment)
    nodes, weights = _per_segment_rule(edges, nodes_per_panel, panels_per_segment)
    assert rule.nodes.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()


@settings(max_examples=300, deadline=None)
@given(ends=st.lists(FINITE, min_size=2, max_size=2), num=st.integers(2, 3000))
def test_uniform_grid_is_linspace(ends, num):
    """uniform_grid is np.linspace bit for bit, for either order of the ends,
    equal ends and a step that underflows; a column of ends gives each row's."""
    start, stop = ends
    assert uniform_grid(start, stop, num).tobytes() == np.linspace(start, stop, num).tobytes()
    starts, stops = np.array([[start], [stop], [0.0]]), np.array([[stop], [start], [5e-324]])
    rows = uniform_grid(starts, stops, num)
    expected = [np.linspace(a, b, num) for a, b in zip(starts[:, 0], stops[:, 0])]
    assert rows.tobytes() == np.array(expected).tobytes()
