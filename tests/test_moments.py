"""Moment families, the moment map, and independence through the Gram matrix."""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entromin import (
    ValidationError,
    build_core_certificate,
    build_rule,
    builtin_entropy,
    find_margin_interval,
    instance_from_density,
    linearly_independent_on,
    moment_vector,
    monomial_basis,
    piecewise_flat_basis,
    tabulated_basis,
)
from entromin.densities import Density, constant_density, pulse_density, tabulated_density
from entromin.errors import DomainViolationError
from entromin.moments import INDEPENDENCE_TOL, MomentBasis, ProblemInstance, weighted_gram
from entromin.quadrature import integrate_values, nodes_in, refine_rule

RULE = build_rule((0.0, 1.0), (0.5,))


def hilbert(n):
    i = np.arange(1, n + 1)
    return 1.0 / (i[:, None] + i[None, :] - 1.0)


def gram(basis, sub=(0.0, 1.0)):
    """The Gram matrix `linearly_independent_on` decides on: the a_k on the
    nodes in `sub` of RULE refined at its ends."""
    nodes, weights = nodes_in(refine_rule(RULE, *sub), *sub)
    return weighted_gram(basis(nodes), weights)


class TestMonomialBasis:
    def test_single_constant(self):
        report = linearly_independent_on(monomial_basis(1), RULE, (0.0, 1.0))
        assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-14)

    def test_gram_is_hilbert(self):
        basis = monomial_basis(3)
        np.testing.assert_allclose(weighted_gram(basis(RULE.nodes), RULE.weights), hilbert(3),
                                   atol=1e-14)

    def test_two_by_two_smallest_eigenvalue(self):
        # eigenvalue formula on [[1, 1/2], [1/2, 1/3]]:
        # (1 + 1/3)/2 - sqrt((1 - 1/3)^2/4 + 1/4) = 2/3 - sqrt(13)/6
        report = linearly_independent_on(monomial_basis(2), RULE, (0.0, 1.0))
        expected = 2.0 / 3.0 - np.sqrt(13.0) / 6.0
        assert report.min_eigenvalue == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0657, abs=5e-5)

    def test_zero_size_rejected(self):
        with pytest.raises(ValidationError):
            monomial_basis(0)


class TestPiecewiseFlatBasis:
    def test_first_function_constant_everywhere(self):
        basis = piecewise_flat_basis(1, 0.5)
        s = np.linspace(0, 1, 101)
        np.testing.assert_allclose(basis(s)[0], 1.0)

    def test_second_function_integral(self):
        basis = piecewise_flat_basis(2, 0.5)
        rule = build_rule((0.0, 1.0), basis.breakpoints)
        total = moment_vector(basis, rule, lambda s: np.ones_like(s))
        assert total[1] == pytest.approx(5.0 / 8.0, abs=1e-15)

    def test_jump_at_split(self):
        # left branch value 1/2, right branch 1: jump of magnitude 1/2
        basis = piecewise_flat_basis(2, 0.5)
        assert float(basis(0.5)[1]) == pytest.approx(0.5)
        assert float(basis(0.5 + 1e-12)[1]) == pytest.approx(1.0)

    def test_zero_size_rejected(self):
        with pytest.raises(ValidationError, match="at least one moment function"):
            piecewise_flat_basis(0, 0.5)

    def test_split_outside_interval_rejected(self):
        with pytest.raises(ValidationError):
            piecewise_flat_basis(2, 1.5)
        with pytest.raises(ValidationError):
            piecewise_flat_basis(2, 0.0)


class TestMomentVector:
    def test_pulse_moments_monomial(self):
        # b_k = integral of s^(k-1) over [0, 1/2] = (1/2)^k / k
        basis = monomial_basis(3)
        got = moment_vector(basis, RULE, pulse_density(0.5))
        np.testing.assert_allclose(got, [0.5, 0.125, 1.0 / 24.0], atol=1e-15)

    def test_pulse_moments_piecewise_same(self):
        # the pulse vanishes where the branches differ
        basis = piecewise_flat_basis(3, 0.5)
        got = moment_vector(basis, RULE, pulse_density(0.5))
        np.testing.assert_allclose(got, [0.5, 0.125, 1.0 / 24.0], atol=1e-15)

    def test_zero_density(self):
        basis = monomial_basis(4)
        got = moment_vector(basis, RULE, lambda s: np.zeros_like(s))
        np.testing.assert_allclose(got, 0.0, atol=1e-16)

    def test_linearity(self):
        basis = piecewise_flat_basis(3, 0.5)
        rng = np.random.default_rng(5)
        lam = 0.7318
        x = lambda s: np.sin(3 * s)
        y = lambda s: np.exp(-s)
        lhs = moment_vector(basis, RULE, lambda s: x(s) + lam * y(s))
        rhs = moment_vector(basis, RULE, x) + lam * moment_vector(basis, RULE, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_non_finite_product_names_first_node(self):
        bad = RULE.nodes[[37, 100]]
        density = lambda s: np.where(np.isin(s, bad), np.nan, 1.0)
        with pytest.raises(DomainViolationError, match="integrand is") as err:
            moment_vector(monomial_basis(3), RULE, density)
        assert err.value.node == bad[0]


def _moments_per_row(basis, rule, x):
    """The moment map one row at a time, each row checked and summed alone."""
    xv = np.asarray(x(rule.nodes), dtype=float)
    return np.array([integrate_values(rule, row * xv) for row in basis(rule.nodes)])


@pytest.mark.parametrize("rho", [pulse_density(0.5), constant_density(0.5)],
                         ids=["pulse", "constant"])
@pytest.mark.parametrize("basis", [monomial_basis(6), piecewise_flat_basis(6, 0.5),
                                   monomial_basis(16), piecewise_flat_basis(16, 0.5)],
                         ids=["monomial6", "piecewise6", "monomial16", "piecewise16"])
def test_instance_moments_replay_per_row_quadrature(basis, rho):
    """The instance's one design gives the target moments, bit for bit, of
    the row-by-row moment map on a design of its own."""
    rule = build_rule((0.0, 1.0), (0.5,), 20, 32)
    inst = instance_from_density(builtin_entropy("l2_norm"), basis, rule, rho)
    expected = _moments_per_row(basis, rule, rho)
    assert inst.target_moments.tobytes() == expected.tobytes()
    assert moment_vector(basis, rule, rho).tobytes() == expected.tobytes()
    assert inst.design.tobytes() == basis(rule.nodes).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_piecewise_flat_masks_before_the_power(dtype):
    """Each row is one power of the grid with the flat side set to 1, in the
    grid's dtype and equal to the power taken everywhere and replaced by 1
    there (bit for bit in float64)."""
    split = 0.5
    s = np.concatenate([np.linspace(-0.5, 1.5, 321), RULE.nodes, [split, 7.0]]).astype(dtype)
    basis = piecewise_flat_basis(12, split)
    for k, row in enumerate(basis(s)):
        expected = np.where(s <= split, s ** k, np.ones_like(s))
        assert row.dtype == dtype
        np.testing.assert_array_equal(row, expected, err_msg=str(k), strict=True)
        if dtype == np.float64:  # long double pads its 80 bits with arbitrary bytes
            assert row.tobytes() == expected.tobytes(), k


SPLIT = 0.5
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
_POINTS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.one_of(
        st.sampled_from([np.nextafter(SPLIT, -np.inf), SPLIT, np.nextafter(SPLIT, np.inf)]),
        st.floats(-3.0, 3.0))),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-3, 3)),
)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    """A tabulated family of five columns, one with a kink at the split."""
    s = np.linspace(0.0, 1.0, 21)
    path = tmp_path_factory.mktemp("table") / "basis.txt"
    np.savetxt(path, np.column_stack([s] + [s ** k for k in range(4)]
                                     + [np.where(s <= SPLIT, s, 1.0 - s)]))
    return path


def _per_function_design(kind, n, s, table_path):
    """The design one function at a time: s ** k per row, np.where then the
    power, or np.interp per column, stacked."""
    if kind == "monomial":
        return np.stack([np.asarray(s) ** k for k in range(n)])
    if kind == "piecewise_flat":
        return np.stack([np.where(np.asarray(s) <= SPLIT, s, 1) ** k for k in range(n)])
    data = np.loadtxt(table_path)
    return np.stack([np.interp(np.asarray(s, dtype=float), data[:, 0], data[:, c])
                     for c in range(1, n + 1)])


@pytest.mark.parametrize("kind", ["monomial", "piecewise_flat", "tabulated"])
@given(s=_POINTS, n=st.integers(1, 12))
def test_basis_call_is_the_per_function_design(table_path, kind, s, n):
    """Calling a built-in family gives, byte for byte and in shape and
    dtype, the stack of its functions evaluated one at a time."""
    basis = {"monomial": lambda: monomial_basis(n),
             "piecewise_flat": lambda: piecewise_flat_basis(n, SPLIT),
             "tabulated": lambda: tabulated_basis(table_path)}[kind]()
    got = basis(s)
    expected = _per_function_design(kind, basis.n, s, table_path)
    assert got.shape == expected.shape == (basis.n,) + s.shape
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_piecewise_flat_call_builds_one_mask(monkeypatch):
    """One call of a piecewise_flat family masks its points once, not once
    per function."""
    basis, where, masks = piecewise_flat_basis(6, SPLIT), np.where, []
    monkeypatch.setattr(np, "where", lambda *args: masks.append(args) or where(*args))
    basis(RULE.nodes)
    assert len(masks) == 1


class TestGramMatrix:
    """The Gram matrix the independence test decides on, from `weighted_gram`
    on the refined rule's nodes in the subinterval (`gram`)."""

    def test_monomials_full_interval(self):
        np.testing.assert_allclose(gram(monomial_basis(2), (0.0, 1.0)),
                                   [[1.0, 0.5], [0.5, 1.0 / 3.0]], atol=1e-14)

    def test_monomials_left_half(self):
        np.testing.assert_allclose(gram(monomial_basis(2), (0.0, 0.5)),
                                   [[0.5, 0.125], [0.125, 1.0 / 24.0]], atol=1e-15)

    def test_piecewise_right_half_rank_one(self):
        right = gram(piecewise_flat_basis(2, 0.5), (0.5, 1.0))
        np.testing.assert_allclose(right, 0.5 * np.ones((2, 2)), atol=1e-14)
        assert np.linalg.matrix_rank(right, tol=1e-10) == 1

    def test_empty_subinterval_rejected(self):
        with pytest.raises(ValidationError):
            linearly_independent_on(monomial_basis(2), RULE, (0.7, 0.7))

    @pytest.mark.parametrize("sub", [(0.0, 1.0), (0.1, 0.45), (0.3, 0.7)])
    def test_given_design_gives_the_same_gram(self, sub):
        """The a_k at the refined rule's nodes in the subinterval, passed in,
        give the independence report, bit for bit, whose smallest eigenvalue
        and threshold are those of `gram`, bit for bit."""
        basis = piecewise_flat_basis(4, 0.5)
        design = basis(nodes_in(refine_rule(RULE, *sub), *sub)[0])
        report = linearly_independent_on(basis, RULE, sub, design)
        assert report == linearly_independent_on(basis, RULE, sub)
        expected = gram(basis, sub)
        assert report.min_eigenvalue == float(np.linalg.eigvalsh(expected)[0])
        assert report.threshold == INDEPENDENCE_TOL * float(np.trace(expected)) / 4

    @pytest.mark.parametrize("make", [
        lambda: monomial_basis(4),
        lambda: piecewise_flat_basis(4, 0.5),
    ])
    @pytest.mark.parametrize("sub", [(0.0, 1.0), (0.1, 0.45), (0.5, 1.0)])
    def test_symmetric_psd(self, make, sub):
        matrix = gram(make(), sub)
        np.testing.assert_allclose(matrix, matrix.T, atol=0.0)
        assert np.linalg.eigvalsh(matrix)[0] >= -1e-10
        assert linearly_independent_on(make(), RULE, sub).min_eigenvalue >= -1e-10


class TestIndependence:
    def test_monomials_on_left_half(self):
        report = linearly_independent_on(monomial_basis(4), RULE, (0.0, 0.5))
        assert report.independent
        assert report.min_eigenvalue > 0

    def test_piecewise_on_right_half_dependent(self):
        report = linearly_independent_on(piecewise_flat_basis(2, 0.5), RULE, (0.5, 1.0))
        assert not report.independent

    def test_single_nonzero_function(self):
        report = linearly_independent_on(monomial_basis(1), RULE, (0.2, 0.8))
        assert report.independent

    def test_piecewise_left_vs_right(self):
        """Independent on initial pieces, dependent past the split: exactly
        the freedom interval-local certificates exploit.

        For six functions the scaled-Hilbert Gram conditioning grows so
        fast as the interval shrinks that below width ~0.35 the smallest
        eigenvalue sinks under the scale-free threshold and the numerical
        surrogate (correctly) declines to certify; the decidable widths
        are tested here.
        """
        widths = {2: (0.1, 0.3, 0.5), 4: (0.1, 0.3, 0.5), 6: (0.4, 0.45, 0.5)}
        for n, his in widths.items():
            basis = piecewise_flat_basis(n, 0.5)
            for hi in his:
                assert linearly_independent_on(basis, RULE, (0.0, hi)).independent
            assert not linearly_independent_on(basis, RULE, (0.5, 1.0)).independent

    def test_threshold_is_the_module_tolerance_of_trace_over_n(self):
        basis = monomial_basis(3)
        report = linearly_independent_on(basis, RULE, (0.0, 0.5))
        assert report.threshold == INDEPENDENCE_TOL * float(np.trace(gram(basis, (0.0, 0.5)))) / 3


class TestTabulatedBasis(object):
    def test_roundtrip_with_breakpoints(self, tmp_path):
        s = np.linspace(0, 1, 201)
        a1 = np.ones_like(s)
        a2 = np.where(s <= 0.5, s, 1.0)
        path = tmp_path / "basis.txt"
        rows = np.column_stack([s, a1, a2])
        header = "# breakpoints: 0.5\n"
        with open(path, "w") as fh:
            fh.write(header)
            np.savetxt(fh, rows)
        basis = tabulated_basis(path)
        assert basis.n == 2
        assert basis.breakpoints == (0.5,)
        probe = np.array([0.25, 0.75])
        np.testing.assert_allclose(basis(probe)[1], [0.25, 1.0], atol=1e-12)

    def test_decreasing_s_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        np.savetxt(path, [[0.0, 1.0], [0.5, 1.0], [0.4, 1.0]])
        with pytest.raises(ValidationError):
            tabulated_basis(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.txt"
        np.savetxt(path, [[0.0, 1.0, 0.0], [0.5, 1.0, bad], [1.0, 1.0, 1.0]])
        with pytest.raises(ValidationError, match="finite"):
            tabulated_basis(path)

    @pytest.mark.parametrize("load", [tabulated_basis, tabulated_density])
    def test_directory_is_a_validation_error_naming_it(self, tmp_path, load):
        """A path that exists but cannot be read as a file is the loader's
        ValidationError naming it, not a raw OSError."""
        with pytest.raises(ValidationError, match="cannot read") as err:
            load(tmp_path)
        assert str(err.value).startswith(f"{tmp_path}: ")


class TestProblemInstance:
    def test_breakpoint_coverage_enforced(self):
        basis = piecewise_flat_basis(2, 0.5)
        bare_rule = build_rule((0.0, 1.0))  # no breakpoints
        with pytest.raises(ValidationError):
            ProblemInstance(builtin_entropy("l2_norm"), basis, bare_rule, np.zeros(2))

    @pytest.mark.parametrize("header,covered", [
        ("0", True), ("1", True), ("0, 1", True), ("-0.5 2", True), ("0 0.3", False),
    ])
    def test_breakpoints_inside_the_interval_must_be_covered(self, tmp_path, header, covered):
        """Only basis breakpoints strictly inside the interval, the ones
        merge_breakpoints keeps, must be rule breakpoints; an end or a point
        outside is none."""
        s = np.linspace(0.0, 1.0, 11)
        path = tmp_path / "basis.txt"
        with open(path, "w") as fh:
            fh.write(f"# breakpoints: {header}\n")
            np.savetxt(fh, np.column_stack([s, np.ones_like(s), s]))
        basis = tabulated_basis(path)
        entropy, rho = builtin_entropy("l2_norm"), pulse_density(0.5)
        if covered:
            inst = instance_from_density(entropy, basis, RULE, rho)
            assert inst.rule.breakpoints == (0.5,)
        else:
            with pytest.raises(ValidationError, match=r"do not cover basis breakpoints \[0.3\]"):
                instance_from_density(entropy, basis, RULE, rho)

    @pytest.mark.parametrize("split", [0.3, 1.0])
    def test_density_breakpoints_inside_the_interval_must_be_covered(self, split):
        """A density jump inside the interval must be a rule breakpoint, as a
        basis one must: on a rule without it the target moments would be off
        (0.30295 for the pulse's 0.3).  A jump at an end is none."""
        entropy, basis = builtin_entropy("l2_norm"), monomial_basis(4)
        bare_rule = build_rule((0.0, 1.0))
        rho = pulse_density(split)
        if split == 1.0:
            np.testing.assert_allclose(
                instance_from_density(entropy, basis, bare_rule, rho).target_moments,
                [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-14)
            return
        with pytest.raises(ValidationError, match=r"do not cover density breakpoints \[0.3\]"):
            instance_from_density(entropy, basis, bare_rule, rho)
        inst = instance_from_density(entropy, basis, build_rule((0.0, 1.0), (0.3,)), rho)
        np.testing.assert_allclose(inst.target_moments, [0.3, 0.045, 0.009, 0.002025],
                                   rtol=1e-13)

    def test_target_moment_shape_enforced(self):
        basis = monomial_basis(2)
        with pytest.raises(ValidationError):
            ProblemInstance(builtin_entropy("l2_norm"), basis, RULE, np.zeros(3))

    def test_nonfinite_targets_rejected(self):
        basis = monomial_basis(2)
        with pytest.raises(ValidationError):
            ProblemInstance(builtin_entropy("l2_norm"), basis, RULE, np.array([1.0, np.nan]))

    def test_from_density(self):
        inst = instance_from_density(
            builtin_entropy("l2_norm"), monomial_basis(2), RULE, pulse_density(0.5)
        )
        np.testing.assert_allclose(inst.target_moments, [0.5, 0.125], atol=1e-15)
        assert inst.design.shape == (2, RULE.nodes.size)

    def test_frozen_so_checks_and_design_hold(self):
        """Assigning a field or writing into its arrays would skip the checks
        (a NaN target) or leave the design of another rule; an instance is
        frozen with read-only arrays, and `replace` builds a checked one with
        its own design."""
        inst = instance_from_density(
            builtin_entropy("l2_norm"), monomial_basis(3), RULE, pulse_density(0.5)
        )
        for name, value in (("target_moments", [np.nan, 1.0, 2.0]),
                            ("rule", build_rule((0.0, 2.0), (0.5,))),
                            ("design", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, name, value)
        with pytest.raises(ValueError, match="read-only"):
            inst.target_moments[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            inst.design[:] = 0
        assert np.isfinite(inst.target_moments).all() and inst.design.any()
        design = monomial_basis(3)(RULE.nodes)
        held = dataclasses.replace(inst, design=design)  # a view, not a copy or a lock
        assert np.shares_memory(held.design, design) and design.flags.writeable
        with pytest.raises(ValidationError, match="finite"):
            dataclasses.replace(inst, target_moments=[np.nan, 1.0, 2.0])
        wider = build_rule((0.0, 2.0), (0.5,))
        moved = dataclasses.replace(inst, rule=wider, design=None)
        assert moved.design.tobytes() == monomial_basis(3)(wider.nodes).tobytes()


@pytest.mark.parametrize("basis,interval", [
    (monomial_basis(4), (0.0, 1.0)),
    (piecewise_flat_basis(5, 0.5), (0.0, 1.0)),
    (monomial_basis(3), (0.0, 2.0)),
])
def test_design_finite_at_nodes(basis, interval):
    rule = build_rule(interval, basis.breakpoints)
    values = basis(rule.nodes)
    assert np.all(np.isfinite(values))


def test_design_preserves_longdouble():
    basis = piecewise_flat_basis(3, 0.5)
    s = np.linspace(0, 1, 7).astype(np.longdouble)
    out = basis(s)
    assert out.dtype == np.longdouble


@pytest.mark.parametrize("split", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_pulse_split_must_be_finite(split):
    """Against a nan split `s <= split` is false everywhere, so the pulse
    would be 0 on the whole interval; an infinite one, 1 or 0 everywhere."""
    with pytest.raises(ValidationError, match="pulse split must be finite"):
        pulse_density(split)


def test_families_and_densities_store_only_what_is_read():
    """A family is its size, its design and its non-smooth points, a density
    its map and its jumps; no kind or interval is kept beside them."""
    assert [f.name for f in dataclasses.fields(MomentBasis)] == ["n", "rows", "breakpoints"]
    assert [f.name for f in dataclasses.fields(Density)] == ["fn", "breakpoints"]


@pytest.mark.parametrize("fn,params", [
    (monomial_basis, ["n"]),
    (piecewise_flat_basis, ["n", "split", "interval=(0.0, 1.0)"]),   # the split is checked
    (tabulated_basis, ["path"]),
    (linearly_independent_on, ["basis", "rule", "subinterval", "design=None"]),
    (weighted_gram, ["design", "weights"]),
    (find_margin_interval, ["x", "lower", "upper", "rule", "min_width=None"]),
    (build_core_certificate, ["instance", "x", "lower", "upper", "min_width=None"]),
], ids=["monomial", "piecewise_flat", "tabulated", "independence", "gram", "margin_scan",
        "core"])
def test_no_setting_that_nothing_reads(fn, params):
    """The parameters and their defaults, annotations aside."""
    parameters = inspect.signature(fn).parameters.values()
    assert [str(p.replace(annotation=p.empty)) for p in parameters] == params
