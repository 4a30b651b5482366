"""Entropy/conjugate pairs: closed forms, domains, and convexity checks."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from entromin import (
    DomainViolationError,
    EntropySpec,
    available_entropies,
    builtin_entropy,
    fenchel_young_gap,
)
from entromin.entropies import Interval

ALL_NAMES = available_entropies()

# Sampling boxes keeping magnitudes moderate enough that the analytic
# cancellation in the equality cases stays far below the tolerances.
U_BOX = {
    "l2_norm": (-20.0, 20.0),
    "boltzmann_shannon": (0.0, 20.0),
    "translated_boltzmann_shannon": (0.0, 20.0),
    "burg": (1e-6, 20.0),
    "cosh": (-10.0, 10.0),
    "fermi_dirac": (0.0, 1.0),
}
V_BOX = {
    "l2_norm": (-10.0, 10.0),
    "boltzmann_shannon": (-10.0, 10.0),
    "translated_boltzmann_shannon": (-10.0, 10.0),
    "burg": (-10.0, -1e-6),
    "cosh": (-10.0, 10.0),
    "fermi_dirac": (-10.0, 10.0),
}
# narrower v-range for subgradient (equality) pairs, where u = (f*)'(v)
V_EQ_BOX = {name: (-4.0, 4.0) for name in ALL_NAMES}
V_EQ_BOX["burg"] = (-4.0, -0.05)


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (1.0, 0.0)], ids=["point", "reversed"])
def test_empty_interval_rejected(lo, hi):
    with pytest.raises(ValueError, match="empty interval"):
        Interval(lo, hi)


def test_contains_interval_rejects_a_reversed_pair():
    """[lo, hi] with lo > hi is no interval, so none contains it, even where
    both ends lie inside."""
    domain = Interval(0.0, math.inf)
    assert domain.contains_interval(1.0, 2.0)
    assert not domain.contains_interval(2.0, 1.0)


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="fermi_dirac"):
        builtin_entropy("boltzman")  # misspelled


def test_builtin_names_complete():
    assert ALL_NAMES == (
        "boltzmann_shannon", "burg", "cosh", "fermi_dirac",
        "l2_norm", "translated_boltzmann_shannon",
    )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtin_spec_is_one_shared_frozen_instance(name):
    """Each name gives the one spec built at import, frozen, and complete:
    every conjugate map is set, and no field has a default to fall back on."""
    spec = builtin_entropy(name)
    assert builtin_entropy(name) is spec and spec.name == name
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.f_star = None
    assert all(callable(getattr(spec, attr)) for attr in ("f", "f_star", "f_star_d1", "f_star_d2"))
    assert all(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(EntropySpec))


class TestClosedForms:
    def test_translated_boltzmann_shannon_conjugate_at_zero(self):
        spec = builtin_entropy("translated_boltzmann_shannon")
        assert spec.f_star(0.0) == pytest.approx(1.0, abs=1e-15)      # exp(0)
        assert spec.f_star_d1(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_l2_conjugate_derivative_is_identity(self):
        spec = builtin_entropy("l2_norm")
        v = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(spec.f_star_d1(v), v, atol=1e-15)
        assert spec.f_star_d1(0.0) == 0.0

    def test_fermi_dirac_conjugate_derivative_at_zero(self):
        # d/dv log(1+exp(v)) = exp(v)/(1+exp(v)) -> 1/2 at v=0
        spec = builtin_entropy("fermi_dirac")
        assert spec.f_star_d1(0.0) == pytest.approx(0.5, abs=1e-15)
        h = 1e-6
        fd = (spec.f_star(h) - spec.f_star(-h)) / (2 * h)
        assert fd == pytest.approx(spec.f_star_d1(0.0), rel=1e-9)

    def test_burg_conjugate_derivative(self):
        spec = builtin_entropy("burg")
        v = np.array([-4.0, -2.0, -0.5])
        np.testing.assert_allclose(spec.f_star_d1(v), -1.0 / v, rtol=1e-15)


class TestEvalF:
    def test_entropy_limit_at_zero(self):
        # u*log(u) -> 0 as u -> 0
        assert builtin_entropy("boltzmann_shannon").f(0.0) == 0.0

    def test_outside_domain_is_infinite(self):
        assert builtin_entropy("burg").f(-1.0) == np.inf
        assert builtin_entropy("burg").f(0.0) == np.inf

    def test_fermi_dirac_at_half(self):
        # (1/2)log(1/2) + (1/2)log(1/2) = -log 2
        got = builtin_entropy("fermi_dirac").f(0.5)
        assert got == pytest.approx(-np.log(2.0), rel=1e-15)

    def test_fermi_dirac_endpoint_limits(self):
        spec = builtin_entropy("fermi_dirac")
        assert spec.f(0.0) == 0.0
        assert spec.f(1.0) == 0.0
        assert spec.f(1.5) == np.inf

    def test_vectorized(self):
        spec = builtin_entropy("burg")
        out = spec.f(np.array([-1.0, 1.0, np.e]))
        np.testing.assert_allclose(out, [np.inf, 0.0, -1.0], atol=1e-15)


class TestNumpyForms:
    """u*log(u) and the logistic 1/(1+e^-v), written with numpy alone."""

    def test_endpoint_limits_exact_on_arrays(self):
        np.testing.assert_array_equal(builtin_entropy("fermi_dirac").f(np.array([0.0, 1.0])), 0.0)
        np.testing.assert_array_equal(builtin_entropy("boltzmann_shannon").f(np.array([0.0])), 0.0)

    def test_logistic_saturates_without_warning(self):
        spec = builtin_entropy("fermi_dirac")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in (-800.0, 800.0, np.array([-800.0, 800.0])):
                d1 = spec.f_star_d1(v)
                assert np.all(np.isfinite(d1)) and np.all((0.0 <= d1) & (d1 <= 1.0))
            np.testing.assert_array_equal(spec.f_star_d1(np.array([-800.0, 800.0])), [0.0, 1.0])
            np.testing.assert_array_equal(spec.f_star_d2(np.array([-800.0, 800.0])), 0.0)

    @pytest.mark.parametrize("name,label,v,expected", [
        ("burg", "f_star_d1", -1e-320, np.inf),
        ("burg", "f_star_d2", -1e-200, np.inf),
        ("cosh", "f_star", 1e200, -np.inf),
        ("cosh", "f_star_d2", 1e200, 0.0),
        ("l2_norm", "f_star", 1e200, np.inf),
    ], ids=["burg-d1", "burg-d2", "cosh-f-star", "cosh-d2", "l2-f-star"])
    def test_conjugate_overflow_is_a_value_not_a_warning(self, name, label, v, expected):
        """Overflow and division by zero in a conjugate map, guarded or
        unguarded, give inf, -inf or 0.0 silently: the dual oracle names the
        non-finite value, where a RuntimeWarning raised under warnings-as-errors
        would escape the line search."""
        conjugate = getattr(builtin_entropy(name), label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert conjugate(v) == expected
            np.testing.assert_array_equal(conjugate.__wrapped__(np.array([v, v])), expected)

    def test_logistic_symmetry(self):
        d1 = builtin_entropy("fermi_dirac").f_star_d1
        v = np.linspace(-40.0, 40.0, 801)
        assert np.max(np.abs(d1(v) + d1(-v) - 1.0)) <= 2 * np.spacing(1.0)

    def test_against_math_references(self):
        v = np.linspace(-40.0, 40.0, 801)
        ref = np.array([1.0 / (1.0 + math.exp(-x)) for x in v])
        got = builtin_entropy("fermi_dirac").f_star_d1(v)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))
        u = np.linspace(0.0, 5.0, 501)
        ref = np.array([x * math.log(x) if x > 0 else 0.0 for x in u])
        got = builtin_entropy("boltzmann_shannon").f(u)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


class TestFenchelYoungGap:
    def test_l2_subgradient_pair_is_tight(self):
        assert fenchel_young_gap(builtin_entropy("l2_norm"), 3.0, 3.0) == 0.0

    def test_translated_bs_at_one_zero(self):
        # f(1) = -1, f*(0) = 1, u*v = 0
        got = fenchel_young_gap(builtin_entropy("translated_boltzmann_shannon"), 1.0, 0.0)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_l2_loose_pair(self):
        # 1/2 + 9/2 - 3 = 2
        assert fenchel_young_gap(builtin_entropy("l2_norm"), 1.0, 3.0) == pytest.approx(2.0)

    def test_out_of_domain_u_named(self):
        with pytest.raises(DomainViolationError, match="u="):
            fenchel_young_gap(builtin_entropy("burg"), -1.0, -1.0)

    def test_out_of_domain_v_named(self):
        with pytest.raises(DomainViolationError) as err:
            fenchel_young_gap(builtin_entropy("burg"), 1.0, 0.5)
        assert err.value.argument == "f_star"
        assert err.value.value == pytest.approx(0.5)


def _sample(rng, box, size):
    lo, hi = box
    return lo + (hi - lo) * rng.random(size)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gap_nonnegative_on_sampled_pairs(name):
    spec = builtin_entropy(name)
    rng = np.random.default_rng(1234)
    u = _sample(rng, U_BOX[name], 10_000)
    v = _sample(rng, V_BOX[name], 10_000)
    gap = fenchel_young_gap(spec, u, v)
    assert float(np.min(gap)) >= -1e-12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gap_vanishes_at_subgradient_pairs(name):
    spec = builtin_entropy(name)
    rng = np.random.default_rng(99)
    v = _sample(rng, V_EQ_BOX[name], 2_000)
    u = spec.f_star_d1(v)
    gap = fenchel_young_gap(spec, u, v)
    assert float(np.max(np.abs(gap))) <= 1e-8


@pytest.mark.parametrize("name", ALL_NAMES)
def test_conjugate_derivatives_match_finite_differences(name):
    spec = builtin_entropy(name)
    rng = np.random.default_rng(7)
    v = _sample(rng, V_EQ_BOX[name], 200)
    h = 1e-6 * np.maximum(1.0, np.abs(v))
    d1_fd = (spec.f_star(v + h) - spec.f_star(v - h)) / (2 * h)
    d1 = spec.f_star_d1(v)
    assert np.max(np.abs(d1_fd - d1) / np.maximum(1.0, np.abs(d1))) <= 1e-6
    d2_fd = (spec.f_star_d1(v + h) - spec.f_star_d1(v - h)) / (2 * h)
    d2 = spec.f_star_d2(v)
    assert np.max(np.abs(d2_fd - d2) / np.maximum(1.0, np.abs(d2))) <= 1e-6


@pytest.mark.parametrize("name", ALL_NAMES)
def test_conjugate_derivative_nondecreasing(name):
    spec = builtin_entropy(name)
    lo, hi = V_BOX[name]
    v = np.linspace(lo, hi, 5001)
    d1 = spec.f_star_d1(v)
    assert np.all(np.diff(d1) >= -1e-12)


class TestBurgConjugateDomain:
    def test_error_not_infinity_at_nonnegative(self):
        spec = builtin_entropy("burg")
        for bad in (0.0, 0.5, 3.0):
            with pytest.raises(DomainViolationError):
                spec.f_star(bad)
            with pytest.raises(DomainViolationError):
                spec.f_star_d1(bad)

    def test_vectorized_violation_flags_offender(self):
        spec = builtin_entropy("burg")
        with pytest.raises(DomainViolationError) as err:
            spec.f_star(np.array([-1.0, -0.5, 0.25]))
        assert err.value.value == pytest.approx(0.25)


def test_cosh_conjugate_matches_brute_force_maximization():
    """The closed form must agree with a direct sup over a dense u-grid.

    This pins the leading factor of v in v*arcsinh(v) - sqrt(1+v^2); the
    variant without it is off by whole units away from v = 0.
    """
    spec = builtin_entropy("cosh")
    u = np.linspace(-30.0, 30.0, 2_000_001)
    cosh_u = np.cosh(u)
    for v in (-3.0, -1.0, -0.3, 0.0, 0.5, 2.0, 7.0):
        brute = float(np.max(u * v - cosh_u))
        assert spec.f_star(v) == pytest.approx(brute, abs=1e-7)
        if v not in (0.0,):
            wrong = float(np.arcsinh(v) - np.sqrt(1 + v * v))
            assert abs(wrong - brute) > 1e-2  # the misquoted form really is wrong
