"""Dual objective, derivatives, and the damped Newton solve."""

import dataclasses

import numpy as np
import pytest

from entromin import (
    DomainViolationError,
    Interval,
    ValidationError,
    build_rule,
    builtin_entropy,
    constant_density,
    dual_gradient,
    dual_hessian,
    dual_value,
    instance_from_density,
    monomial_basis,
    piecewise_flat_basis,
    pulse_density,
    solve_dual,
)
from entromin import dual
from entromin.dual import _REG_START, IterationRecord, _newton_direction, default_start
from entromin.moments import ProblemInstance

RULE = build_rule((0.0, 1.0), (0.5,))


def single_constraint(entropy_name, b=0.5):
    """a_1 identically 1 on [0,1] with a prescribed first moment."""
    return instance_from_density(
        builtin_entropy(entropy_name), monomial_basis(1), RULE, constant_density(b)
    )


def pulse_instance(entropy_name, n):
    return instance_from_density(
        builtin_entropy(entropy_name), monomial_basis(n), RULE, pulse_density(0.5)
    )


class TestDualValue:
    def test_l2_closed_form(self):
        # phi*b - integral of (phi^2/2): 1/4 - 1/8
        inst = single_constraint("l2_norm")
        assert dual_value(inst, [0.5]) == pytest.approx(0.125, abs=1e-14)

    @pytest.mark.parametrize("name", ["l2_norm", "boltzmann_shannon",
                                      "translated_boltzmann_shannon", "cosh", "fermi_dirac"])
    def test_zero_multipliers_give_minus_conjugate_at_zero(self, name):
        inst = single_constraint(name)
        expected = -float(inst.entropy.f_star(0.0))  # interval has length 1
        assert dual_value(inst, [0.0]) == pytest.approx(expected, rel=1e-13)

    def test_translated_bs_closed_form(self):
        inst = single_constraint("translated_boltzmann_shannon")
        phi = np.log(0.5)
        expected = 0.5 * np.log(0.5) - 0.5  # phi*b - integral of e^phi
        assert dual_value(inst, [phi]) == pytest.approx(expected, rel=1e-13)

    def test_domain_violation_carries_node(self):
        inst = single_constraint("burg")
        with pytest.raises(DomainViolationError) as err:
            dual_value(inst, [0.5])  # dual field positive everywhere
        assert err.value.node is not None

    def test_zero_multipliers_scale_with_interval_length(self):
        # on [0, tau] the zero-multiplier dual value is -tau * f*(0)
        rule2 = build_rule((0.0, 2.0))
        inst = instance_from_density(
            builtin_entropy("translated_boltzmann_shannon"),
            monomial_basis(1), rule2, constant_density(0.5),
        )
        assert dual_value(inst, [0.0]) == pytest.approx(-2.0, rel=1e-13)
        solution = solve_dual(inst)
        # e^mu * tau = b * tau  ->  same mu as on the unit interval
        assert solution.multipliers[0] == pytest.approx(np.log(0.5), abs=1e-9)


class TestDualGradient:
    def test_l2_stationary_at_half(self):
        inst = single_constraint("l2_norm")
        np.testing.assert_allclose(dual_gradient(inst, [0.5]), [0.0], atol=1e-15)

    def test_translated_bs_stationary_at_log_half(self):
        inst = single_constraint("translated_boltzmann_shannon")
        np.testing.assert_allclose(dual_gradient(inst, [np.log(0.5)]), [0.0], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_finite_differences(self, n):
        inst = pulse_instance("translated_boltzmann_shannon", n)
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi = rng.uniform(-0.5, 0.5, n)
            grad = dual_gradient(inst, phi)
            fd = np.empty(n)
            for k in range(n):
                h = 1e-6
                e = np.zeros(n)
                e[k] = h
                fd[k] = (dual_value(inst, phi + e) - dual_value(inst, phi - e)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(fd - grad)) / scale <= 1e-5


class TestDualHessian:
    def test_l2_hessian_is_negative_gram(self):
        inst = pulse_instance("l2_norm", 2)
        expected = -np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
        for phi in ([0.0, 0.0], [0.3, -1.2]):
            np.testing.assert_allclose(dual_hessian(inst, phi), expected, atol=1e-14)

    def test_translated_bs_at_zero(self):
        inst = single_constraint("translated_boltzmann_shannon")
        np.testing.assert_allclose(dual_hessian(inst, [0.0]), [[-1.0]], rtol=1e-13)

    def test_exact_symmetry(self):
        inst = pulse_instance("translated_boltzmann_shannon", 4)
        hess = dual_hessian(inst, np.array([0.1, -0.3, 0.2, 0.05]))
        np.testing.assert_array_equal(hess, hess.T)

    def test_matches_finite_differences_of_gradient(self):
        inst = pulse_instance("translated_boltzmann_shannon", 3)
        rng = np.random.default_rng(23)
        for _ in range(10):
            phi = rng.uniform(-0.5, 0.5, 3)
            hess = dual_hessian(inst, phi)
            fd = np.empty((3, 3))
            for k in range(3):
                h = 1e-6
                e = np.zeros(3)
                e[k] = h
                fd[:, k] = (dual_gradient(inst, phi + e) - dual_gradient(inst, phi - e)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(hess))))
            assert np.max(np.abs(fd - hess)) / scale <= 1e-4

    def test_concavity(self):
        inst = pulse_instance("translated_boltzmann_shannon", 4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            phi = rng.uniform(-0.5, 0.5, 4)
            assert np.linalg.eigvalsh(dual_hessian(inst, phi))[-1] <= 1e-10


# (entropy, target b, optimal multiplier); each derived by hand from (f*)':
#   l2:    (f*)'(v) = v          -> mu = 1/2
#   BS:    (f*)'(v) = e^(v-1)    -> mu = 1 - log 2
#   tBS:   (f*)'(v) = e^v        -> mu = log(1/2)
#   burg:  (f*)'(v) = -1/v       -> mu = -2
#   cosh:  (f*)'(v) = arcsinh(v) -> mu = sinh(1/2)
#   FD:    (f*)'(v) = expit(v)   -> mu = 0
CLOSED_FORM = [
    ("l2_norm", 0.5, 0.5),
    ("boltzmann_shannon", 0.5, 1.0 - np.log(2.0)),
    ("translated_boltzmann_shannon", 0.5, np.log(0.5)),
    ("burg", 0.5, -2.0),
    ("cosh", 0.5, np.sinh(0.5)),
    ("fermi_dirac", 0.5, 0.0),
]


class TestSolveDual:
    @pytest.mark.parametrize("name,b,mu_star", CLOSED_FORM)
    def test_single_constraint_closed_forms(self, name, b, mu_star):
        solution = solve_dual(single_constraint(name, b))
        assert solution.converged
        assert solution.iterations <= 25
        assert abs(solution.multipliers[0] - mu_star) <= 1e-9

    def test_l2_converges_in_two_newton_steps(self):
        solution = solve_dual(single_constraint("l2_norm"))
        assert solution.converged and solution.iterations <= 2

    def test_solution_holds_its_multipliers_read_only(self):
        """A write into the multipliers of a frozen solution raises, rather
        than leaving its residual and dual value audits of other numbers."""
        solution = solve_dual(pulse_instance("translated_boltzmann_shannon", 4))
        with pytest.raises(ValueError, match="read-only"):
            solution.multipliers[0] += 1.0
        assert solution.converged

    def test_trace_values_nondecreasing(self):
        solution = solve_dual(pulse_instance("translated_boltzmann_shannon", 4))
        values = [row.dual_value for row in solution.trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert solution.trace[0].iteration == 0 and solution.trace[0].step == 0.0

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pulse_benchmark_residuals(self, n):
        solution = solve_dual(pulse_instance("translated_boltzmann_shannon", n))
        assert solution.converged
        assert solution.residual_inf <= 1e-8

    @pytest.mark.parametrize("n", [2, 4])
    def test_resolution_robustness(self, n):
        base = solve_dual(pulse_instance("translated_boltzmann_shannon", n))
        fine_rule = build_rule((0.0, 1.0), (0.5,), panels_per_segment=16)
        fine_inst = instance_from_density(
            builtin_entropy("translated_boltzmann_shannon"),
            monomial_basis(n), fine_rule, pulse_density(0.5),
        )
        fine = solve_dual(fine_inst)
        assert np.max(np.abs(base.multipliers - fine.multipliers)) <= 1e-6

    def test_zero_iteration_budget(self):
        solution = solve_dual(single_constraint("l2_norm"), max_iter=0)
        assert not solution.converged
        assert solution.iterations == 0
        assert "budget" in solution.message

    def test_tolerance_below_rounding_stalls_the_line_search(self):
        """A tolerance no float64 residual reaches: once no step along the
        Newton direction lowers the residual (the rounding regime), the
        search runs down to its smallest step and the solve stops on a named
        stall, well inside its budget, at the last accepted iterate."""
        solution = solve_dual(pulse_instance("boltzmann_shannon", 2), tol=1e-300)
        assert not solution.converged
        assert solution.message == f"line search stalled at residual {solution.residual_inf:.3e}"
        assert solution.iterations == len(solution.trace) - 1 < dual.DEFAULT_MAX_ITER
        assert 0.0 < solution.residual_inf <= 1e-15
        assert solution.trace[-1].residual_inf == solution.residual_inf

    def test_burg_automatic_start(self):
        # the conjugate domain excludes 0, so the start makes the field -1
        solution = solve_dual(single_constraint("burg"))
        assert solution.converged
        assert solution.multipliers[0] == pytest.approx(-2.0, abs=1e-9)

    def test_infeasible_phi0_raises(self):
        with pytest.raises(DomainViolationError):
            solve_dual(single_constraint("burg"), phi0=[1.0])

    def test_bad_shapes_and_tolerances(self):
        inst = single_constraint("l2_norm")
        with pytest.raises(ValidationError):
            solve_dual(inst, phi0=[1.0, 2.0])
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                solve_dual(inst, tol=tol)
        with pytest.raises(ValidationError):
            solve_dual(inst, max_iter=-1)

    def test_burg_requires_constant_first_function_for_auto_start(self):
        # a_1(s) = s is not identically 1: no safe automatic start exists
        basis = monomial_basis(2)
        shifted = instance_from_density(
            builtin_entropy("burg"),
            type(basis)(n=2, rows=lambda s: basis(s)[::-1]),
            RULE, constant_density(0.5),
        )
        with pytest.raises(ValidationError, match="phi0"):
            solve_dual(shifted)


class TestRoundingRegime:
    """Near the optimum the predicted ascent of a Newton step sits at the
    rounding level of D, so comparing dual values compares rounding errors;
    the line search then accepts on a lower residual instead."""

    # constant density 0.5 on 1280 nodes; under value-only acceptance burg
    # monomial n=2 and, with numpy's Cholesky, burg piecewise_flat n=8 spend
    # 100 iterations in steps too short to move the residual
    CASES = {
        "burg-monomial2": ("burg", monomial_basis(2), build_rule((0.0, 1.0), (), 20, 64)),
        "tbs-monomial6": ("translated_boltzmann_shannon", monomial_basis(6),
                          build_rule((0.0, 1.0), (), 20, 64)),
        "burg-flat8": ("burg", piecewise_flat_basis(8, 0.5), build_rule((0.0, 1.0), (0.5,), 20, 32)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_converges_without_stalling(self, case):
        name, basis, rule = self.CASES[case]
        inst = instance_from_density(builtin_entropy(name), basis, rule, constant_density(0.5))
        solution = solve_dual(inst)
        assert solution.converged and solution.iterations <= 10
        values = [row.dual_value for row in solution.trace]
        eps = np.finfo(float).eps
        assert all(b >= a - 8 * eps * max(1.0, abs(a)) for a, b in zip(values, values[1:]))

    def test_rounding_scale_reads_the_cancellation_in_d(self):
        """D = <phi, b> - integral of f*(v) cancels on tBS monomial n=8 on the
        pulse: at the optimum its rounding scale |phi|.|b| + integral of
        |f*(v)|, as `_field` returns it next to D, is over 100 times
        max(1, |D|), so D cannot resolve an ascent the size of rounding."""
        inst = pulse_instance("translated_boltzmann_shannon", 8)
        phi = solve_dual(inst).multipliers
        _, value, scale = dual._field(inst, phi)
        assert scale == reference_scale(inst, phi)
        assert scale > 100.0 * max(1.0, abs(value))


class TestNewtonDirection:
    @staticmethod
    def counted_cholesky(monkeypatch):
        calls, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        return calls

    def test_definite_hessian_is_not_shifted(self, monkeypatch):
        """The ladder's first rung is the unshifted Cholesky: one factorization."""
        calls = self.counted_cholesky(monkeypatch)
        hess = -np.array([[2.0, 1.0], [1.0, 2.0]])
        grad = np.array([1.0, -1.0])
        direction, shift = _newton_direction(hess, grad)
        assert shift == 0.0 and len(calls) == 1
        np.testing.assert_allclose(-hess @ direction, grad, rtol=1e-15)

    def test_singular_hessian_is_shifted(self, monkeypatch):
        """A singular PSD Gram fails the first rung and factorizes on the
        second, _REG_START * ||H||_inf."""
        calls = self.counted_cholesky(monkeypatch)
        hess = -np.array([[1.0, 1.0], [1.0, 1.0]])  # negative semidefinite, rank 1
        grad = np.array([1.0, -1.0])
        direction, shift = _newton_direction(hess, grad)
        assert shift == _REG_START * 2.0 and len(calls) == 2
        assert grad @ direction > 0.0
        shifted = shift * np.eye(2) - hess  # the factor is backward stable, not accurate
        residual = np.linalg.norm(shifted @ direction - grad)
        assert residual <= 1e-12 * np.linalg.norm(shifted) * np.linalg.norm(direction)

    def test_indefinite_hessian_gets_definite_shift(self):
        """The ladder climbs until -H + shift*I is positive definite, here past
        H's eigenvalue 1, and the direction it solves for ascends."""
        hess = np.diag([1.0, -1.0])
        grad = np.array([0.3, -0.7])
        direction, shift = _newton_direction(hess, grad)
        assert 1.0 < shift < 100.0 and grad @ direction > 0.0
        np.testing.assert_allclose((shift * np.eye(2) - hess) @ direction, grad, rtol=1e-14)


def reference_oracle(instance, phi):
    """(D, grad D, Hess D) at phi from the public wrappers, each of which
    builds its own dual field."""
    return dual_value(instance, phi), dual_gradient(instance, phi), dual_hessian(instance, phi)


def reference_scale(instance, phi):
    """The rounding scale of D at phi, |phi|.|b| + integral of |f*(v)|,
    from its own field."""
    conjugate = instance.entropy.f_star(instance.design.T @ phi)
    return float(np.abs(phi) @ np.abs(instance.target_moments)
                 + instance.rule.weights @ np.abs(conjugate))


def reference_solve(instance, phi):
    """solve_dual's loop with D evaluated at every trial and the full
    oracle evaluated again at an accepted one, each from its own field.

    Also returns which of "rejection" (a trial outside the conjugate
    domain or non-finite) and "rounding" (acceptance on the residual) ran.
    """
    value, grad, hess = reference_oracle(instance, phi)
    residual = float(np.max(np.abs(grad)))
    trace = [IterationRecord(0, residual, 0.0, value)]
    iterations, message, seen = 0, "", set()
    budget = dual.DEFAULT_MAX_ITER
    while residual > dual.DEFAULT_TOL:
        if iterations >= budget:
            message = f"iteration budget {budget} exhausted with residual {residual:.3e}"
            break
        direction, _ = _newton_direction(hess, grad)
        scale = reference_scale(instance, phi)
        by_residual = abs(float(grad @ direction)) <= dual._ROUNDING * max(1.0, abs(value), scale)
        if by_residual:
            seen.add("rounding")
        step, accepted = 1.0, None
        while step >= dual._MIN_STEP:
            candidate = phi + step * direction
            try:
                if by_residual:
                    point = reference_oracle(instance, candidate)
                    if np.max(np.abs(point[1])) < residual:
                        accepted = point
                elif dual_value(instance, candidate) >= value:
                    accepted = reference_oracle(instance, candidate)
            except DomainViolationError:
                seen.add("rejection")
            if accepted is not None:
                break
            step *= 0.5
        if accepted is None:
            message = f"line search stalled at residual {residual:.3e}"
            break
        phi = candidate
        value, grad, hess = accepted
        iterations += 1
        residual = float(np.max(np.abs(grad)))
        trace.append(IterationRecord(iterations, residual, step, value))
    return phi, trace, message, seen


class TestSingleFieldLineSearch:
    """An accepted trial reuses the dual field its D was computed from, and
    the conjugate domain is checked once per trial point."""

    CASES = {
        # the README config: 320 nodes, piecewise_flat n=6 split at 0.5
        "readme": ("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5),
                   RULE, pulse_density(0.5)),
        # Newton steps leave Burg's conjugate domain and are halved back
        "burg-rejections": ("burg", monomial_basis(12), build_rule((0.0, 1.0), (0.5,), 20, 32),
                            pulse_density(0.5)),
        "rounding-regime": ("burg", *TestRoundingRegime.CASES["burg-monomial2"][1:],
                            constant_density(0.5)),
    }

    def instance(self, case):
        name, basis, rule, rho = self.CASES[case]
        return instance_from_density(builtin_entropy(name), basis, rule, rho)

    @pytest.mark.parametrize("case,exercises", [("readme", set()),
                                                ("burg-rejections", {"rejection"}),
                                                ("rounding-regime", {"rounding"})])
    def test_matches_reference_loop(self, case, exercises):
        inst = self.instance(case)
        phi, trace, message, seen = reference_solve(inst, default_start(inst))
        assert exercises <= seen
        solution = solve_dual(inst)
        assert solution.converged
        np.testing.assert_array_equal(solution.multipliers, phi)
        assert solution.trace == trace
        assert solution.message == message

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_domain_checked_once_per_trial_point(self, case, monkeypatch):
        inst = self.instance(case)
        phi0 = default_start(inst)
        calls = []
        check = Interval.contains
        monkeypatch.setattr(Interval, "contains", lambda self, v: calls.append(1) or check(self, v))
        solution = solve_dual(inst, phi0=phi0)
        assert solution.converged
        # a step of 2^-k is the (k+1)-th trial of its line search; one more for phi0
        trials = 1 + sum(1 + round(-np.log2(row.step)) for row in solution.trace[1:])
        assert len(calls) == trials

    def test_conjugates_without_wrapped_are_called_as_given(self):
        """Conjugate maps that expose no __wrapped__ are called as they are:
        bare unchecked maps solve to the bits of the built-in's."""
        inst = self.instance("burg-rejections")
        bare = dataclasses.replace(inst.entropy, **{
            name: getattr(inst.entropy, name).__wrapped__
            for name in ("f_star", "f_star_d1", "f_star_d2")})
        assert not hasattr(bare.f_star, "__wrapped__")
        got = solve_dual(ProblemInstance(bare, inst.basis, inst.rule, inst.target_moments))
        expected = solve_dual(inst)
        assert got.multipliers.tobytes() == expected.multipliers.tobytes()
        assert got.trace == expected.trace
