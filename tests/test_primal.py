"""Primal recovery, duality-gap audit, and the overshoot metric."""

import dataclasses

import numpy as np
import pytest

from entromin import (
    DomainViolationError,
    build_rule,
    builtin_entropy,
    constant_density,
    dual_value,
    fenchel_young_gap,
    gibbs_overshoot,
    instance_from_density,
    monomial_basis,
    piecewise_flat_basis,
    pulse_density,
    reconstruct,
    sample_solution,
    solve_dual,
)
from entromin.config import BasisSpec, RunConfig, build_problem
from entromin.quadrature import integrate_values

RULE = build_rule((0.0, 1.0), (0.5,))


def make_instance(entropy_name, basis, rho):
    return instance_from_density(builtin_entropy(entropy_name), basis, RULE, rho)


def test_solutions_frozen():
    """A dual solve and its reconstruction are results, frozen like the
    certificates: their fields cannot be reassigned."""
    inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), pulse_density(0.5))
    dual = solve_dual(inst)
    primal = reconstruct(inst, dual.multipliers)
    for result, name, value in ((dual, "converged", False), (dual, "multipliers", None),
                                (primal, "duality_gap", 0.0), (primal, "x", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, value)
    assert dual.converged


class TestReconstruct:
    def test_holds_a_read_only_copy_of_mu(self):
        """The density and its audit read one copy of the multipliers, held
        read-only: neither a write into the result's multipliers nor one into
        the caller's own array can move x away from the duality gap reported
        for it."""
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(4),
                             pulse_density(0.5))
        mu = np.array(solve_dual(inst).multipliers)
        primal = reconstruct(inst, mu)
        before = primal.x(0.25)
        with pytest.raises(ValueError, match="read-only"):
            primal.multipliers[0] += 1.0
        mu[0] += 1.0
        assert primal.x(0.25) == before and abs(primal.duality_gap) <= 1e-12
        assert not np.shares_memory(primal.multipliers, mu) and mu.flags.writeable

    def test_l2_constant_closed_form(self):
        inst = make_instance("l2_norm", monomial_basis(1), constant_density(0.5))
        primal = reconstruct(inst, [0.5])
        grid = np.linspace(0, 1, 17)
        np.testing.assert_allclose(primal.x(grid), 0.5, atol=1e-15)
        assert primal.primal_value == pytest.approx(0.125, abs=1e-14)
        assert primal.duality_gap == pytest.approx(0.0, abs=1e-14)

    def test_translated_bs_constant_closed_form(self):
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(1),
                             constant_density(0.5))
        primal = reconstruct(inst, [np.log(0.5)])
        np.testing.assert_allclose(primal.x(np.linspace(0, 1, 9)), 0.5, rtol=1e-14)
        assert primal.primal_value == pytest.approx(0.5 * np.log(0.5) - 0.5, rel=1e-13)
        assert primal.duality_gap == pytest.approx(0.0, abs=1e-12)

    def test_pulse_reconstruction_strictly_positive(self):
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(4),
                             pulse_density(0.5))
        solution = solve_dual(inst)
        primal = reconstruct(inst, solution.multipliers)
        values = primal.x(np.linspace(0, 1, 1001))
        assert np.all(values > 0.0)

    @pytest.mark.parametrize("entropy,basis,rho", [
        ("translated_boltzmann_shannon", monomial_basis(4), pulse_density(0.5)),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), pulse_density(0.5)),
        ("l2_norm", monomial_basis(3), pulse_density(0.5)),
        # the pulse pins both ends of the Fermi-Dirac band [0, 1] (its
        # targets sit on the boundary of the moment body and the dual
        # diverges), so this entropy gets an interior reference density
        ("fermi_dirac", monomial_basis(2), constant_density(0.5)),
    ])
    def test_converged_audits(self, entropy, basis, rho):
        inst = make_instance(entropy, basis, rho)
        solution = solve_dual(inst)
        assert solution.converged
        primal = reconstruct(inst, solution.multipliers)
        assert primal.moment_residual_inf <= 10 * 1e-10
        assert abs(primal.duality_gap) <= 1e-8

    def test_density_stays_in_entropy_domain(self):
        inst = make_instance("fermi_dirac", monomial_basis(3), constant_density(0.5))
        solution = solve_dual(inst)
        assert solution.converged
        primal = reconstruct(inst, solution.multipliers)
        values = primal.x(inst.rule.nodes)
        assert inst.entropy.f_domain.contains(values).all()

    def test_pointwise_tightness_along_solution(self):
        """The recovered density and the dual field are a subgradient pair
        node by node, so their Fenchel-Young gap vanishes."""
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(4),
                             pulse_density(0.5))
        solution = solve_dual(inst)
        field = inst.design.T @ solution.multipliers
        density = inst.entropy.f_star_d1(field)
        gap = fenchel_young_gap(inst.entropy, density, field)
        assert float(np.max(np.abs(gap))) <= 1e-8

    def test_weak_duality_against_reference_density(self):
        """I_f at any feasible density dominates the dual value anywhere."""
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3),
                             constant_density(0.5))
        rho_entropy = 0.5 * np.log(0.5) - 0.5  # I_f of the constant 1/2
        rng = np.random.default_rng(17)
        for _ in range(25):
            phi = rng.uniform(-1.0, 1.0, 3)
            assert rho_entropy >= dual_value(inst, phi) - 1e-8


def _reconstruct_rebuilding_design(instance, mu):
    """reconstruct with x evaluated at the nodes through a design of its
    own and D from a separate dual_value call: (audit fields, x)."""
    mu = np.asarray(mu, dtype=float)
    entropy, basis = instance.entropy, instance.basis

    def x(s):
        return entropy.f_star_d1(basis(np.asarray(s, dtype=float)).T @ mu)

    x_nodes = x(instance.rule.nodes)
    moments = instance.design @ (instance.rule.weights * x_nodes)
    primal = integrate_values(instance.rule, entropy.f(x_nodes))
    dual = dual_value(instance, mu)
    residual = float(np.max(np.abs(moments - instance.target_moments)))
    return (mu.tobytes(), residual, primal, dual, primal - dual), x


class TestOneFieldReconstruct:
    @pytest.mark.parametrize("rho", [pulse_density(0.5), constant_density(0.5)],
                             ids=["pulse", "constant"])
    @pytest.mark.parametrize("basis", [monomial_basis(4), piecewise_flat_basis(4, 0.5)],
                             ids=["monomial", "piecewise_flat"])
    @pytest.mark.parametrize("entropy", ["boltzmann_shannon", "burg", "cosh", "fermi_dirac",
                                         "l2_norm", "translated_boltzmann_shannon"])
    def test_replays_design_rebuild(self, entropy, basis, rho):
        """One field at the solution gives every audit field, and x on a
        grid, bit for bit as a rebuilt design and a second field did."""
        inst = make_instance(entropy, basis, rho)
        mu = solve_dual(inst).multipliers
        got = reconstruct(inst, mu)
        expected, x = _reconstruct_rebuilding_design(inst, mu)
        assert (got.multipliers.tobytes(), got.moment_residual_inf, got.primal_value,
                got.dual_value, got.duality_gap) == expected
        grid = np.linspace(0.0, 1.0, 201)
        assert got.x(grid).tobytes() == x(grid).tobytes()

    def test_basis_evaluated_at_the_nodes_once(self, monkeypatch):
        """Building, solving and reconstructing one problem evaluates the
        basis at the rule nodes once."""
        calls = []
        to_basis = BasisSpec.to_basis

        def counting(f):
            return lambda s: calls.append(np.asarray(s).copy()) or f(s)

        def spying_to_basis(self, interval):
            basis = to_basis(self, interval)
            return dataclasses.replace(basis, rows=counting(basis.rows))

        monkeypatch.setattr(BasisSpec, "to_basis", spying_to_basis)
        cfg = RunConfig(entropy="translated_boltzmann_shannon",
                        basis=BasisSpec("piecewise_flat", 6, 0.5))
        instance, _ = build_problem(cfg, cfg.basis)
        reconstruct(instance, solve_dual(instance).multipliers)
        at_nodes = [s for s in calls if np.array_equal(s, instance.rule.nodes)]
        assert len(at_nodes) == len(calls) == 1

    @pytest.mark.parametrize("spec", [BasisSpec("monomial", 6), BasisSpec("piecewise_flat", 6, 0.5)],
                             ids=["monomial", "piecewise_flat"])
    def test_solve_op_evaluates_the_basis_three_times(self, monkeypatch, spec):
        """One solve op as the CLI and the benchmark worker run it (build,
        solve, reconstruct, the overshoot window and the output table)
        evaluates the basis three times: at the rule nodes, on the window
        grid and on the sample grid."""
        from entromin.moments import MomentBasis
        from entromin.primal import OVERSHOOT_SAMPLES

        calls, call = [], MomentBasis.__call__
        monkeypatch.setattr(MomentBasis, "__call__",
                            lambda basis, s: calls.append(np.array(s)) or call(basis, s))
        cfg = RunConfig(entropy="translated_boltzmann_shannon", basis=spec)
        instance, rho = build_problem(cfg, cfg.basis)
        solution = solve_dual(instance, phi0=cfg.phi0, tol=cfg.tol, max_iter=cfg.max_iter)
        primal = reconstruct(instance, solution.multipliers)
        gibbs_overshoot(primal, rho, cfg.default_window())
        sample_solution(primal, np.linspace(*cfg.interval, cfg.sample_points))
        expected = [instance.rule.nodes, np.linspace(*cfg.default_window(), OVERSHOOT_SAMPLES),
                    np.linspace(*cfg.interval, cfg.sample_points)]
        assert [s.tobytes() for s in calls] == [s.tobytes() for s in expected]


    def test_non_finite_density_at_a_node_names_the_conjugate_derivative(self):
        """x at the nodes comes from the dual oracle, which names (f*)' and the
        node: Burg's f* is finite at v = -1e-320, its derivative -1/v is not."""
        inst = make_instance("burg", monomial_basis(1), constant_density(0.5))
        with pytest.raises(DomainViolationError) as err:
            reconstruct(inst, [-1e-320])
        assert str(err.value) == f"(f*)' is inf at node s={float(inst.rule.nodes[0])!r}"


class TestSampleSolution:
    def test_constant_everywhere(self):
        inst = make_instance("l2_norm", monomial_basis(1), constant_density(0.5))
        primal = reconstruct(inst, [0.5])
        table = sample_solution(primal, [0.1, 0.9])
        np.testing.assert_allclose(table, [[0.1, 0.5], [0.9, 0.5]], atol=1e-15)

    def test_dense_grid_finite(self):
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(4),
                             pulse_density(0.5))
        solution = solve_dual(inst)
        table = sample_solution(reconstruct(inst, solution.multipliers),
                                np.linspace(0, 1, 1001))
        assert table.shape == (1001, 2)
        assert np.all(np.isfinite(table))

    def test_burg_field_leaving_domain_between_nodes_raises(self):
        # the solve checks the dual field at the nodes only; between them the
        # field of this solution turns positive, where Burg's (f*)' is undefined
        inst = make_instance("burg", piecewise_flat_basis(6, 0.5), pulse_density(0.5))
        solution = solve_dual(inst)
        assert solution.converged
        primal = reconstruct(inst, solution.multipliers)
        with pytest.raises(DomainViolationError, match="f_star_d1 of burg"):
            sample_solution(primal, np.linspace(0, 1, 1001))

    def test_empty_grid(self):
        inst = make_instance("l2_norm", monomial_basis(1), constant_density(0.5))
        table = sample_solution(reconstruct(inst, [0.5]), [])
        assert table.shape == (0, 2)


class _FakeSolution:
    def __init__(self, fn):
        self.x = fn


class TestGibbsOvershoot:
    def test_zero_when_matching_target(self):
        pulse = pulse_density(0.5)
        assert gibbs_overshoot(_FakeSolution(pulse), pulse, (0.2, 0.3)) == 0.0
        assert gibbs_overshoot(_FakeSolution(pulse), pulse, (0.4, 0.6)) == 0.0

    def test_scaled_pulse_overshoots_by_the_scale(self):
        pulse = pulse_density(0.5)
        scaled = _FakeSolution(lambda s: 1.2 * pulse(s))
        assert gibbs_overshoot(scaled, pulse, (0.15, 0.35)) == pytest.approx(0.2, abs=1e-12)

    def test_undershoot_counts_too(self):
        pulse = pulse_density(0.5)
        dips = _FakeSolution(lambda s: pulse(s) - 0.1)
        # in a window on the support, range of target is {1}; min x = 0.9
        assert gibbs_overshoot(dips, pulse, (0.1, 0.4)) == pytest.approx(0.1, abs=1e-12)

    def test_piecewise_basis_tames_overshoot_near_jump(self):
        pulse = pulse_density(0.5)
        overshoot = {}
        for label, basis in (("monomial", monomial_basis(6)),
                             ("piecewise", piecewise_flat_basis(6, 0.5))):
            inst = make_instance("translated_boltzmann_shannon", basis, pulse)
            solution = solve_dual(inst)
            assert solution.converged
            primal = reconstruct(inst, solution.multipliers)
            overshoot[label] = gibbs_overshoot(primal, pulse, (0.4, 0.6))
        assert overshoot["piecewise"] < overshoot["monomial"]
