"""Margin intervals, direction functions, and both duality certificates."""

import dataclasses

import numpy as np
import pytest

from entromin import (
    CertificateError,
    Density,
    DependentBasisError,
    NoMarginIntervalError,
    ValidationError,
    build_core_certificate,
    build_direction_functions,
    build_qri_certificate,
    build_rule,
    builtin_entropy,
    constant_density,
    direction_inner_products,
    find_margin_interval,
    instance_from_density,
    monomial_basis,
    piecewise_flat_basis,
    pulse_density,
    verify_core_certificate,
    within_bounds,
)
from entromin.certificates import DirectionFunctions, MarginInterval
from entromin.moments import moment_vector

RULE = build_rule((0.0, 1.0), (0.5,))
PULSE = pulse_density(0.5)
RAMP = Density(kind="ramp", fn=lambda s: np.asarray(s, dtype=float))
BUMP = Density(kind="bump", fn=lambda s: 4.0 * np.asarray(s, dtype=float) * (1.0 - np.asarray(s)))
INF = float("inf")


def make_instance(entropy_name, basis, rho):
    return instance_from_density(builtin_entropy(entropy_name), basis, RULE, rho)


def _replay_rebuilding_designs(instance, x, cert, trials, seed, t_scale):
    """Core verification the direct way: each trial's perturbation is
    expanded in long double and evaluated on both long-double designs,
    rebuilt from the sample points on every trial."""
    from entromin.certificates import (
        MEMBERSHIP_SAMPLES, P1_SLACK, P2_TOL, CertificateVerification, _verification_points,
    )
    from entromin.moments import design_matrix

    def evaluate(s, coeffs):
        design = design_matrix(instance.basis, s.astype(np.longdouble))
        inside = (s >= cert.margin.lo) & (s <= cert.margin.hi)
        return np.where(inside, (coeffs @ design).astype(float), 0.0)

    rng = np.random.default_rng(seed)
    ver_rule = _verification_points(instance, cert.margin)[0]
    ver_design = design_matrix(instance.basis, ver_rule.nodes)
    x_ver = np.asarray(x(ver_rule.nodes), dtype=float)
    grid = np.concatenate([np.linspace(*instance.rule.interval, MEMBERSHIP_SAMPLES + 2),
                           ver_rule.nodes])
    x_grid = np.asarray(x(grid), dtype=float)
    p1 = p2 = 0
    worst_p1 = worst_p2 = 0.0
    for _ in range(trials):
        eta = rng.standard_normal(instance.n)
        eta /= np.linalg.norm(eta)
        t = t_scale * cert.t_for(eta)
        coeffs = np.longdouble(t) * (eta.astype(np.longdouble) @ cert.directions.coeffs)
        perturbed = x_grid + evaluate(grid, coeffs)
        violation = max(float(np.max(cert.lower - perturbed)), 0.0)
        if np.isfinite(cert.upper):
            violation = max(violation, float(np.max(perturbed - cert.upper)))
        worst_p1 = max(worst_p1, violation)
        p1 += violation <= P1_SLACK
        moments = ver_design @ (ver_rule.weights * (x_ver + evaluate(ver_rule.nodes, coeffs)))
        residual = float(np.max(np.abs(moments - (instance.target_moments + t * eta))))
        worst_p2 = max(worst_p2, residual)
        p2 += residual <= P2_TOL
    return CertificateVerification(trials=trials, p1_passes=int(p1), p2_passes=int(p2),
                                   worst_p1_violation=worst_p1, worst_p2_residual=worst_p2)


def _replay_per_trial(instance, x, cert, trials, seed, t_scale):
    """Core verification one direction at a time: a draw, np.linalg.norm
    and the scalar step rule per trial, P1 as the max over the grid of
    lower - p and p - upper, each worst value kept as it comes."""
    from entromin.certificates import P1_SLACK, P2_TOL, _verification_points

    rng = np.random.default_rng(seed)
    ver_rule, ver_design, grid = _verification_points(instance, cert.margin)
    x_ver, x_grid = (np.asarray(x(s), dtype=float) for s in (ver_rule.nodes, grid))
    y_grid = cert.directions.evaluate_all(grid)
    y_ver = cert.directions.evaluate_all(ver_rule.nodes)
    p1 = p2 = 0
    worst_p1 = worst_p2 = 0.0
    for _ in range(trials):
        eta = rng.standard_normal(instance.n)
        eta /= np.linalg.norm(eta)
        step = t_scale * cert.t_for(eta) * eta
        perturbed = x_grid + step @ y_grid
        violation = max(float(np.max(cert.lower - perturbed)),
                        float(np.max(perturbed - cert.upper)), 0.0)
        worst_p1 = max(worst_p1, violation)
        p1 += violation <= P1_SLACK
        moments = ver_design @ (ver_rule.weights * (x_ver + step @ y_ver))
        residual = float(np.max(np.abs(moments - (instance.target_moments + step))))
        worst_p2 = max(worst_p2, residual)
        p2 += residual <= P2_TOL
    return (trials, p1, p2, worst_p1, worst_p2, P2_TOL)


def _coeffs_per_k(gram, eta):
    """Direction-function coefficients one k at a time: each Gram system
    solved alone, with a 1-D right-hand side, and refined three times with
    long-double residuals."""
    n, ld = len(eta), np.longdouble
    coeffs = np.zeros((n, n), dtype=ld)
    for k in np.flatnonzero(eta):
        others = [j for j in range(n) if j != k]
        matrix, rhs = gram[np.ix_(others, others)], gram[others, k]
        matrix64 = matrix.astype(float)
        c = np.linalg.solve(matrix64, rhs.astype(float)).astype(ld)
        for _ in range(3):
            c = c + np.linalg.solve(matrix64, (rhs - matrix @ c).astype(float)).astype(ld)
        v = np.zeros(n, dtype=ld)
        v[k], v[others] = 1.0, -c
        coeffs[k] = (ld(eta[k]) / (gram[k] @ v)) * v
    return coeffs


def _replay_full_scan(instance, x, lower, upper, m_max):
    """The qri clip-level scan the direct way: the correction is evaluated
    on the whole margin grid at every m.  Returns (m, eps, correction_sup,
    moment_match_residual, upper_clearance, y on a grid), or the message of
    the CertificateError the scan ends with."""
    from entromin.certificates import (
        MARGIN_SCAN_SAMPLES, MEMBERSHIP_SAMPLES, _verification_points,
    )
    from entromin.moments import design_matrix

    basis, rule = instance.basis, instance.rule
    margin = find_margin_interval(x, lower, upper, rule.interval, breakpoints=rule.breakpoints,
                                  nodes=rule.nodes, one_sided=True)
    delta = margin.val_lo - lower
    directions = build_direction_functions(basis, rule, margin, np.ones(basis.n))
    ver_rule = _verification_points(instance, margin)[0]
    ver_design = design_matrix(basis, ver_rule.nodes)
    x_ver = np.asarray(x(ver_rule.nodes), dtype=float)
    on_margin = directions.evaluator(np.concatenate([
        np.linspace(margin.lo, margin.hi, MARGIN_SCAN_SAMPLES), directions.sub_nodes]))
    full_grid = np.concatenate([np.linspace(*rule.interval, MEMBERSHIP_SAMPLES + 2),
                                ver_rule.nodes])
    x_full = np.asarray(x(full_grid), dtype=float)

    def clip(values, m):
        if np.isfinite(upper):
            width = upper - lower
            return np.clip(values, lower + width / m, upper - width / m)
        return np.maximum(values, lower + 1.0 / m)

    history = []
    for m in range(3, m_max + 1):
        defect = ver_design @ (ver_rule.weights * (clip(x_ver, m) - x_ver))
        coeffs = np.asarray(defect, dtype=np.longdouble) @ directions.coeffs
        sup_v = float(np.max(np.abs(on_margin(coeffs))))
        if sup_v >= delta / 2.0:
            if m == 3 or m % 25 == 0:
                history.append((m, float(np.max(np.abs(defect))), sup_v))
            continue
        y_full = clip(x_full, m) - directions.evaluator(full_grid)(coeffs)
        eps = float(np.min(y_full - lower))
        if eps <= 0.0:
            history.append((m, float(np.max(np.abs(defect))), sup_v))
            continue

        def y(s):
            return clip(np.asarray(x(s), dtype=float), m) - directions.evaluator(s)(coeffs)

        residual = float(np.max(np.abs(
            ver_design @ (ver_rule.weights * y(ver_rule.nodes)) - instance.target_moments)))
        upper_clearance = float(np.min(upper - y_full)) if np.isfinite(upper) else INF
        return m, eps, sup_v, residual, upper_clearance, y(np.linspace(0.0, 1.0, 777))
    decay = "; ".join(f"m={m}: |defect|={d:.3e}, sup|v|={sv:.3e}" for m, d, sv in history[-6:])
    return (f"no acceptable witness up to m={m_max} (need sup|v| < {delta / 2.0:.3e} "
            f"with positive lower clearance); defect decay: {decay}")


def _pulse_zeroed_in_margin():
    """The README-family pulse with piecewise_flat n=4, set to 0 at one
    instance-rule node inside its margin: the scan, which samples between
    the nodes, still finds the margin, but its confirmed range reaches 0."""
    margin = find_margin_interval(PULSE, 0.0, INF, RULE.interval, breakpoints=RULE.breakpoints,
                                  nodes=RULE.nodes)
    node = float(RULE.nodes[(RULE.nodes > margin.lo) & (RULE.nodes < margin.hi)][0])
    rho = Density(kind="zeroed", fn=lambda s: np.where(np.asarray(s) == node, 0.0, PULSE(s)))
    return make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), rho), rho


def _pulse_marked(basis, value, where):
    """The pulse set to `value` at points where a certificate is later checked
    but the margin scan does not sample: the first verification node inside
    the scanned margin ("node"), or every 9th membership-grid point in
    (0, 0.5) ("grid")."""
    from entromin.certificates import MEMBERSHIP_SAMPLES, _verification_points

    if where == "node":
        margin = find_margin_interval(PULSE, 0.0, INF, RULE.interval,
                                      breakpoints=RULE.breakpoints, nodes=RULE.nodes)
        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        nodes = _verification_points(inst, margin)[0].nodes
        points = nodes[(nodes > margin.lo) & (nodes < margin.hi)][:1]
    else:
        grid = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)
        points = grid[(grid > 0.0) & (grid < 0.5)][::9]
    rho = Density(kind="marked",
                  fn=lambda s: np.where(np.isin(np.asarray(s), points), value, PULSE(s)))
    return make_instance("translated_boltzmann_shannon", basis, rho), rho


BASES_34 = [monomial_basis(3), piecewise_flat_basis(4, 0.5)]


class TestCheckedPointsConfirmMargin:
    """Both certificates are checked on the verification nodes and the
    membership grid, so the margin's value range covers those inside it."""

    @pytest.mark.parametrize("candidate", [False, True], ids=["scanned", "candidate"])
    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_density_at_band_on_verification_node_names_margin(self, basis, candidate,
                                                                monkeypatch):
        """Both builders, or core on an explicit candidate interval (the
        scanned one), fail before any trial or clip level runs."""
        from entromin import certificates

        inst, rho = _pulse_marked(basis, 0.0, "node")
        monkeypatch.setattr(certificates, "_candidate_levels", None)  # no clip level runs
        builds = [build_core_certificate, build_qri_certificate]
        if candidate:
            margin = find_margin_interval(PULSE, 0.0, INF, RULE.interval,
                                          breakpoints=RULE.breakpoints, nodes=RULE.nodes)
            builds = [lambda *args: build_core_certificate(
                *args, candidate_interval=(margin.lo, margin.hi))]
        for build in builds:
            with pytest.raises(CertificateError) as err:
                build(inst, rho, 0.0, INF)
            assert err.value.hypothesis == "margin interval"
            assert "density range [0.0, 1.0]" in str(err.value)

    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_dips_on_membership_grid_set_the_clearance(self, basis):
        """A density at 0.1 on those grid points keeps a margin, but of 0.1,
        not the 1.0 that a range sampled between them sees.  (At 0 the scan
        itself, which samples every other grid point, finds no margin.)"""
        inst, rho = _pulse_marked(basis, 0.1, "grid")
        core = build_core_certificate(inst, rho, 0.0, INF)
        assert core.clearance == 0.1
        assert verify_core_certificate(inst, rho, core, trials=100, seed=0).all_passed
        qri = build_qri_certificate(inst, rho, 0.0, INF, m_max=20000)
        assert qri.margin.val_lo == 0.1
        assert qri.eps > 0.0

    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_density_off_band_on_membership_grid_names_band(self, basis):
        """The pulse at -1 on one membership-grid point off the margin, which
        `within_bounds` does not sample: core names the band before any
        trial, instead of building clearance 1.0 that fails P1 every time."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        point = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)[1202]
        rho = Density(kind="dip", fn=lambda s: np.where(np.asarray(s) == point, -1.0, PULSE(s)))
        inst = make_instance("translated_boltzmann_shannon", basis, rho)
        assert within_bounds(inst.entropy, rho, 0.0, INF, RULE)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "admissible band"

    @pytest.mark.parametrize("build", [build_core_certificate, build_qri_certificate],
                             ids=["core", "qri"])
    @pytest.mark.parametrize("where", ["grid", "node", "margin-grid"])
    def test_infinite_density_value_names_band(self, build, where):
        """The pulse at +inf on one checked point passes `x <= inf`.  Before
        the finite check it built certificates with NaN in them: core with
        clearance 1.0 (P2 failing every trial on the node), or "[margin
        interval]" inside the margin; qri with a NaN upper clearance, and on
        the node a NaN eps and residual."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        basis = monomial_basis(3)
        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        grid = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)
        point = {"grid": grid[1202], "margin-grid": grid[500],
                 "node": RULE.nodes[np.argmin(np.abs(RULE.nodes - 0.6252))]}[where]
        rho = Density(kind="spike",
                      fn=lambda s: np.where(np.asarray(s) == point, np.inf, PULSE(s)))
        with pytest.raises(CertificateError) as err:
            build(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "admissible band"


class TestWithinBounds:
    def test_pulse_in_unit_band_boltzmann(self):
        spec = builtin_entropy("boltzmann_shannon")
        assert within_bounds(spec, PULSE, 0.0, 1.0, RULE)

    def test_constant_two_escapes_unit_band(self):
        spec = builtin_entropy("boltzmann_shannon")
        assert not within_bounds(spec, constant_density(2.0), 0.0, 1.0, RULE)

    def test_pulse_in_half_line_band_translated(self):
        spec = builtin_entropy("translated_boltzmann_shannon")
        assert within_bounds(spec, PULSE, 0.0, INF, RULE)

    def test_band_outside_entropy_domain_rejected(self):
        spec = builtin_entropy("boltzmann_shannon")
        with pytest.raises(ValidationError):
            within_bounds(spec, PULSE, -1.0, 1.0, RULE)


class TestFindMarginInterval:
    def test_pulse_on_half_line(self):
        margin = find_margin_interval(PULSE, 0.0, INF, (0.0, 1.0),
                                      breakpoints=(0.5,), nodes=RULE.nodes)
        assert 0.0 <= margin.lo < margin.hi <= 0.5
        assert margin.val_lo == pytest.approx(1.0)
        assert margin.val_hi == pytest.approx(1.0)

    def test_boundary_density_has_no_margin(self):
        with pytest.raises(NoMarginIntervalError):
            find_margin_interval(constant_density(0.0), 0.0, INF, (0.0, 1.0))

    def test_identity_map_unit_band(self):
        margin = find_margin_interval(lambda s: np.asarray(s, dtype=float),
                                      0.0, 1.0, (0.0, 1.0), min_width=0.5)
        assert margin.lo == pytest.approx(0.25, abs=2e-3)
        assert margin.hi == pytest.approx(0.75, abs=2e-3)
        assert margin.val_lo == pytest.approx(margin.lo, abs=1e-12)
        assert margin.val_hi == pytest.approx(margin.hi, abs=1e-12)
        assert margin.lo >= 0.2 and margin.hi <= 0.8

    def test_pulse_unit_band_needs_one_sided(self):
        # two-sided clearance is impossible for a {0,1}-valued density
        with pytest.raises(NoMarginIntervalError):
            find_margin_interval(PULSE, 0.0, 1.0, (0.0, 1.0), breakpoints=(0.5,))
        margin = find_margin_interval(PULSE, 0.0, 1.0, (0.0, 1.0),
                                      breakpoints=(0.5,), one_sided=True)
        assert margin.hi <= 0.5 and margin.val_lo == pytest.approx(1.0)

    def test_bad_min_width(self):
        for min_width in (0.0, -0.1, float("nan"), INF):
            with pytest.raises(ValidationError):
                find_margin_interval(PULSE, 0.0, INF, (0.0, 1.0), min_width=min_width)


class TestDirectionFunctions:
    def test_single_constant_function_closed_form(self):
        # <y_1, 1> = 2 over [0, 1/2] forces y_1 = 4 there
        basis = monomial_basis(1)
        margin = MarginInterval(0.0, 0.5, 1.0, 1.0)
        directions = build_direction_functions(basis, RULE, margin, [2.0])
        inside = directions.evaluate_all(np.array([0.1, 0.3, 0.49]))
        np.testing.assert_allclose(inside, 4.0, rtol=1e-12)
        outside = directions.evaluate_all(np.array([0.6, 0.9]))
        np.testing.assert_allclose(outside, 0.0, atol=0.0)
        ips = direction_inner_products(directions)
        np.testing.assert_allclose(ips, [[2.0]], rtol=1e-12)

    def test_two_monomials_projection(self):
        # project a_1 off a_2 on [0,1]: v = a_1 - (3/2) a_2, <a_1,v> = 1/4,
        # so y_1 = 4 a_1 - 6 a_2 and y_2 = 0
        basis = monomial_basis(2)
        margin = MarginInterval(0.0, 1.0, 0.5, 0.5)
        directions = build_direction_functions(basis, RULE, margin, [1.0, 0.0])
        np.testing.assert_allclose(np.asarray(directions.coeffs[0], dtype=float),
                                   [4.0, -6.0], rtol=1e-10)
        np.testing.assert_allclose(np.asarray(directions.coeffs[1], dtype=float),
                                   [0.0, 0.0], atol=0.0)
        ips = direction_inner_products(directions)
        assert abs(ips[0, 1]) <= 1e-10
        assert ips[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_zero_direction_gives_zero_functions(self):
        basis = monomial_basis(3)
        margin = MarginInterval(0.0, 0.5, 1.0, 1.0)
        directions = build_direction_functions(basis, RULE, margin, np.zeros(3))
        assert np.all(np.asarray(directions.coeffs) == 0.0)

    def test_dependent_family_rejected(self):
        basis = piecewise_flat_basis(3, 0.5)
        margin = MarginInterval(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(DependentBasisError):
            build_direction_functions(basis, RULE, margin, np.ones(3))

    @pytest.mark.parametrize("basis,margin", [
        (monomial_basis(2), MarginInterval(0.0, 1.0, 0.5, 0.5)),
        (monomial_basis(4), MarginInterval(0.25, 0.75, 0.25, 0.75)),
        (piecewise_flat_basis(4, 0.5), MarginInterval(0.0, 0.5, 1.0, 1.0)),
        (piecewise_flat_basis(6, 0.5), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
    ])
    def test_orthogonality_for_random_directions(self, basis, margin):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            eta = rng.standard_normal(basis.n)
            directions = build_direction_functions(basis, RULE, margin, eta)
            defect = direction_inner_products(directions) - np.diag(eta)
            worst = max(worst, float(np.max(np.abs(defect))))
        assert worst <= 1e-8

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", [monomial_basis, lambda n: piecewise_flat_basis(n, 0.9)],
                             ids=["monomial", "piecewise"])
    def test_stacked_gram_solves_replay_per_k_loop(self, family, n):
        """The solves for every k as one stack give the coefficients, bit for
        bit, of one refined solve per k with a 1-D right-hand side, also for
        directions with zero entries (their y_k stay 0)."""
        basis, rule = family(n), build_rule((0.0, 1.0), (0.9,))
        margin = MarginInterval(0.0, 0.9, 1.0, 1.0)
        rng = np.random.default_rng(n)
        for eta in (np.ones(n), rng.standard_normal(n) * (np.arange(n) % 3 != 1),
                    np.where(np.arange(n) == n - 1, -2.5, 0.0), np.zeros(n)):
            directions = build_direction_functions(basis, rule, margin, eta)
            expected = _coeffs_per_k(directions.gram, eta)
            # values, not bytes: the padding around long double's 80 bits is arbitrary
            np.testing.assert_array_equal(directions.coeffs, expected, strict=True)
            assert np.array_equal(np.signbit(directions.coeffs), np.signbit(expected))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gram_solves_one_stack_per_build(self, monkeypatch, n):
        """A build makes the 1 + 3 refinement solves of one stack, for any n."""
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        for basis in (monomial_basis(n), piecewise_flat_basis(n, 0.9)):
            calls.clear()
            build_direction_functions(basis, build_rule((0.0, 1.0), (0.9,)),
                                      MarginInterval(0.0, 0.9, 1.0, 1.0), np.ones(n))
            assert len(calls) == 4


class TestCoreCertificate:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pulse_piecewise_margin_left_of_split(self, n):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(n, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        assert 0.0 <= cert.margin.lo < cert.margin.hi <= 0.5
        assert cert.clearance == pytest.approx(1.0)
        assert cert.t_unit > 0

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_pulse_piecewise_hundred_directions(self, n):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(n, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        report = verify_core_certificate(inst, PULSE, cert, trials=100, seed=7)
        assert report.p1_passes == 100
        assert report.p2_passes == 100
        assert report.worst_p2_residual <= 1e-8

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_candidate_interval_right_of_split_fails_independence(self, n):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(n, 0.5), PULSE)
        with pytest.raises(DependentBasisError) as err:
            build_core_certificate(inst, PULSE, 0.0, INF, candidate_interval=(0.5, 1.0))
        assert err.value.hypothesis == "linear independence"

    def test_constant_density_wide_margin(self):
        # breakpoint-free rule: the scan is free to span the whole interval
        rho = constant_density(0.5)
        inst = instance_from_density(builtin_entropy("boltzmann_shannon"),
                                     monomial_basis(3), build_rule((0.0, 1.0)), rho)
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        assert cert.margin.hi - cert.margin.lo > 0.9
        assert cert.margin.val_lo == pytest.approx(0.5)
        assert cert.margin.val_hi == pytest.approx(0.5)
        report = verify_core_certificate(inst, rho, cert, trials=50, seed=1)
        assert report.all_passed

    def test_step_rule_strictness(self):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        rng = np.random.default_rng(5)
        etas = []
        for _ in range(25):
            eta = rng.standard_normal(4)
            eta /= np.linalg.norm(eta)
            t = cert.t_for(eta)
            assert t * 4 * cert.delta_for(eta) < cert.clearance
            etas.append(eta)
        # a stack gives each row's own values, and 0 for a zero direction
        stack = np.vstack([etas, np.zeros(4)])
        with np.errstate(all="raise"):
            steps, bounds = cert.t_for(stack), cert.delta_for(stack)
        assert steps.tolist() == [cert.t_for(eta) for eta in stack] and steps[-1] == 0.0
        assert bounds.tolist() == [cert.delta_for(eta) for eta in stack] and bounds[-1] == 0.0

    def test_band_violation_names_hypothesis(self):
        rho = constant_density(2.0)
        inst = make_instance("boltzmann_shannon", monomial_basis(2), rho)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, rho, 0.0, 1.0)
        assert err.value.hypothesis == "admissible band"

    def test_boundary_density_names_margin(self):
        rho = constant_density(0.0)
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(2), rho)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "margin interval"

    def test_pulse_in_unit_band_has_no_two_sided_margin(self):
        # the same degeneracy that makes the Fermi-Dirac dual diverge on
        # pulse moments: {0,1} values never clear both ends of (0, 1)
        inst = make_instance("fermi_dirac", monomial_basis(2), PULSE)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, PULSE, 0.0, 1.0)
        assert err.value.hypothesis == "margin interval"

    def test_scanned_margin_touching_the_band_names_margin(self):
        inst, rho = _pulse_zeroed_in_margin()
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "margin interval"
        assert "is not strictly inside (0.0, inf)" in str(err.value)

    def test_coordinate_directions_shift_one_moment_exactly(self):
        """For eta = e_k the perturbed moments move by t in coordinate k
        alone, to 1e-10, under a rule resolving the perturbation support."""
        from entromin.certificates import _verification_points
        from entromin.moments import design_matrix

        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        ver = _verification_points(inst, cert.margin)[0]
        design = design_matrix(inst.basis, ver.nodes)
        x_ver = PULSE(ver.nodes)
        inside = (ver.nodes >= cert.margin.lo) & (ver.nodes <= cert.margin.hi)
        design_ld = design_matrix(inst.basis, ver.nodes.astype(np.longdouble))
        for k in range(4):
            eta = np.zeros(4)
            eta[k] = 1.0
            t = cert.t_for(eta)
            coeffs = np.longdouble(t) * (eta.astype(np.longdouble) @ cert.directions.coeffs)
            y_ver = np.where(inside, (coeffs @ design_ld).astype(float), 0.0)
            shift = design @ (ver.weights * (x_ver + y_ver)) - inst.target_moments
            assert np.max(np.abs(shift - t * eta)) <= 1e-10

    def test_combined_evaluation_matches_row_sum(self):
        basis = monomial_basis(3)
        margin = MarginInterval(0.1, 0.6, 0.1, 0.6)
        directions = build_direction_functions(basis, RULE, margin, [1.0, -2.0, 0.5])
        s = np.linspace(0, 1, 301)
        evaluate = directions.evaluator(s)
        weights = np.array([[1.0, 1.0, 1.0], [0.5, -3.0, 2.0]], dtype=np.longdouble)
        block = evaluate(weights @ directions.coeffs)
        assert block.shape == (2, s.size)
        rows = directions.evaluate_all(s)
        for w, got in zip(weights.astype(float), block):
            np.testing.assert_allclose(got, (w[:, None] * rows).sum(axis=0),
                                       rtol=1e-12, atol=1e-12)
        # a single expansion evaluates to the matching row of the block
        np.testing.assert_array_equal(evaluate(weights[1] @ directions.coeffs), block[1])

    @pytest.mark.parametrize("entropy,basis,rho,band,t_scale", [
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF), 1.0),
        ("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0), 1.0),
        ("boltzmann_shannon", monomial_basis(1), constant_density(0.5), (0.0, 1.0), 2.0),
    ], ids=["pulse-piecewise4", "constant-monomial4", "overdriven-control"])
    def test_designs_built_once_replay_exactly(self, entropy, basis, rho, band, t_scale):
        """Verification with its designs built once reports exactly what a
        replay rebuilding both long-double designs on every trial reports."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        expected = _replay_rebuilding_designs(inst, rho, cert, trials=40, seed=9,
                                              t_scale=t_scale)
        got = verify_core_certificate(inst, rho, cert, trials=40, seed=9, t_scale=t_scale)
        assert got == expected
        if t_scale > 1.0:
            assert got.p1_passes < got.trials

    @pytest.mark.parametrize("basis", [
        piecewise_flat_basis(1, 0.5), piecewise_flat_basis(2, 0.5), piecewise_flat_basis(4, 0.5),
        piecewise_flat_basis(6, 0.5), monomial_basis(1), monomial_basis(2), monomial_basis(4),
        monomial_basis(6),
    ], ids=["piecewise1", "piecewise2", "piecewise4", "piecewise6-readme", "monomial1",
            "monomial2", "monomial4", "monomial6"])
    @pytest.mark.parametrize("entropy,rho,band", [
        ("translated_boltzmann_shannon", PULSE, (0.0, INF)),
        ("boltzmann_shannon", constant_density(0.5), (0.0, 1.0)),
    ], ids=["pulse", "constant"])
    def test_stacked_directions_replay_per_trial_loop(self, entropy, rho, band, basis):
        """Drawing every direction in one call and taking the step rule on
        the stack reports exactly what the per-trial loop reports."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for seed, t_scale in zip((0, 1, 2), (0.0, 1.0, 2.0)):
            for trials in (1, 40):
                got = verify_core_certificate(inst, rho, cert, trials=trials, seed=seed,
                                              t_scale=t_scale)
                expected = _replay_per_trial(inst, rho, cert, trials, seed, t_scale)
                assert dataclasses.astuple(got) == expected, (seed, t_scale, trials)

    def test_margin_columns_replay_full_grid(self):
        """P1 on the grid columns that meet the margin reports what the full
        grid does, also where 1074 columns meet it, not a multiple of 4, and
        an overdriven step puts the extreme among the last of them."""
        rho = pulse_density(0.4571)
        inst = instance_from_density(builtin_entropy("translated_boltzmann_shannon"),
                                     monomial_basis(6), build_rule((0.0, 1.0), (0.4571,)), rho)
        cert = build_core_certificate(inst, rho, 0.0, INF)
        for seed in (7, 8, 17):
            got = verify_core_certificate(inst, rho, cert, trials=40, seed=seed, t_scale=8.0)
            assert dataclasses.astuple(got) == _replay_per_trial(inst, rho, cert, 40, seed, 8.0)

    @pytest.mark.parametrize("entropy,basis,rho,band", [
        ("translated_boltzmann_shannon", monomial_basis(3), PULSE, (0.0, INF)),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
        ("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0)),
        ("boltzmann_shannon", monomial_basis(1), constant_density(0.5), (0.0, 1.0)),
    ], ids=["pulse-monomial3", "pulse-piecewise4", "constant-monomial4", "constant-monomial1"])
    def test_trial_blocks_replay_one_trial_at_a_time(self, entropy, basis, rho, band):
        """Trials stacked in blocks report, field for field, what the float64
        loop over one trial at a time does, for counts on both sides of a
        block edge and at every step scale; against the long-double replay
        the pass counts agree and the worst values to a few ulps."""
        from entromin.certificates import TRIAL_BLOCK

        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for trials in (1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 2 * TRIAL_BLOCK + 1, 100):
            for t_scale in (0.0, 1.0, 8.0):
                got = verify_core_certificate(inst, rho, cert, trials=trials, seed=trials,
                                              t_scale=t_scale)
                expected = _replay_per_trial(inst, rho, cert, trials, trials, t_scale)
                assert dataclasses.astuple(got) == expected, (trials, t_scale)
                exact = _replay_rebuilding_designs(inst, rho, cert, trials, trials, t_scale)
                assert (got.p1_passes, got.p2_passes) == (exact.p1_passes, exact.p2_passes)
                tol = 4 * np.finfo(float).eps * max(1.0, cert.clearance) * max(1.0, t_scale)
                assert abs(got.worst_p1_violation - exact.worst_p1_violation) <= tol
                assert abs(got.worst_p2_residual - exact.worst_p2_residual) <= tol

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 16, 33])
    def test_stacked_norm_equals_linalg_norm(self, n):
        """The direction norms as one stacked matmul, one dot per row, are
        np.linalg.norm's bit for bit, over a wide range of magnitudes."""
        etas = np.random.default_rng(n).standard_normal((100, n))
        etas *= np.logspace(-150, 150, 100)[:, None]
        stacked = np.sqrt(etas[:, None, :] @ etas[:, :, None])[:, 0, 0]
        assert stacked.tobytes() == np.array([np.linalg.norm(eta) for eta in etas]).tobytes()

    @pytest.mark.parametrize("trials", [1, 17, 100])
    def test_points_and_directions_built_once_per_verification(self, monkeypatch, trials):
        """One verification builds no points, it reads the certificate's, and
        evaluates the y_k once, in one long-double combination, for any
        number of trials."""
        from entromin import certificates

        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        calls = []
        for name in ("_verification_points", "_combine"):
            original = getattr(certificates, name)
            monkeypatch.setattr(certificates, name, lambda *args, _f=original, _n=name:
                                calls.append(_n) or _f(*args))
        verify_core_certificate(inst, PULSE, cert, trials=trials, seed=0)
        assert sorted(calls) == ["_combine"]

    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_verification_builds_no_rule_and_samples_x_once(self, monkeypatch, basis):
        """Verification replays on the points where the build confirmed the
        margin: it builds no quadrature rule and samples the density once,
        on the membership grid, and reports what it reports for the bare
        density."""
        from entromin import certificates, moments

        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        rules, sampled = [], []
        for module in (certificates, moments):
            monkeypatch.setattr(module, "build_rule",
                                lambda *args: rules.append(args) or build_rule(*args))

        def x(s):
            sampled.append(np.array(s))
            return PULSE(s)

        report = verify_core_certificate(inst, x, cert, trials=20, seed=3)
        assert rules == []
        assert len(sampled) == 1 and sampled[0].size > certificates.MEMBERSHIP_SAMPLES
        assert report == verify_core_certificate(inst, PULSE, cert, trials=20, seed=3)

    @pytest.mark.parametrize("one_sided", [False, True], ids=["core", "qri"])
    def test_prelude_samples_no_verification_nodes_alone(self, monkeypatch, one_sided):
        """The prelude reads x at the verification nodes from the tail of its
        membership-grid sample: no call samples the nodes alone."""
        from entromin import certificates

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        rules, sampled = [], []
        monkeypatch.setattr(certificates, "build_rule",   # the verification rule alone
                            lambda *args: rules.append(build_rule(*args)) or rules[-1])

        def x(s):
            sampled.append(np.array(s))
            return PULSE(s)

        *_, x_grid = certificates._margin_prelude(inst, x, 0.0, INF, one_sided=one_sided)
        [ver_rule] = rules
        assert not any(np.array_equal(s, ver_rule.nodes) for s in sampled)
        np.testing.assert_array_equal(x_grid[-ver_rule.nodes.size:], PULSE(ver_rule.nodes))

    def test_certificate_frozen_and_unchanged_by_verification(self):
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.delta = 0.0
        before = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
        arrays = [cert.sup_unit.copy(), *(np.copy(a) for a in cert.points[1:])]
        verify_core_certificate(inst, PULSE, cert, trials=10, seed=0)
        assert all(getattr(cert, name) is value for name, value in before.items())
        for array, now in zip(arrays, [cert.sup_unit, *cert.points[1:]]):
            np.testing.assert_array_equal(now, array)

    def test_no_trials_rejected(self):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        for trials in (0, -3):
            with pytest.raises(ValidationError):
                verify_core_certificate(inst, PULSE, cert, trials=trials)

    def test_bad_seed_and_t_scale_rejected(self):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            verify_core_certificate(inst, PULSE, cert, trials=3, seed=-1)
        for kw in ({"trials": 2.5}, {"seed": 1.5}, {"trials": float("nan")}, {"seed": INF}):
            with pytest.raises(ValidationError, match="must be a whole number"):
                verify_core_certificate(inst, PULSE, cert, **{"trials": 3, **kw})
        assert verify_core_certificate(inst, PULSE, cert, trials=3.0, seed=2.0).trials == 3
        for t_scale in (float("nan"), INF, -0.5):
            with pytest.raises(ValidationError, match="t_scale must be non-negative"):
                verify_core_certificate(inst, PULSE, cert, trials=3, t_scale=t_scale)
        assert verify_core_certificate(inst, PULSE, cert, trials=3, t_scale=0.0).all_passed

    def test_direction_functions_evaluated_once_per_point_set(self, monkeypatch):
        """The long-double evaluations do not grow with the number of trials."""
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        calls = []
        evaluator = DirectionFunctions.evaluator

        def counting_evaluator(self, s):
            evaluate = evaluator(self, s)
            return lambda *args, **kw: calls.append(1) or evaluate(*args, **kw)

        monkeypatch.setattr(DirectionFunctions, "evaluator", counting_evaluator)
        counts = []
        for trials in (3, 30):
            calls.clear()
            verify_core_certificate(inst, PULSE, cert, trials=trials, seed=0)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("t_scale", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("basis", [
        piecewise_flat_basis(2, 0.5), piecewise_flat_basis(4, 0.5), piecewise_flat_basis(6, 0.5),
        monomial_basis(2), monomial_basis(4), monomial_basis(6),
    ], ids=["piecewise2", "piecewise4", "piecewise6", "monomial2", "monomial4", "monomial6"])
    @pytest.mark.parametrize("entropy,rho,band", [
        ("translated_boltzmann_shannon", PULSE, (0.0, INF)),
        ("boltzmann_shannon", constant_density(0.5), (0.0, 1.0)),
    ], ids=["pulse", "constant"])
    def test_float64_combination_matches_long_double_replay(self, entropy, rho, band,
                                                            basis, t_scale):
        """Combining the y_k in float64 gives the pass counts of a per-trial
        long-double evaluation, and its worst values to a few ulps of the
        clearance (the bound on the perturbation).  At n=2 an overdriven
        step leaves the band in some trials, so P1 counts are compared too."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        expected = _replay_rebuilding_designs(inst, rho, cert, trials=40, seed=9,
                                              t_scale=t_scale)
        got = verify_core_certificate(inst, rho, cert, trials=40, seed=9, t_scale=t_scale)
        assert (got.p1_passes, got.p2_passes) == (expected.p1_passes, expected.p2_passes)
        tol = 4 * np.finfo(float).eps * max(1.0, cert.clearance)
        assert abs(got.worst_p1_violation - expected.worst_p1_violation) <= tol
        assert abs(got.worst_p2_residual - expected.worst_p2_residual) <= tol

    def test_overdriven_step_breaks_band_on_tight_margin(self):
        """Doubling t past the certified rule must leave the band when the
        margin is tight (constant density: clearance equals the certified
        step bound, so the exceedance is immediate)."""
        rho = constant_density(0.5)
        inst = make_instance("boltzmann_shannon", monomial_basis(1), rho)
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        ok = verify_core_certificate(inst, rho, cert, trials=20, seed=3)
        assert ok.all_passed
        overdriven = verify_core_certificate(inst, rho, cert, trials=20, seed=3, t_scale=2.0)
        assert overdriven.p1_passes == 0
        assert overdriven.worst_p1_violation > 0.4


class TestQriCertificate:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pulse_monomials_unit_band(self, n):
        inst = make_instance("boltzmann_shannon", monomial_basis(n), PULSE)
        cert = build_qri_certificate(inst, PULSE, 0.0, 1.0)
        assert cert.eps > 0.0
        assert cert.moment_match_residual <= 1e-8
        assert cert.margin.hi <= 0.5
        # independent recheck of the witness moments; the integration rule
        # must resolve the support endpoints of the correction term
        fine = build_rule((0.0, 1.0), tuple(sorted({0.5, cert.margin.lo, cert.margin.hi})))
        got = moment_vector(inst.basis, fine, cert.y)
        np.testing.assert_allclose(got, inst.target_moments, atol=2e-8)

    def test_interior_density_returns_itself(self):
        rho = constant_density(0.5)
        inst = make_instance("boltzmann_shannon", monomial_basis(3), rho)
        cert = build_qri_certificate(inst, rho, 0.0, 1.0)
        assert cert.m == 3  # clipping at 1/3 leaves the density untouched
        assert cert.correction_sup == 0.0
        grid = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(cert.y(grid), rho(grid))
        assert cert.eps == pytest.approx(0.5)

    def test_single_constant_moment(self):
        inst = make_instance("boltzmann_shannon", monomial_basis(1), PULSE)
        cert = build_qri_certificate(inst, PULSE, 0.0, 1.0)
        fine = build_rule((0.0, 1.0), tuple(sorted({0.5, cert.margin.lo, cert.margin.hi})))
        got = moment_vector(inst.basis, fine, cert.y)
        assert got[0] == pytest.approx(0.5, abs=1e-8)
        assert cert.eps > 0.0

    def test_half_line_band_clips_below_only(self):
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        cert = build_qri_certificate(inst, PULSE, 0.0, INF)
        assert cert.eps > 0.0
        assert cert.upper_clearance == INF
        assert cert.moment_match_residual <= 1e-8

    def test_scan_below_first_clip_level_rejected(self):
        inst = make_instance("boltzmann_shannon", monomial_basis(2), PULSE)
        with pytest.raises(ValidationError):
            build_qri_certificate(inst, PULSE, 0.0, 1.0, m_max=2)

    @pytest.mark.parametrize("band", [(-1.0, 2.0), (2.0, 1.0)], ids=["outside-domain", "empty"])
    def test_band_outside_entropy_domain_rejected(self, band):
        inst = make_instance("boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        with pytest.raises(ValidationError, match="is not contained in the domain"):
            build_qri_certificate(inst, PULSE, *band)

    def test_scanned_margin_touching_the_band_names_margin(self, monkeypatch):
        """The zeroed node makes delta 0: no clip level is solved for or scanned."""
        from entromin import certificates

        inst, rho = _pulse_zeroed_in_margin()
        monkeypatch.setattr(certificates, "_candidate_levels", None)
        with pytest.raises(CertificateError) as err:
            build_qri_certificate(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "margin interval"
        assert "is not strictly above 0.0" in str(err.value)

    def test_budget_exhaustion_reports_decay(self):
        # five monomials need the clipping level well past m = 100
        inst = make_instance("boltzmann_shannon", monomial_basis(5), PULSE)
        with pytest.raises(CertificateError) as err:
            build_qri_certificate(inst, PULSE, 0.0, 1.0, m_max=100)
        assert "defect decay" in str(err.value)
        assert err.value.hypothesis == "witness acceptance"

    @pytest.mark.parametrize("entropy,basis,rho,band,m_max", [
        ("boltzmann_shannon", monomial_basis(4), PULSE, (0.0, 1.0), 4000),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF), 4000),
        ("boltzmann_shannon", monomial_basis(3), constant_density(0.5), (0.0, 1.0), 4000),
        # the README config, whose witness lies past m = 44,000
        ("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE, (0.0, INF), 200),
        # the clipped set changes with m on the ramp and the bump
        ("boltzmann_shannon", monomial_basis(4), RAMP, (0.0, 1.0), 3000),
        ("translated_boltzmann_shannon", monomial_basis(5), RAMP, (0.0, INF), 4000),
        ("boltzmann_shannon", monomial_basis(3), BUMP, (0.0, 1.0), 4000),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), BUMP, (0.0, INF), 300),
        ("boltzmann_shannon", monomial_basis(6), PULSE, (0.0, 1.0), 400),
    ], ids=["pulse-monomial4", "pulse-piecewise4", "constant-monomial3", "readme-budget-200",
            "ramp-monomial4", "ramp-monomial5-half-line", "bump-monomial3",
            "bump-piecewise4-half-line", "pulse-monomial6-budget-400"])
    def test_screened_scan_replays_full_scan_exactly(self, entropy, basis, rho, band, m_max):
        """Solving for the candidate clip levels accepts the same m, with the
        same witness, as evaluating every level on the whole margin grid,
        and fails with the same message."""
        inst = make_instance(entropy, basis, rho)
        expected = _replay_full_scan(inst, rho, *band, m_max=m_max)
        if isinstance(expected, str):
            with pytest.raises(CertificateError) as err:
                build_qri_certificate(inst, rho, *band, m_max=m_max)
            assert str(err.value) == expected
            return
        cert = build_qri_certificate(inst, rho, *band, m_max=m_max)
        m, eps, correction_sup, residual, upper_clearance, y_grid = expected
        assert cert.m == m
        assert cert.eps == eps
        assert cert.correction_sup == correction_sup
        assert cert.moment_match_residual == residual
        assert cert.upper_clearance == upper_clearance
        np.testing.assert_array_equal(cert.y(np.linspace(0.0, 1.0, 777)), y_grid)
        if rho.kind == "constant":
            assert m == 3  # accepted at the first level, which clips nothing

    @pytest.mark.parametrize("entropy,basis,rho,band", [
        ("boltzmann_shannon", monomial_basis(4), PULSE, (0.0, 1.0)),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
        ("boltzmann_shannon", monomial_basis(4), RAMP, (0.0, 1.0)),
        ("translated_boltzmann_shannon", monomial_basis(5), RAMP, (0.0, INF)),
        ("boltzmann_shannon", monomial_basis(3), BUMP, (0.0, 1.0)),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), BUMP, (0.0, INF)),
        ("fermi_dirac", monomial_basis(4), RAMP, (0.0, 1.0)),
        # clip levels away from 0 on both sides: the |edge| term of the bound
        ("l2_norm", monomial_basis(4), PULSE, (-0.001, 1.001)),
    ], ids=["pulse-monomial4", "pulse-piecewise4-half-line", "ramp-monomial4",
            "ramp-monomial5-half-line", "bump-monomial3", "bump-piecewise4-half-line",
            "ramp-monomial4-fermi-dirac", "pulse-monomial4-l2-wide-band"])
    def test_candidate_levels_keep_every_passing_level(self, entropy, basis, rho, band):
        """Every level in [3, m_max] that is not handed to the exact path has
        an exact per-level sup|v| >= delta/2, and every level handed on
        passes, or the next one does (the solved interval is widened to whole
        levels)."""
        from entromin.certificates import _candidate_levels, _combine, _margin_prelude

        inst = make_instance(entropy, basis, rho)
        lower, upper = band
        m_max = 2000
        margin, directions, margin_design, points, x_grid = _margin_prelude(
            inst, rho, lower, upper, one_sided=True)
        ver_rule, ver_design, grid = points
        x_ver = x_grid[grid.size - ver_rule.nodes.size:]
        delta = margin.val_lo - lower

        def clip(values, m):
            if np.isfinite(upper):
                return np.clip(values, lower + (upper - lower) / m, upper - (upper - lower) / m)
            return np.maximum(values, lower + 1.0 / m)

        levels = np.arange(3, m_max + 1)
        coeffs = np.array([  # one level at a time: gemv defect, long-double coefficients
            np.asarray(ver_design @ (ver_rule.weights * (clip(x_ver, m) - x_ver)),
                       dtype=np.longdouble) @ directions.coeffs for m in levels])
        sups = np.concatenate([np.abs(_combine(coeffs[i:i + 250], margin_design)).max(axis=1)
                               for i in range(0, levels.size, 250)])
        # a stack gives each row's own full margin evaluation, bit for bit
        np.testing.assert_array_equal(
            sups[:4], [np.max(np.abs(_combine(c, margin_design))) for c in coeffs[:4]])
        passing = set(levels[sups < delta / 2.0].tolist())
        handed = list(_candidate_levels(x_ver, ver_rule.weights, ver_design, directions.coeffs,
                                        margin_design, lower, upper, delta, m_max))
        assert handed == sorted(set(handed)) and set(handed) <= set(levels.tolist())
        assert passing <= set(handed)
        assert all(m in passing or m + 1 in passing for m in handed)
        assert passing and min(passing) > 3  # the prediction rejects levels on each config

    @pytest.mark.parametrize("lost", [3, None], ids=["three-lost-then-accepted", "all-lost"])
    def test_levels_losing_clearance_reported_as_full_scan(self, monkeypatch, lost):
        """A level that passes sup|v| < delta/2 but whose witness has eps <= 0
        is skipped and named in the failure report, as the full scan does.  A
        confirmed margin leaves no such level on a real density, so a fake
        raises the correction by 2 on the membership grid for the first
        `lost` witnesses each scan checks (every one, for None)."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        evaluator, checked = DirectionFunctions.evaluator, []

        def raised_on_membership_grid(self, s):
            evaluate = evaluator(self, s)
            if not (s.size > MEMBERSHIP_SAMPLES and s[0] < self.margin.lo):
                return evaluate  # the margin grid, or a witness's own points

            def raised(coeffs):
                checked.append(None)
                return evaluate(coeffs) + (2.0 if lost is None or len(checked) <= lost else 0.0)

            return raised

        monkeypatch.setattr(DirectionFunctions, "evaluator", raised_on_membership_grid)
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        expected = _replay_full_scan(inst, PULSE, 0.0, INF, m_max=300)
        checked.clear()
        if lost is None:
            assert "m=300:" in expected and "m=299:" in expected  # rejected for clearance alone
            with pytest.raises(CertificateError) as err:
                build_qri_certificate(inst, PULSE, 0.0, INF, m_max=300)
            assert str(err.value) == expected
            return
        cert = build_qri_certificate(inst, PULSE, 0.0, INF, m_max=300)
        assert len(checked) == lost + 1
        m, eps, correction_sup, residual, upper_clearance, y_grid = expected
        assert (cert.m, cert.eps, cert.correction_sup, cert.moment_match_residual) == (
            m, eps, correction_sup, residual)
        np.testing.assert_array_equal(cert.y(np.linspace(0.0, 1.0, 777)), y_grid)

    def test_candidate_levels_spare_full_evaluations(self, monkeypatch):
        """On the README config the scan evaluates no clip level on the margin
        grid at the default budget, only the six of the failure report, and
        at m_max = 50000 it accepts m = 44103 after at most five."""
        from entromin import certificates

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        calls = []
        combine = certificates._combine

        def counted_combine(coeffs, design):
            calls.append(None)
            return combine(coeffs, design)

        monkeypatch.setattr(certificates, "_combine", counted_combine)
        with pytest.raises(CertificateError):
            build_qri_certificate(inst, PULSE, 0.0, INF, m_max=4000)
        assert len(calls) == 6
        calls.clear()
        assert build_qri_certificate(inst, PULSE, 0.0, INF, m_max=50000).m == 44103
        assert len(calls) <= 5

    @pytest.mark.parametrize("m_max,reported", [
        (10**8, list(range(99999875, 10**8 + 1, 25))),
        (10**8 + 24, list(range(99999875, 10**8 + 1, 25))),
        (110, [3, 25, 50, 75, 100]),
    ])
    def test_failure_report_costs_nothing_per_budget_level(self, m_max, reported):
        """The reported levels, the last six of m = 3 and the multiples of 25
        up to m_max, are found without listing the budget: a budget of 10**8
        levels fails in milliseconds."""
        import time

        rho = constant_density(1e-9)
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), rho)
        start = time.perf_counter()
        with pytest.raises(CertificateError) as err:
            build_qri_certificate(inst, rho, 0.0, INF, m_max=m_max)
        assert time.perf_counter() - start < 0.5
        assert [int(part.split(":")[0]) for part in str(err.value).split("m=")[2:]] == reported

    def test_readme_config_accepted_past_default_budget(self):
        """On the pulse, m * sup|v| stays near 22,050 for the README config,
        so the default budget of 4000 clip levels cannot reach a witness;
        acceptance comes at m = 44103."""
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        with pytest.raises(CertificateError):
            build_qri_certificate(inst, PULSE, 0.0, INF)
        cert = build_qri_certificate(inst, PULSE, 0.0, INF, m_max=50000)
        assert cert.m == 44103
        assert cert.eps > 0.0
        assert cert.correction_sup < 0.5
        assert cert.moment_match_residual <= 1e-8

    @pytest.mark.parametrize("entropy,basis,rho,band,m_max", [
        # the flat side makes all four moment defects equal, which costs a
        # correction sup of ~1040/(2m): acceptance lands just past m=1000
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF), 2000),
        ("boltzmann_shannon", monomial_basis(3), constant_density(0.5), (0.0, 1.0), 1000),
        ("translated_boltzmann_shannon", monomial_basis(3), PULSE, (0.0, INF), 1000),
    ])
    def test_qri_success_implies_core_success(self, entropy, basis, rho, band, m_max):
        """Both certificates hinge on the same two local hypotheses, so on
        densities admitting a two-sided margin they stand or fall together."""
        inst = make_instance(entropy, basis, rho)
        qri = build_qri_certificate(inst, rho, *band, m_max=m_max)
        assert qri.eps > 0.0
        core = build_core_certificate(inst, rho, *band)
        report = verify_core_certificate(inst, rho, core, trials=25, seed=11)
        assert report.all_passed
