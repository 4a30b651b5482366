"""Margin intervals, direction functions, and both duality certificates."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from entromin.moments import IndependenceReport, MomentBasis, moment_vector, tabulated_basis
from entromin.quadrature import nodes_in

RULE = build_rule((0.0, 1.0), (0.5,))
PULSE = pulse_density(0.5)
RAMP = Density(kind="ramp", fn=lambda s: np.asarray(s, dtype=float))
BUMP = Density(kind="bump", fn=lambda s: 4.0 * np.asarray(s, dtype=float) * (1.0 - np.asarray(s)))
INF = float("inf")


def make_instance(entropy_name, basis, rho):
    return instance_from_density(builtin_entropy(entropy_name), basis, RULE, rho)


def _scaled(directions, eta):
    """The y_k of `directions` for the direction eta: row k scaled by eta_k."""
    return dataclasses.replace(directions,
                               coeffs=np.asarray(eta, dtype=float)[:, None] * directions.coeffs)


def _overdriven(cert, k):
    """`cert` with its step rule driven k times as far: k times the clearance."""
    return dataclasses.replace(cert, clearance=k * cert.clearance)


def _phi_at(directions, s):
    """The phi_j the y_k expand over, at the points s, shape (n, len(s))."""
    from entromin.certificates import _phi

    return _phi(directions.margin, directions.basis, directions.factor, s)


def _quadrature_p2(instance, x, cert, steps):
    """P2 the direct way: the moments of each perturbed density x + s @ y
    integrated on the margin rule, less b + s, one residual per row of
    `steps`.  Returns the residuals and, per trial, a rounding bound on their
    distance from verification's linear form |e + (D - I)^T s|.

    Both compute A(w(x + s @ y)) - b - s, a sum of at most N + 2n + 6 rounded
    terms (N nodes of the margin rule, n moments; the y_k themselves are
    each n rounded terms of C @ phi, evaluated once or per trial), each a
    product of at most three factors, so each lies within gamma = (N + 2n +
    6) * eps of it in units of the summed magnitudes |A| @ (w * (|x| +
    |s| @ |C| @ |phi|)) + |b| + |s|, and the two within twice that."""

    rule, directions = cert.directions.rule, cert.directions
    design = instance.basis(rule.nodes)
    x_ver = np.asarray(x(rule.nodes), dtype=float)
    y_ver = directions(rule.nodes)
    inside = (rule.nodes >= cert.margin.lo) & (rule.nodes <= cert.margin.hi)
    spread = np.zeros_like(y_ver)
    spread[:, inside] = np.abs(directions.coeffs) @ np.abs(_phi_at(directions, rule.nodes[inside]))
    gamma = (rule.nodes.size + 2 * instance.n + 6) * np.finfo(float).eps
    residuals, bounds = [], []
    for step in steps:
        moments = design @ (rule.weights * (x_ver + step @ y_ver))
        residuals.append(float(np.max(np.abs(moments - (instance.target_moments + step)))))
        sizes = (np.abs(design) @ (rule.weights * (np.abs(x_ver) + np.abs(step) @ spread))
                 + np.abs(instance.target_moments) + np.abs(step))
        bounds.append(2.0 * gamma * float(np.max(sizes)))
    return np.array(residuals), np.array(bounds)


def _replay(instance, x, cert, steps, p1_violations):
    """(trials, P1 passes, P2 passes, worst P1 violation, worst P2 residual)
    of a replay, with P2 by quadrature, and its P2 rounding bound."""
    from entromin.certificates import P1_SLACK, P2_TOL

    residuals, bounds = _quadrature_p2(instance, x, cert, steps)
    violations = np.array(p1_violations)
    return ((len(steps), int(np.count_nonzero(violations <= P1_SLACK)),
             int(np.count_nonzero(residuals <= P2_TOL)), float(violations.max()),
             float(residuals.max())), float(bounds.max()))


def _assert_replays(got, replay, p1_tol=0.0):
    """Verification against a replay: the counts exactly, the worst P1
    violation to `p1_tol` (exactly by default), the worst P2 residual within
    the replay's rounding bound."""
    (trials, p1, p2, worst_p1, worst_p2), bound = replay
    assert (got.trials, got.p1_passes, got.p2_passes) == (trials, p1, p2)
    assert abs(got.worst_p1_violation - worst_p1) <= p1_tol
    assert abs(got.worst_p2_residual - worst_p2) <= bound


def _replay_rebuilding_designs(instance, x, cert, trials, seed):
    """Core verification the direct way: each trial's perturbation is
    expanded as one set of coefficients and evaluated on the membership
    grid, with the y_k design rebuilt on every trial; P2 by quadrature."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    def evaluate(s, coeffs):
        inside = (s >= cert.margin.lo) & (s <= cert.margin.hi)
        return np.where(inside, coeffs @ _phi_at(cert.directions, s), 0.0)

    rng = np.random.default_rng(seed)
    grid = np.concatenate([np.linspace(*instance.rule.interval, MEMBERSHIP_SAMPLES + 2),
                           cert.directions.rule.nodes])
    x_grid = np.asarray(x(grid), dtype=float)
    steps, violations = [], []
    for _ in range(trials):
        eta = rng.standard_normal(instance.n)
        eta /= np.linalg.norm(eta)
        t = cert.t_for(eta)
        perturbed = x_grid + evaluate(grid, t * (eta @ cert.directions.coeffs))
        violation = max(float(np.max(cert.lower - perturbed)), 0.0)
        if np.isfinite(cert.upper):
            violation = max(violation, float(np.max(perturbed - cert.upper)))
        violations.append(violation)
        steps.append(t * eta)
    return _replay(instance, x, cert, np.array(steps), violations)


def _replay_per_trial(instance, x, cert, trials, seed):
    """Core verification one direction at a time: a draw, np.linalg.norm
    and the scalar step rule per trial, P1 as the max over the grid of
    lower - p and p - upper; P2 by quadrature."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    rng = np.random.default_rng(seed)
    grid = np.concatenate([np.linspace(*instance.rule.interval, MEMBERSHIP_SAMPLES + 2),
                           cert.directions.rule.nodes])
    x_grid = np.asarray(x(grid), dtype=float)
    y_grid = cert.directions(grid)
    steps, violations = [], []
    for _ in range(trials):
        eta = rng.standard_normal(instance.n)
        eta /= np.linalg.norm(eta)
        step = cert.t_for(eta) * eta
        perturbed = x_grid + step @ y_grid
        violations.append(max(float(np.max(cert.lower - perturbed)),
                              float(np.max(perturbed - cert.upper)), 0.0))
        steps.append(step)
    return _replay(instance, x, cert, np.array(steps), violations)


def _replay_full_scan(instance, x, lower, upper, m_max):
    """The qri clip-level scan the direct way: the correction is evaluated
    on the whole margin grid at every m.  Returns (m, eps, correction_sup,
    moment_match_residual, upper_clearance, y on a grid), or the message of
    the CertificateError the scan ends with."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    basis, rule = instance.basis, instance.rule
    margin = find_margin_interval(x, lower, upper, rule.interval, breakpoints=rule.breakpoints,
                                  nodes=rule.nodes, one_sided=True)
    delta = margin.val_lo - lower
    directions = build_direction_functions(basis, rule, margin)
    ver_rule = directions.rule
    ver_design = basis(ver_rule.nodes)
    x_ver = np.asarray(x(ver_rule.nodes), dtype=float)
    margin_grid = np.concatenate([np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES),
                                  nodes_in(ver_rule, margin.lo, margin.hi)[0]])
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
        coeffs = defect @ directions.coeffs
        sup_v = float(np.max(np.abs(directions(margin_grid, coeffs))))
        if sup_v >= delta / 2.0:
            if m == 3 or m % 25 == 0:
                history.append((m, float(np.max(np.abs(defect))), sup_v))
            continue
        y_full = clip(x_full, m) - directions(full_grid, coeffs)
        eps = float(np.min(y_full - lower))
        if eps <= 0.0:
            history.append((m, float(np.max(np.abs(defect))), sup_v))
            continue

        def y(s):
            return clip(np.asarray(x(s), dtype=float), m) - directions(s, coeffs)

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
    from entromin.certificates import MEMBERSHIP_SAMPLES

    if where == "node":
        margin = find_margin_interval(PULSE, 0.0, INF, RULE.interval,
                                      breakpoints=RULE.breakpoints, nodes=RULE.nodes)
        nodes = build_direction_functions(basis, RULE, margin).rule.nodes
        points = nodes[(nodes > margin.lo) & (nodes < margin.hi)][:1]
    else:
        grid = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)
        points = grid[(grid > 0.0) & (grid < 0.5)][::9]
    rho = Density(kind="marked",
                  fn=lambda s: np.where(np.isin(np.asarray(s), points), value, PULSE(s)))
    return make_instance("translated_boltzmann_shannon", basis, rho), rho


BASES_34 = [monomial_basis(3), piecewise_flat_basis(4, 0.5)]

README_MARGIN = MarginInterval(0.00024975024975024975, 0.49975024975024973, 1.0, 1.0)


def _exact_monomial_dual_basis(n, lo, hi, s):
    """The dual basis of 1, s, ..., s**(n-1) on [lo, hi] at the points s, in
    exact rational arithmetic: the exact Gram matrix inverted by Gauss-Jordan,
    each y_k summed by Horner's rule, then rounded once to float64."""
    lo, hi = Fraction(lo), Fraction(hi)
    rows = [[(hi ** (i + j + 1) - lo ** (i + j + 1)) / (i + j + 1) for j in range(n)]
            + [Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    inverse = [row[n:] for row in rows]
    values = np.empty((n, len(s)))
    for i, point in enumerate(map(Fraction, s)):
        for k in range(n):
            acc = Fraction(0)
            for c in reversed(inverse[k]):
                acc = acc * point + c
            values[k, i] = float(acc)
    return values


SCREENED_CONFIGS = [
    ("boltzmann_shannon", monomial_basis(4), PULSE, (0.0, 1.0)),
    ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
    ("boltzmann_shannon", monomial_basis(4), RAMP, (0.0, 1.0)),
    ("translated_boltzmann_shannon", monomial_basis(5), RAMP, (0.0, INF)),
    ("boltzmann_shannon", monomial_basis(3), BUMP, (0.0, 1.0)),
    ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), BUMP, (0.0, INF)),
    ("fermi_dirac", monomial_basis(4), RAMP, (0.0, 1.0)),
    # clip levels away from 0 on both sides: the |edge| term of the bound
    ("l2_norm", monomial_basis(4), PULSE, (-0.001, 1.001)),
]
SCREENED_IDS = ["pulse-monomial4", "pulse-piecewise4-half-line", "ramp-monomial4",
                "ramp-monomial5-half-line", "bump-monomial3", "bump-piecewise4-half-line",
                "ramp-monomial4-fermi-dirac", "pulse-monomial4-l2-wide-band"]


def _scan_inputs(entropy, basis, rho, band):
    """The arguments `build_qri_certificate` hands `_candidate_levels`, but
    m_max, from the prelude of the instance."""
    from entromin.certificates import _margin_prelude

    inst = make_instance(entropy, basis, rho)
    directions, grid, x_grid = _margin_prelude(inst, rho, *band, one_sided=True)
    x_ver = x_grid[grid.size - directions.rule.nodes.size:]
    return [x_ver, directions.rule.weights, directions.basis_design, directions.coeffs,
            directions.margin_design, *band, directions.margin.val_lo - band[0]]


def _galloping_candidate_levels(x_ver, weights, ver_design, coeffs, margin_design,
                                lower, upper, delta, m_max):
    """`_candidate_levels` with each piece's end found by galloping and
    bisecting from the piece's first level, one clipped-set comparison per
    probe: the reference the predicted piece ends must reproduce."""
    gamma = 2.0 * (x_ver.size + 2 * coeffs.shape[0] + 8) * np.finfo(float).eps
    width = upper - lower if np.isfinite(upper) else 1.0
    spread = np.abs(coeffs) @ np.abs(margin_design)

    def sides(k):
        return np.sign(np.clip(x_ver, lower + width / k, upper - width / k) - x_ver)

    m = 3
    while m <= m_max:
        side = sides(m)
        if not side.any():  # nothing is clipped at m or after it: v = 0
            yield from range(m, m_max + 1)
            return
        end, step = m, 1
        while step:
            grow = end + step <= m_max and np.array_equal(sides(end + step), side)
            end, step = (end + step, 2 * step) if grow else (end, step // 2)
        edge = np.where(side > 0, lower, np.where(side < 0, upper, 0.0))
        clipped = weights * np.abs(side)
        rows = clipped * np.array([width * side, edge - x_ver])
        sizes = clipped * np.array([np.full(side.shape, width), np.abs(edge) + np.abs(x_ver)])
        v = (rows @ ver_design.T) @ coeffs @ margin_design
        err = gamma * ((sizes @ np.abs(ver_design).T) @ spread + np.abs(v) + [[0], [delta / 2]])
        bound = delta / 2 + err[1]  # t*alpha < beta: v < delta/2 + err and -v < delta/2 + err
        alpha = np.concatenate([v[0] - err[0], -v[0] - err[0]])
        beta = np.concatenate([bound - v[1], bound + v[1]])
        up, down = alpha > 0, alpha < 0
        t_hi = float((beta[up] / alpha[up]).min(initial=np.inf))
        t_lo = float((beta[down] / alpha[down]).max(initial=0.0))
        if t_lo < t_hi and 1.0 / t_hi <= end and np.all(beta[alpha == 0] > 0):
            last = min(1.0 / t_lo, end) if t_lo > 0 else end
            yield from range(max(m, int(1.0 / t_hi)), int(np.ceil(last)) + 1)
        m = end + 1


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
        """The pulse at -1 on one membership-grid point off the margin:
        `within_bounds` samples the grid P1 checks, so it sees the dip, and
        core names the band before any trial, instead of building clearance
        1.0 that fails P1 every time."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        point = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)[1202]
        rho = Density(kind="dip", fn=lambda s: np.where(np.asarray(s) == point, -1.0, PULSE(s)))
        inst = make_instance("translated_boltzmann_shannon", basis, rho)
        assert not within_bounds(inst.entropy, rho, 0.0, INF, RULE)
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
        directions = _scaled(build_direction_functions(basis, RULE, margin), [2.0])
        inside = directions(np.array([0.1, 0.3, 0.49]))
        np.testing.assert_allclose(inside, 4.0, rtol=1e-12)
        outside = directions(np.array([0.6, 0.9]))
        np.testing.assert_allclose(outside, 0.0, atol=0.0)
        ips = direction_inner_products(directions)
        np.testing.assert_allclose(ips, [[2.0]], rtol=1e-12)

    def test_two_monomials_projection(self):
        # project a_1 off a_2 on [0,1]: v = a_1 - (3/2) a_2, <a_1,v> = 1/4,
        # so y_1 = 4 a_1 - 6 a_2 and y_2 = 0
        basis = monomial_basis(2)
        margin = MarginInterval(0.0, 1.0, 0.5, 0.5)
        directions = _scaled(build_direction_functions(basis, RULE, margin), [1.0, 0.0])
        s = np.linspace(0.0, 1.0, 11)
        values = directions(s)
        np.testing.assert_allclose(values[0], 4.0 - 6.0 * s, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(values[1], 0.0)
        ips = direction_inner_products(directions)
        assert abs(ips[0, 1]) <= 1e-10
        assert ips[0, 0] == pytest.approx(1.0, rel=1e-12)

    # bounds on the error relative to sup|y_k|: 4e-15 up to n = 4, then about
    # 2.5x the float64 construction's error, but 6.5e-15 at n = 5
    ORACLE_TOL = {2: 4e-15, 3: 4e-15, 4: 4e-15, 5: 6.5e-15, 6: 4e-14, 7: 2.5e-13, 8: 3e-13}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_monomials_match_exact_dual_basis(self, n, monkeypatch):
        """On the README margin each y_k agrees with the exact rational dual
        basis to ORACLE_TOL relative to its sup.  The independence threshold
        rejects n = 7 and 8 there, so it is bypassed for them."""
        from entromin import certificates

        if n >= 7:
            monkeypatch.setattr(certificates, "linearly_independent_on",
                                lambda *args: IndependenceReport(True, 1.0, 0.0))
        directions = build_direction_functions(monomial_basis(n), RULE, README_MARGIN)
        assert directions.factor is None  # Legendre polynomials
        s = np.linspace(README_MARGIN.lo, README_MARGIN.hi, 301)
        exact = _exact_monomial_dual_basis(n, README_MARGIN.lo, README_MARGIN.hi, s)
        error = np.abs(directions(s) - exact).max(axis=1)
        assert np.max(error / np.abs(exact).max(axis=1)) <= self.ORACLE_TOL[n]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_legendre_rows_are_legvander(self, data, n):
        """The Legendre rows are legvander's, bit for bit and in its memory
        order (C order (n, N)), at any points of any margin."""
        from entromin.certificates import _phi

        ends = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2, unique=True))
        lo, hi = sorted(ends)
        s = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=50)))
        margin = MarginInterval(lo, hi, 1.0, 1.0)
        rows = _phi(margin, monomial_basis(n), None, s)
        u = (2.0 * s - (lo + hi)) / (hi - lo)
        expected = np.polynomial.legendre.legvander(u, n - 1).T
        assert rows.tobytes() == expected.tobytes()
        assert (rows.shape, rows.strides) == (expected.shape, expected.strides)
        assert rows.flags.c_contiguous and expected.flags.c_contiguous

    def test_legendre_rows_have_legvanders_zeros(self):
        """legvander adds +0.0 to its points, so at -0.0, the centre of the
        margin, its row 1 holds +0.0; so must _phi's."""
        from entromin.certificates import _phi

        u = np.array([-0.0, 0.0, -1.0, 1.0, -0.5])
        rows = _phi(MarginInterval(-1.0, 1.0, 1.0, 1.0), monomial_basis(4), None, u)
        assert rows.tobytes() == np.polynomial.legendre.legvander(u, 3).T.tobytes()

    @pytest.mark.parametrize("basis,margin", [
        (monomial_basis(6), README_MARGIN),
        (piecewise_flat_basis(4, 0.5), MarginInterval(0.25, 0.75, 1.0, 1.0)),
    ], ids=["legendre", "orthonormalized"])
    def test_margin_design_is_phi_on_the_margin_grid(self, basis, margin):
        """`margin_design`, from the one evaluation of the phi_j that also
        gave M, equals a fresh evaluation on the margin grid bit for bit."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        directions = build_direction_functions(basis, RULE, margin)
        grid = np.concatenate([np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES),
                               nodes_in(directions.rule, margin.lo, margin.hi)[0]])
        fresh = _phi_at(directions, grid)
        assert directions.margin_design.tobytes() == fresh.tobytes()
        assert directions.margin_design.flags.c_contiguous

    @pytest.mark.parametrize("basis,margin", [
        (monomial_basis(6), README_MARGIN),
        (piecewise_flat_basis(4, 0.5), MarginInterval(0.25, 0.75, 1.0, 1.0)),
    ], ids=["legendre", "orthonormalized"])
    def test_basis_design_is_the_basis_at_the_rule_nodes(self, basis, margin):
        """`basis_design`, from the one evaluation of the a_k that also gave
        the independence check and M, is the basis at every node of the
        margin rule, bit for bit."""

        directions = build_direction_functions(basis, RULE, margin)
        fresh = basis(directions.rule.nodes)
        assert directions.basis_design.tobytes() == fresh.tobytes()
        assert directions.basis_design.shape == fresh.shape

    def test_one_call_evaluates_the_y_k_and_their_expansions(self):
        """Called with points alone the y_k come back, one row each; with
        coefficients of shape (n,) or (k, n) their expansions, one value or
        row each, which for the y_k's own coefficients are the y_k, bit for
        bit; zero outside the margin either way."""
        directions = _scaled(build_direction_functions(monomial_basis(3), RULE,
                                                       MarginInterval(0.1, 0.6, 0.1, 0.6)),
                             [1.0, -2.0, 0.5])
        s = np.linspace(0.0, 1.0, 301)
        rows = directions(s)
        assert rows.shape == (3, s.size)
        assert rows.tobytes() == directions(s, directions.coeffs).tobytes()
        single = directions(s, directions.coeffs[1])
        assert single.shape == s.shape
        outside = (s < 0.1) | (s > 0.6)
        assert not rows[:, outside].any() and not single[outside].any()

    @pytest.mark.parametrize("basis,margin,legendre", [
        (monomial_basis(6), README_MARGIN, True),
        (piecewise_flat_basis(6, 0.5), README_MARGIN, True),
        (piecewise_flat_basis(1, 0.5), MarginInterval(0.5, 1.0, 1.0, 1.0), True),
        (piecewise_flat_basis(4, 0.5), MarginInterval(0.25, 0.75, 1.0, 1.0), False),
        (monomial_basis(3), MarginInterval(0.1, 0.9, 1.0, 1.0), True),
    ], ids=["monomial6", "piecewise6", "flat-side-n1", "piecewise4-across-split", "monomial3"])
    def test_expansion_functions_follow_the_family(self, basis, margin, legendre):
        """Legendre polynomials where they reproduce the a_k on the margin,
        the orthonormalized a_k across a split; the y_k are the dual basis
        either way."""
        rng = np.random.default_rng(3)
        eta = rng.standard_normal(basis.n)
        directions = _scaled(build_direction_functions(basis, RULE, margin), eta)
        assert (directions.factor is None) is legendre
        defect = direction_inner_products(directions) - np.diag(eta)
        assert np.max(np.abs(defect)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_tabulated_monomials_certify_on_the_family(self, tmp_path, n):
        """Monomials tabulated on 401 samples are piecewise linear, so the y_k
        expand over the orthonormalized a_k, which keeps their orthogonality
        defect near rounding, and the core certificate on the pulse passes
        every trial."""
        s = np.linspace(0.0, 1.0, 401)
        path = tmp_path / "basis.txt"
        np.savetxt(path, np.column_stack([s] + [s ** k for k in range(n)]))
        inst = make_instance("translated_boltzmann_shannon", tabulated_basis(path), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        assert cert.directions.factor is not None
        defect = direction_inner_products(cert.directions) - np.eye(n)
        assert np.max(np.abs(defect)) <= 1e-11
        assert verify_core_certificate(inst, PULSE, cert, trials=100, seed=3).all_passed

    @pytest.mark.parametrize("n", [4, 6])
    def test_dual_basis_on_the_rule_that_verifies_it(self, tmp_path, n):
        """A candidate margin across a declared kink of a tabulated density:
        the y_k are built on the instance rule refined at the margin ends,
        the rule core verification integrates them on, so <y_k, a_j> there is
        the identity to rounding (built on the basis breakpoints alone, they
        missed it by 7.7e-4 for n = 4 and 1.3e-1 for n = 6)."""
        from entromin.densities import tabulated_density

        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(n)]))
        (tmp_path / "rho.txt").write_text("# breakpoints: 0.3\n0 0.5\n0.3 1.0\n1 0.5\n")
        basis = tabulated_basis(tmp_path / "basis.txt")
        rho = tabulated_density(tmp_path / "rho.txt")
        inst = instance_from_density(builtin_entropy("translated_boltzmann_shannon"), basis,
                                     build_rule((0.0, 1.0), rho.breakpoints), rho)
        cert = build_core_certificate(inst, rho, 0.0, INF, candidate_interval=(0.1, 0.9))
        ver = cert.directions.rule
        assert ver.breakpoints == (0.1, 0.3, 0.9)
        products = ((cert.directions(ver.nodes) * ver.weights)
                    @ basis(ver.nodes).T)
        assert np.max(np.abs(products - np.eye(n))) <= 1e-12

    def test_inner_products_audit_the_evaluation(self):
        """The inner products integrate the y_k as calling them gives them:
        the same coefficients over a wrongly mapped margin show a defect."""
        directions = build_direction_functions(monomial_basis(4), RULE, README_MARGIN)
        np.testing.assert_allclose(direction_inner_products(directions), np.eye(4),
                                   rtol=0.0, atol=1e-12)
        shifted = dataclasses.replace(README_MARGIN, hi=0.45)
        defect = direction_inner_products(dataclasses.replace(directions, margin=shifted))
        assert np.max(np.abs(defect - np.eye(4))) > 0.1

    def test_zero_direction_gives_zero_functions(self):
        basis = monomial_basis(3)
        margin = MarginInterval(0.0, 0.5, 1.0, 1.0)
        directions = _scaled(build_direction_functions(basis, RULE, margin), np.zeros(3))
        assert np.all(np.asarray(directions.coeffs) == 0.0)

    def test_dependent_family_rejected(self):
        basis = piecewise_flat_basis(3, 0.5)
        margin = MarginInterval(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(DependentBasisError):
            build_direction_functions(basis, RULE, margin)

    @pytest.mark.parametrize("basis,margin", [
        (monomial_basis(2), MarginInterval(0.0, 1.0, 0.5, 0.5)),
        (monomial_basis(4), MarginInterval(0.25, 0.75, 0.25, 0.75)),
        (piecewise_flat_basis(4, 0.5), MarginInterval(0.0, 0.5, 1.0, 1.0)),
        (piecewise_flat_basis(6, 0.5), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
    ])
    def test_orthogonality_for_random_directions(self, basis, margin):
        rng = np.random.default_rng(2024)
        worst, unit = 0.0, build_direction_functions(basis, RULE, margin)
        for _ in range(50):
            eta = rng.standard_normal(basis.n)
            directions = _scaled(unit, eta)
            defect = direction_inner_products(directions) - np.diag(eta)
            worst = max(worst, float(np.max(np.abs(defect))))
        assert worst <= 1e-8

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("family", [monomial_basis, lambda n: piecewise_flat_basis(n, 0.9)],
                             ids=["monomial", "piecewise"])
    def test_directions_linear_in_eta(self, family, n):
        """The unit-direction y_k with row k scaled by eta_k are the y_k for
        eta: <y_k, a_j> = eta_k on the diagonal and 0 off it, rows where eta
        is zero exactly 0, and their sum is the expansion of eta over the
        unit coefficients to rounding."""
        basis, rule = family(n), build_rule((0.0, 1.0), (0.9,))
        unit = build_direction_functions(basis, rule, MarginInterval(0.0, 0.9, 1.0, 1.0))
        s = np.linspace(0.0, 1.0, 301)
        rng = np.random.default_rng(n)
        for eta in (np.ones(n), rng.standard_normal(n) * (np.arange(n) % 3 != 1),
                    np.where(np.arange(n) == n - 1, -2.5, 0.0), np.zeros(n)):
            directions = _scaled(unit, eta)
            defect = direction_inner_products(directions) - np.diag(eta)
            assert np.max(np.abs(defect)) <= 1e-8
            rows = directions(s)
            assert np.all(directions.coeffs[eta == 0.0] == 0.0) and np.all(rows[eta == 0.0] == 0.0)
            size = max(1.0, float(np.max(np.abs(rows))))
            combined = unit(s, eta @ unit.coeffs)
            assert np.all(np.abs(combined - rows.sum(axis=0)) <= 4 * n * np.finfo(float).eps * size)


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

    def test_unit_step_follows_the_clearance(self):
        """`t_unit` is the step rule at the sup bound, bit for bit, also for a
        certificate over-driven through its clearance."""
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        at_bound = np.eye(4)[np.argmax(cert.sup_unit)]
        for k in (1.0, 2.0):
            driven = _overdriven(cert, k)
            assert driven.delta_for(at_bound) == driven.delta
            assert driven.t_unit == driven.t_for(at_bound) > 0.0

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

        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        ver = cert.directions.rule
        design = inst.basis(ver.nodes)
        x_ver = PULSE(ver.nodes)
        for k in range(4):
            eta = np.zeros(4)
            eta[k] = 1.0
            t = cert.t_for(eta)
            y_ver = cert.directions(ver.nodes, t * (eta @ cert.directions.coeffs))
            shift = design @ (ver.weights * (x_ver + y_ver)) - inst.target_moments
            assert np.max(np.abs(shift - t * eta)) <= 1e-10

    def test_combined_evaluation_matches_row_sum(self):
        basis = monomial_basis(3)
        margin = MarginInterval(0.1, 0.6, 0.1, 0.6)
        directions = _scaled(build_direction_functions(basis, RULE, margin), [1.0, -2.0, 0.5])
        s = np.linspace(0, 1, 301)
        weights = np.array([[1.0, 1.0, 1.0], [0.5, -3.0, 2.0]])
        block = directions(s, weights @ directions.coeffs)
        assert block.shape == (2, s.size)
        rows = directions(s)
        for w, got in zip(weights, block):
            np.testing.assert_allclose(got, (w[:, None] * rows).sum(axis=0),
                                       rtol=1e-12, atol=1e-12)
        # a single expansion evaluates to the matching row of the block, to
        # rounding: BLAS takes one row as gemv and a block as gemm.  Each side
        # is two length-n products, each within n*eps of its sum of magnitudes.
        inside = (s >= margin.lo) & (s <= margin.hi)
        size = np.zeros_like(s)
        size[inside] = ((np.abs(weights[1]) @ np.abs(directions.coeffs))
                        @ np.abs(_phi_at(directions, s[inside])))
        single = directions(s, weights[1] @ directions.coeffs)
        assert np.all(np.abs(single - block[1]) <= 4 * basis.n * np.finfo(float).eps * size)

    @pytest.mark.parametrize("entropy,basis,rho,band,k", [
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF), 1.0),
        ("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0), 1.0),
        ("boltzmann_shannon", monomial_basis(1), constant_density(0.5), (0.0, 1.0), 2.0),
    ], ids=["pulse-piecewise4", "constant-monomial4", "overdriven-control"])
    def test_designs_built_once_replay_exactly(self, entropy, basis, rho, band, k):
        """Verification with its designs built once reports exactly the counts
        and worst P1 violation of a replay rebuilding the design on every
        trial, and its linear P2 residual within rounding of that replay's
        per-trial quadrature."""
        inst = make_instance(entropy, basis, rho)
        cert = _overdriven(build_core_certificate(inst, rho, *band), k)
        expected = _replay_rebuilding_designs(inst, rho, cert, trials=40, seed=9)
        got = verify_core_certificate(inst, rho, cert, trials=40, seed=9)
        _assert_replays(got, expected)
        if k > 1.0:
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
        the stack reports the counts and worst P1 violation of the per-trial
        loop exactly, and P2 within rounding of its quadrature."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for seed, k in zip((0, 1, 2), (0.0, 1.0, 2.0)):
            driven = _overdriven(cert, k)
            for trials in (1, 40):
                got = verify_core_certificate(inst, rho, driven, trials=trials, seed=seed)
                _assert_replays(got, _replay_per_trial(inst, rho, driven, trials, seed))

    def test_margin_columns_replay_full_grid(self):
        """P1 on the grid columns that meet the margin reports what the full
        grid does, also where 1074 columns meet it, not a multiple of 4, and
        an overdriven step puts the extreme among the last of them."""
        rho = pulse_density(0.4571)
        inst = instance_from_density(builtin_entropy("translated_boltzmann_shannon"),
                                     monomial_basis(6), build_rule((0.0, 1.0), (0.4571,)), rho)
        cert = _overdriven(build_core_certificate(inst, rho, 0.0, INF), 8.0)
        for seed in (7, 8, 17):
            got = verify_core_certificate(inst, rho, cert, trials=40, seed=seed)
            _assert_replays(got, _replay_per_trial(inst, rho, cert, 40, seed))

    @pytest.mark.parametrize("entropy,basis,rho,band", [
        ("translated_boltzmann_shannon", monomial_basis(3), PULSE, (0.0, INF)),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
        ("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0)),
        ("boltzmann_shannon", monomial_basis(1), constant_density(0.5), (0.0, 1.0)),
    ], ids=["pulse-monomial3", "pulse-piecewise4", "constant-monomial4", "constant-monomial1"])
    def test_trial_blocks_replay_one_trial_at_a_time(self, entropy, basis, rho, band):
        """Trials stacked in blocks report the counts and worst P1 violation
        of the float64 loop over one trial at a time, for counts on both sides
        of a block edge and at every step scale, and P2 within rounding of its
        quadrature; against the replay that expands each perturbation as one
        set of coefficients the pass counts agree and the worst P1 violation
        to a few ulps."""
        from entromin.certificates import TRIAL_BLOCK

        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for trials in (1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 1, 2 * TRIAL_BLOCK + 1, 100):
            for k in (0.0, 1.0, 8.0):
                driven = _overdriven(cert, k)
                got = verify_core_certificate(inst, rho, driven, trials=trials, seed=trials)
                _assert_replays(got, _replay_per_trial(inst, rho, driven, trials, trials))
                tol = 4 * np.finfo(float).eps * max(1.0, cert.clearance) * max(1.0, k)
                exact = _replay_rebuilding_designs(inst, rho, driven, trials, trials)
                _assert_replays(got, exact, p1_tol=tol)

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
        """Verification builds no points and no design of the basis or the
        y_k, and evaluates no y_k, for any number of trials: the build made
        them once, and verification reads the certificate's."""
        from entromin import certificates

        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        calls = []
        for owner, name in ((certificates, "refine_rule"), (MomentBasis, "__call__"),
                            (certificates, "_phi"), (DirectionFunctions, "__call__")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name:
                                calls.append(_n) or _f(*args))
        verify_core_certificate(inst, PULSE, cert, trials=trials, seed=0)
        assert calls == []

    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_verification_builds_no_rule_and_samples_x_once(self, monkeypatch, basis):
        """Verification replays on the points where the build confirmed the
        margin: it builds no quadrature rule and samples the density once,
        on the membership grid, and reports what it reports for the bare
        density."""
        from entromin import certificates, quadrature

        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        rules, sampled = [], []
        monkeypatch.setattr(quadrature, "build_rule",   # every rule is built there
                            lambda *args: rules.append(args) or build_rule(*args))

        def x(s):
            sampled.append(np.array(s))
            return PULSE(s)

        report = verify_core_certificate(inst, x, cert, trials=20, seed=3)
        assert rules == []
        assert len(sampled) == 1 and sampled[0].size > certificates.MEMBERSHIP_SAMPLES
        assert report == verify_core_certificate(inst, PULSE, cert, trials=20, seed=3)

    @pytest.mark.parametrize("build", [build_core_certificate, build_qri_certificate],
                             ids=["core", "qri"])
    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_build_makes_one_rule(self, monkeypatch, build, basis):
        """A certificate build refines the instance rule at the scanned margin
        ends once; the independence check, the y_k and the verification
        points all take that rule."""
        from entromin import quadrature

        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        rules = []
        monkeypatch.setattr(quadrature, "build_rule",
                            lambda *args: rules.append(build_rule(*args)) or rules[-1])
        kwargs = {"m_max": 50000} if build is build_qri_certificate else {}
        margin = build(inst, PULSE, 0.0, INF, **kwargs).margin
        [rule] = rules
        assert rule.breakpoints == tuple(sorted((margin.lo, margin.hi, 0.5)))

    @pytest.mark.parametrize("one_sided", [False, True], ids=["core", "qri"])
    def test_prelude_samples_no_verification_nodes_alone(self, monkeypatch, one_sided):
        """The prelude reads x at the verification nodes from the tail of its
        membership-grid sample: no call samples the nodes alone."""
        from entromin import certificates, quadrature

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        rules, sampled = [], []
        monkeypatch.setattr(quadrature, "build_rule",   # the verification rule alone
                            lambda *args: rules.append(build_rule(*args)) or rules[-1])

        def x(s):
            sampled.append(np.array(s))
            return PULSE(s)

        directions, _, x_grid = certificates._margin_prelude(inst, x, 0.0, INF,
                                                             one_sided=one_sided)
        [ver_rule] = rules
        assert ver_rule is directions.rule
        assert not any(np.array_equal(s, ver_rule.nodes) for s in sampled)
        np.testing.assert_array_equal(x_grid[-ver_rule.nodes.size:], PULSE(ver_rule.nodes))

    @pytest.mark.parametrize("build,calls", [
        (build_core_certificate, 3),
        (lambda *args: build_qri_certificate(*args, m_max=50000), 2),
    ], ids=["core", "qri"])
    def test_readme_build_samples_x_once_per_point_set(self, build, calls):
        """On the README config core samples x on the instance rule's
        membership grid (`within_bounds`), on the scan samples with the
        instance nodes, and on the margin rule's membership grid; qri skips
        the first.  The scan's samples set the margin's range: no call
        samples a 1001-point lattice of the margin to confirm it."""
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        sampled = []
        x = Density(kind="counted", fn=lambda s: sampled.append(np.array(s)) or PULSE(s))
        margin = build(inst, x, 0.0, INF).margin
        assert len(sampled) == calls
        lattice = np.linspace(margin.lo, margin.hi, 1001)
        assert not any(np.isin(lattice, s).all() for s in sampled)

    def test_certificate_frozen_and_unchanged_by_verification(self):
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.delta = 0.0
        before = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
        held = [cert.sup_unit, cert.grid, cert.directions.basis_design, cert.inner_products,
                cert.kept, cert.y_kept]
        arrays = [np.copy(a) for a in held]
        verify_core_certificate(inst, PULSE, cert, trials=10, seed=0)
        assert all(getattr(cert, name) is value for name, value in before.items())
        for array, now in zip(arrays, held):
            np.testing.assert_array_equal(now, array)

    def test_verification_replays_the_certificate_as_built(self):
        """The y_k are the unit direction's and verification replays the
        certificate it is given: neither takes a direction or step scale,
        and a verification report checks the one P2_TOL."""
        import inspect

        from entromin.certificates import CertificateVerification

        def parameters(fn):
            return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]

        required = inspect.Parameter.empty
        assert parameters(build_direction_functions) == [
            ("basis", required), ("rule", required), ("margin", required)]
        assert parameters(verify_core_certificate) == [
            ("instance", required), ("x", required), ("cert", required), ("trials", 100),
            ("seed", 0)]
        assert "p2_tol" not in {f.name for f in dataclasses.fields(CertificateVerification)}

    def test_no_trials_rejected(self):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        for trials in (0, -3):
            with pytest.raises(ValidationError):
                verify_core_certificate(inst, PULSE, cert, trials=trials)

    def test_bad_seed_rejected(self):
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            verify_core_certificate(inst, PULSE, cert, trials=3, seed=-1)
        for kw in ({"trials": 2.5}, {"seed": 1.5}, {"trials": float("nan")}, {"seed": INF},
                   {"trials": "3"}, {"seed": "1"}):
            with pytest.raises(ValidationError, match="must be a whole number"):
                verify_core_certificate(inst, PULSE, cert, **{"trials": 3, **kw})
        assert verify_core_certificate(inst, PULSE, cert, trials=3.0, seed=2.0).trials == 3

    def test_direction_functions_evaluated_once_per_point_set(self, monkeypatch):
        """Verification evaluates no y_k, for any number of trials: the build
        evaluated them once on the grid columns that meet the margin."""
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        calls = []
        monkeypatch.setattr(DirectionFunctions, "__call__", lambda *args,
                            _f=DirectionFunctions.__call__: calls.append(1) or _f(*args))
        counts = []
        for trials in (3, 30):
            calls.clear()
            verify_core_certificate(inst, PULSE, cert, trials=trials, seed=0)
            counts.append(len(calls))
        assert counts == [0, 0]

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("basis", [
        piecewise_flat_basis(2, 0.5), piecewise_flat_basis(4, 0.5), piecewise_flat_basis(6, 0.5),
        monomial_basis(2), monomial_basis(4), monomial_basis(6),
    ], ids=["piecewise2", "piecewise4", "piecewise6", "monomial2", "monomial4", "monomial6"])
    @pytest.mark.parametrize("entropy,rho,band", [
        ("translated_boltzmann_shannon", PULSE, (0.0, INF)),
        ("boltzmann_shannon", constant_density(0.5), (0.0, 1.0)),
    ], ids=["pulse", "constant"])
    def test_combination_matches_direct_replay(self, entropy, rho, band, basis, k):
        """Combining the y_k evaluated once gives the pass counts of a
        per-trial evaluation of each perturbation's own coefficients, its
        worst P1 violation to a few ulps of the clearance (the bound on the
        perturbation) and its worst P2 residual within the quadrature's
        rounding bound.  At n=2 an overdriven step leaves the band in some
        trials, so P1 counts are compared too."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        driven = _overdriven(cert, k)
        expected = _replay_rebuilding_designs(inst, rho, driven, trials=40, seed=9)
        got = verify_core_certificate(inst, rho, driven, trials=40, seed=9)
        _assert_replays(got, expected, p1_tol=4 * np.finfo(float).eps * max(1.0, cert.clearance))

    def test_overdriven_step_breaks_band_on_tight_margin(self):
        """Doubling t past the certified rule must leave the band when the
        margin is tight (constant density: clearance equals the certified
        step bound, so the exceedance is immediate)."""
        rho = constant_density(0.5)
        inst = make_instance("boltzmann_shannon", monomial_basis(1), rho)
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        ok = verify_core_certificate(inst, rho, cert, trials=20, seed=3)
        assert ok.all_passed
        overdriven = verify_core_certificate(inst, rho, _overdriven(cert, 2.0), trials=20, seed=3)
        assert overdriven.p1_passes == 0
        assert overdriven.worst_p1_violation > 0.4

    @pytest.mark.parametrize("basis", [
        piecewise_flat_basis(4, 0.5), piecewise_flat_basis(6, 0.5), monomial_basis(1),
        monomial_basis(4), monomial_basis(6),
    ], ids=["piecewise4", "piecewise6-readme", "monomial1", "monomial4", "monomial6"])
    def test_build_hands_verification_the_audited_arrays(self, basis):
        """The inner products the build takes from its margin design match
        `direction_inner_products` to 1e-13, verification reports their
        orthogonality defect, and the y_k it carries on the kept grid columns
        are those columns of the y_k on the whole grid, bit for bit."""
        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        audit = direction_inner_products(cert.directions)
        np.testing.assert_allclose(cert.inner_products, audit, rtol=0.0, atol=1e-13)
        report = verify_core_certificate(inst, PULSE, cert, trials=10, seed=0)
        defect = cert.inner_products - np.eye(inst.n)
        assert report.orthogonality == np.linalg.norm(defect, axis=0).max() <= 1e-12
        assert report.target <= 1e-14 and report.all_passed and report.failures == ()
        full = cert.directions(cert.grid)
        assert cert.y_kept.tobytes() == np.ascontiguousarray(full[:, cert.kept]).tobytes()
        assert not np.any(full[:, ~cert.kept])

    def test_corrupted_direction_fails_as_direction_functions(self, monkeypatch):
        """Negative control: y_1 + 1e-6 y_2 in place of y_1 on the README
        family has <y_1, a_2> = 1e-6.  The per-trial P2 residual scales it by
        t, about 7e-7, so every trial passes P2; the orthogonality defect,
        taken at unit size, fails as "direction functions"."""
        from entromin import certificates

        build = certificates.build_direction_functions

        def corrupted(*args):
            directions = build(*args)
            coeffs = directions.coeffs.copy()
            coeffs[0] += 1e-6 * coeffs[1]
            return dataclasses.replace(directions, coeffs=coeffs)

        monkeypatch.setattr(certificates, "build_direction_functions", corrupted)
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        assert direction_inner_products(cert.directions)[0, 1] == pytest.approx(1e-6, rel=1e-6)
        report = verify_core_certificate(inst, PULSE, cert, trials=100, seed=0)
        assert (report.p1_passes, report.p2_passes) == (100, 100)
        assert report.orthogonality == pytest.approx(1e-6, rel=1e-6)
        assert report.failures == ("direction functions",) and not report.all_passed

    @pytest.mark.parametrize("n,gap", [(3, 1.63e-8), (4, 2.45e-8), (5, 4.66e-8), (6, 7.58e-8)])
    def test_tabulated_target_fails_as_target_moments(self, tmp_path, n, gap):
        """Monomials tabulated on 401 samples, on `constant 0.5`: the target
        moments, integrated on the instance rule, miss the density's moments
        on the margin rule by the quadrature error across the kinks, which
        fails every trial's P2 and, by name, as "target moments"."""
        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(n)]))
        rho = constant_density(0.5)
        inst = instance_from_density(builtin_entropy("boltzmann_shannon"),
                                     tabulated_basis(tmp_path / "basis.txt"),
                                     build_rule((0.0, 1.0)), rho)
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        report = verify_core_certificate(inst, rho, cert, trials=100, seed=0)
        assert (report.p1_passes, report.p2_passes) == (100, 0)
        assert report.target == pytest.approx(gap, rel=0.01)
        assert report.orthogonality <= 1e-13
        assert report.failures == ("target moments",) and not report.all_passed


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

    @pytest.mark.parametrize("m_max", [float("nan"), INF, 3.5, 4000.5, "10"])
    def test_budget_must_be_whole_number(self, m_max):
        """A budget that is not a whole number names itself, as trials and
        seed do: 3.5 scanned only m = 3, and "10" was accepted."""
        inst = make_instance("boltzmann_shannon", monomial_basis(2), PULSE)
        with pytest.raises(ValidationError, match="m_max must be a whole number"):
            build_qri_certificate(inst, PULSE, 0.0, 1.0, m_max=m_max)

    def test_whole_float_budget_scans_as_int(self):
        inst = make_instance("boltzmann_shannon", monomial_basis(2), PULSE)
        by_float, by_int = (dataclasses.replace(build_qri_certificate(
            inst, PULSE, 0.0, 1.0, m_max=m_max), y=None) for m_max in (4000.0, 4000))
        assert by_float == by_int

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

    @pytest.mark.parametrize("entropy,basis,rho,band", SCREENED_CONFIGS, ids=SCREENED_IDS)
    def test_candidate_levels_keep_every_passing_level(self, entropy, basis, rho, band):
        """Every level in [3, m_max] that is not handed to the exact path has
        an exact per-level sup|v| >= delta/2, and every level handed on
        passes, or the next one does (the solved interval is widened to whole
        levels)."""
        from entromin.certificates import _candidate_levels, _margin_prelude, _margin_sup

        inst = make_instance(entropy, basis, rho)
        lower, upper = band
        m_max = 2000
        directions, grid, x_grid = _margin_prelude(inst, rho, lower, upper, one_sided=True)
        margin_design, ver_design = directions.margin_design, directions.basis_design
        ver_rule = directions.rule
        x_ver = x_grid[grid.size - ver_rule.nodes.size:]
        delta = directions.margin.val_lo - lower

        def clip(values, m):
            if np.isfinite(upper):
                return np.clip(values, lower + (upper - lower) / m, upper - (upper - lower) / m)
            return np.maximum(values, lower + 1.0 / m)

        levels = np.arange(3, m_max + 1)
        sups = np.array([  # one level at a time, as the scan's exact path takes it
            _margin_sup(ver_design @ (ver_rule.weights * (clip(x_ver, m) - x_ver))
                        @ directions.coeffs, margin_design) for m in levels])
        passing = set(levels[sups < delta / 2.0].tolist())
        handed = list(_candidate_levels(x_ver, ver_rule.weights, ver_design, directions.coeffs,
                                        margin_design, lower, upper, delta, m_max))
        assert handed == sorted(set(handed)) and set(handed) <= set(levels.tolist())
        assert passing <= set(handed)
        assert all(m in passing or m + 1 in passing for m in handed)
        assert passing and min(passing) > 3  # the prediction rejects levels on each config

    @pytest.mark.parametrize("m_max", [3, 4, 2000])
    @pytest.mark.parametrize("entropy,basis,rho,band", SCREENED_CONFIGS, ids=SCREENED_IDS)
    def test_predicted_piece_ends_yield_as_gallop(self, entropy, basis, rho, band, m_max):
        """Predicting each piece's end from the clipped nodes' exit levels
        yields the levels the gallop and bisection yield."""
        from entromin.certificates import _candidate_levels

        args = _scan_inputs(entropy, basis, rho, band)
        assert (list(_candidate_levels(*args, m_max))
                == list(_galloping_candidate_levels(*args, m_max)))

    @staticmethod
    def _exits_off_width_over_gap(lower, upper, top):
        """Node values on a clip threshold, lower + width/k or upper - width/k
        for k in [4, top), or one ulp to either side, whose exit level (the
        first level that leaves them unclipped) is not ceil(width / gap) for
        their gap to the band, and those exit levels."""
        width = upper - lower if np.isfinite(upper) else 1.0
        k = np.arange(4, top)
        j = k[:, None] + np.arange(-2, 4)   # the exit is within two levels of k
        values, exits = [], []
        for side, edge in ((1, lower), (-1, upper))[:1 + np.isfinite(upper)]:
            on = edge + side * width / k
            for x in (on, np.nextafter(on, -INF), np.nextafter(on, INF)):
                gap = side * (x - edge)
                clipped = np.sign(np.clip(x[:, None], lower + width / j, upper - width / j)
                                  - x[:, None]) == side
                exit_level = j[np.arange(k.size), np.argmin(clipped, axis=1)]
                off = (gap > 0) & clipped[:, 0] & ~clipped[:, -1]
                off &= np.ceil(width / gap) != exit_level
                values.append(x[off])
                exits.append(exit_level[off])
        return np.concatenate(values), np.concatenate(exits)

    @pytest.mark.parametrize("band", [(0.0, 1.0), (0.0, INF), (-0.001, 1.001), (0.3, 2.5),
                                      (-1.7, INF)],
                             ids=["unit", "half-line", "wide", "offset", "offset-half-line"])
    def test_nodes_on_clip_thresholds_yield_as_gallop(self, band):
        """Every node sits on or next to a clip threshold where the exit level
        predicted from width / gap is one level off, so each piece's predicted
        end is wrong and the confirmation falls back to the gallop.  Acceptance
        starts where a piece ends, for delta/2 at that level's sup|v|: there a
        piece end one level off changes the yields."""
        from entromin.certificates import _candidate_levels, _margin_sup

        args = _scan_inputs("boltzmann_shannon", monomial_basis(4), RAMP, (0.0, 1.0))
        x_ver, weights, ver_design, coeffs, margin_design = args[:5]
        lower, upper = args[5:7] = band
        width = upper - lower if np.isfinite(upper) else 1.0
        values, exits = self._exits_off_width_over_gap(lower, upper, 20000)
        pick = np.arange(0, values.size, values.size // 97)
        args[0] = x_ver = np.resize(values[pick], x_ver.size)
        for level in np.unique(exits[pick])[10::30]:
            defect = ver_design @ (weights * (np.clip(x_ver, lower + width / level,
                                                      upper - width / level) - x_ver))
            args[7] = 2.0 * _margin_sup(defect @ coeffs, margin_design) * (1.0 + 1e-9)
            assert (list(_candidate_levels(*args, 20010))
                    == list(_galloping_candidate_levels(*args, 20010)))

    @pytest.mark.parametrize("seed", range(2))
    def test_two_sided_clips_yield_as_gallop(self, seed):
        """Nodes clipped from above and below in one piece, leaving it at
        levels spread from 4 to 10**4: the same yields as the gallop."""
        from entromin.certificates import _candidate_levels

        args = _scan_inputs("boltzmann_shannon", monomial_basis(4), BUMP, (0.0, 1.0))
        rng = np.random.default_rng(seed)
        gaps = 1.0 / rng.uniform(4.0, 1e4, args[0].size)
        args[0] = np.where(rng.random(args[0].size) < 0.5, gaps, 1.0 - gaps)
        assert (list(_candidate_levels(*args, 12000))
                == list(_galloping_candidate_levels(*args, 12000)))

    @pytest.mark.parametrize("rho,spread", [(constant_density(1e-9), False),
                                            (constant_density(1e-9), True)],
                             ids=["one-piece", "exits-spread"])
    def test_budget_of_1e8_levels_yields_as_gallop(self, rho, spread):
        """At m_max = 10**8 a piece can end at the budget ("one-piece": every
        node leaves at 10**9) or far inside it ("exits-spread": nodes leave at
        levels up to 5 * 10**7, but one at the lower bound never does); the
        prediction is clamped to the budget."""
        from entromin.certificates import _candidate_levels

        args = _scan_inputs("translated_boltzmann_shannon", monomial_basis(3), rho, (0.0, INF))
        if spread:
            args[0] = np.concatenate([[0.0], 1.0 / np.geomspace(10.0, 5e7, args[0].size - 1)])
            args[7] = 0.0   # no level can pass: the yields stay few
        expected = list(_galloping_candidate_levels(*args, 10**8))
        assert list(_candidate_levels(*args, 10**8)) == expected
        assert len(expected) < 1000

    def test_density_no_level_clips_yields_as_gallop(self):
        """Nothing clipped at m = 3: every level is handed on, as before."""
        from entromin.certificates import _candidate_levels

        args = _scan_inputs("boltzmann_shannon", monomial_basis(3), constant_density(0.5),
                            (0.0, 1.0))
        levels = list(_candidate_levels(*args, 4000))
        assert levels == list(_galloping_candidate_levels(*args, 4000)) == list(range(3, 4001))

    @pytest.mark.parametrize("lost", [3, None], ids=["three-lost-then-accepted", "all-lost"])
    def test_levels_losing_clearance_reported_as_full_scan(self, monkeypatch, lost):
        """A level that passes sup|v| < delta/2 but whose witness has eps <= 0
        is skipped and named in the failure report, as the full scan does.  A
        confirmed margin leaves no such level on a real density, so a fake
        raises the correction by 2 on the membership grid for the first
        `lost` witnesses each scan checks (every one, for None)."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        call, checked = DirectionFunctions.__call__, []

        def raised_on_membership_grid(self, s, coeffs=None):
            values = call(self, s, coeffs)
            if not (s.size > MEMBERSHIP_SAMPLES and s[0] < self.margin.lo):
                return values  # the margin grid, or a witness's own points
            checked.append(None)
            return values + (2.0 if lost is None or len(checked) <= lost else 0.0)

        monkeypatch.setattr(DirectionFunctions, "__call__", raised_on_membership_grid)
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
        margin_sup = certificates._margin_sup

        def counted_margin_sup(coeffs, design):
            calls.append(None)
            return margin_sup(coeffs, design)

        monkeypatch.setattr(certificates, "_margin_sup", counted_margin_sup)
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

    def test_readme_config_accepted_within_default_budget(self):
        """On the pulse, m * sup|v| stays near 22,050 for the README config,
        so a budget of 4000 clip levels cannot reach a witness; the default
        budget of 50000 accepts it at m = 44103."""
        from entromin.certificates import DEFAULT_M_MAX

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        with pytest.raises(CertificateError):
            build_qri_certificate(inst, PULSE, 0.0, INF, m_max=4000)
        cert = build_qri_certificate(inst, PULSE, 0.0, INF)
        assert DEFAULT_M_MAX == 50000 and cert.m == 44103
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


class TestOneDesignPerPointSet:
    """A certificate build evaluates the basis once on the margin rule's
    nodes and the phi_j once on the margin grid, and still reaches every
    layer the benchmark traces."""

    @pytest.mark.parametrize("kind", ["core", "qri"])
    def test_each_point_set_designed_once(self, monkeypatch, bench_module, kind):
        from entromin import certificates
        from entromin.certificates import MEMBERSHIP_SAMPLES
        from entromin.quadrature import refine_rule

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        bases, phis = [], []
        call = MomentBasis.__call__
        monkeypatch.setattr(MomentBasis, "__call__", lambda basis, s:
                            bases.append(np.array(s)) or call(basis, s))
        monkeypatch.setattr(certificates, "_phi", lambda margin, basis, factor, s,
                            _f=certificates._phi: phis.append(np.array(s))
                            or _f(margin, basis, factor, s))
        tracer = bench_module("tracing").Tracer()   # wraps the traced layers by name
        with tracer.installed():
            if kind == "core":
                cert = certificates.build_core_certificate(inst, PULSE, 0.0, INF)
                certificates.verify_core_certificate(inst, PULSE, cert, trials=5)
            else:
                cert = certificates.build_qri_certificate(inst, PULSE, 0.0, INF)
        rule = refine_rule(inst.rule, cert.margin.lo, cert.margin.hi)
        on_margin = nodes_in(rule, cert.margin.lo, cert.margin.hi)[0]
        margin_grid = np.concatenate([np.linspace(cert.margin.lo, cert.margin.hi,
                                                  MEMBERSHIP_SAMPLES), on_margin])
        assert len(bases) == 1 and bases[0].tobytes() == rule.nodes.tobytes()
        assert [s.tobytes() == margin_grid.tobytes() for s in phis] == [True, False]
        assert phis[1].size < margin_grid.size   # the membership grid where it meets the margin
        reached = {span[1] for span in tracer.spans}
        assert {"quadrature.build_rule", "moments.linearly_independent_on",
                "certificates.find_margin_interval",
                "certificates.build_direction_functions"} <= reached
        assert (f"certificates.build_{kind}_certificate" in reached
                and ("certificates.verify_core_certificate" in reached) == (kind == "core"))

    def test_failing_readme_scan_builds_no_membership_evaluator(self, monkeypatch):
        """The README config fails at the default budget without a level
        passing sup|v| < delta/2, so the y_k, evaluated on the membership grid
        for a passing level's witness, are never evaluated."""
        from entromin import certificates

        call, built = DirectionFunctions.__call__, []
        monkeypatch.setattr(DirectionFunctions, "__call__",
                            lambda self, s, coeffs=None: built.append(s.size)
                            or call(self, s, coeffs))
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        with pytest.raises(CertificateError, match="no acceptable witness up to m=4000"):
            certificates.build_qri_certificate(inst, PULSE, 0.0, INF, m_max=4000)
        assert built == []
        certificates.build_qri_certificate(inst, PULSE, 0.0, INF, m_max=50000)
        assert len(built) == 1
