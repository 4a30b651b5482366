"""Margin intervals, direction functions, and both duality certificates."""

import dataclasses
import functools
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    CertificateError,
    Density,
    ValidationError,
    build_core_certificate,
    build_direction_functions,
    build_qri_certificate,
    build_rule,
    builtin_entropy,
    constant_density,
    find_margin_interval,
    gibbs_overshoot,
    instance_from_density,
    integrate,
    monomial_basis,
    piecewise_flat_basis,
    pulse_density,
    reconstruct,
    solve_dual,
    verify_core_certificate,
)
from entromin.certificates import DirectionFunctions, MarginInterval
from entromin.config import build_problem, load_config
from entromin.moments import IndependenceReport, MomentBasis, moment_vector, tabulated_basis
from entromin.quadrature import nodes_in

RULE = build_rule((0.0, 1.0), (0.5,))
PULSE = pulse_density(0.5)
RIGHT_PULSE = Density(lambda s: 1.0 - PULSE(s), PULSE.breakpoints)   # 1 on (0.5, 1]
RAMP = Density(lambda s: np.asarray(s, dtype=float))
BUMP = Density(lambda s: 4.0 * np.asarray(s, dtype=float) * (1.0 - np.asarray(s)))
INF = float("inf")
NAN = float("nan")
# a param whose pinned tolerance holds on AVX-512 BLAS kernels alone (see `kernel_pinned`)
KERNEL_PINNED = functools.partial(pytest.param, marks=pytest.mark.kernel_pinned)


def make_instance(entropy_name, basis, rho):
    return instance_from_density(builtin_entropy(entropy_name), basis, RULE, rho)


def _scaled(directions, eta):
    """The y_k of `directions` for the direction eta: row k scaled by eta_k."""
    return dataclasses.replace(directions,
                               coeffs=np.asarray(eta, dtype=float)[:, None] * directions.coeffs)


def _overdriven(cert, k):
    """`cert` with its step rule driven k times as far: k times the clearance."""
    return dataclasses.replace(cert, clearance=k * cert.clearance)


def _skewed(cert, skew):
    """`cert` with y_k + sum_j skew_kj y_j in place of each y_k: its inner
    products are (I + skew) D, and its sup bound is that of the new y_k."""
    coeffs = (np.eye(len(cert.sup_unit)) + skew) @ cert.directions.coeffs
    return dataclasses.replace(cert, directions=dataclasses.replace(cert.directions, coeffs=coeffs))


def _verified_inner_products(directions):
    """D = <y_k, a_j> by verification's product: the y_k on the margin rule's
    margin nodes, read from the margin design, against the basis design there."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    rule, margin = directions.rule, directions.margin
    on_nodes = (rule.nodes >= margin.lo) & (rule.nodes <= margin.hi)
    y_nodes = directions.coeffs @ directions.margin_design[:, MEMBERSHIP_SAMPLES:]
    return (y_nodes * rule.weights[on_nodes]) @ directions.basis_design.compress(on_nodes, axis=1).T


def _inner_products(directions):
    """The audit of <y_k, a_j>: the y_k evaluated afresh at the margin nodes
    of their rule, integrated against the basis there."""
    nodes, weights = nodes_in(directions.rule, directions.margin.lo, directions.margin.hi)
    return (directions(nodes) * weights) @ directions.basis(nodes).T


def _margin_sup(coeffs, margin_design):
    """sup |v| on the margin grid of each expansion v in `coeffs`."""
    return np.max(np.abs(coeffs @ margin_design), axis=-1)


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
    from entromin.certificates import P2_TOL

    residuals, bounds = _quadrature_p2(instance, x, cert, steps)
    violations = np.array(p1_violations)
    return ((len(steps), int(np.count_nonzero(violations <= 0.0)),
             int(np.count_nonzero(residuals <= P2_TOL)), float(violations.max()),
             float(residuals.max())), float(bounds.max()))


def _assert_replays(got, replay, p1_tol=0.0):
    """Verification against a replay: the trial count exactly.  P1 and P2
    each pass in every trial or in none, by the worst violation against 0
    and the worst residual against P2_TOL.  That violation is at least the
    replay's worst trial's (less `p1_tol`), that residual at least the
    replay's worst less its rounding bound, and a trial the replay fails
    fails every trial."""
    from entromin.certificates import P2_TOL

    (trials, p1, p2, worst_p1, worst_p2), bound = replay
    assert got.trials == trials
    assert got.p1_passes == (trials if got.worst_p1_violation <= 0.0 else 0)
    assert got.p2_passes == (trials if got.worst_p2_residual <= P2_TOL else 0)
    assert got.worst_p1_violation >= worst_p1 - p1_tol
    assert got.worst_p2_residual >= worst_p2 - bound
    assert p1 == trials or got.p1_passes == 0
    assert p2 == trials or got.p2_passes == 0


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


def _one_bound(n, clearance):
    """B = (1+gamma)^2 r (1 + (n+3) eps) + tiny, r = fl(SAFETY_FACTOR *
    clearance): the bound on every admissible perturbation that core
    verification moves x by to decide P1 (see `verify_core_certificate`)."""
    from entromin.certificates import SAFETY_FACTOR

    fi = np.finfo(float)
    return ((1.0 + 2.0 * (n + 2) * fi.eps) ** 2
            * (SAFETY_FACTOR * clearance * (1.0 + (n + 3) * fi.eps)) + fi.tiny)


def _assert_sup_bounds_grid(cert):
    """`cert.grid`'s points in the margin are the margin grid, where
    `margin_design` holds the phi_j, bit for bit, and `cert.sup_unit` is
    1 + 1e-9 times the largest |y_k| there, so above |y_k| at every grid point."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    directions, grid, margin = cert.directions, cert.grid, cert.margin
    margin_grid = np.concatenate([np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES),
                                  nodes_in(directions.rule, margin.lo, margin.hi)[0]])
    assert grid[(grid >= margin.lo) & (grid <= margin.hi)].tobytes() == margin_grid.tobytes()
    on_margin = np.abs(directions.coeffs @ directions.margin_design).max(axis=1)
    assert cert.sup_unit.tobytes() == (on_margin * (1.0 + 1e-9)).tobytes()
    assert np.all(np.abs(directions(grid)) < cert.sup_unit[:, None])


P1_SCREENED = [("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0)),
               ("boltzmann_shannon", monomial_basis(4), constant_density(0.7), (0.0, 1.0)),
               ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
               ("translated_boltzmann_shannon", monomial_basis(3), PULSE, (0.0, INF))]
P1_SCREENED_IDS = ["constant-monomial4", "constant-upper-monomial4", "pulse-piecewise4",
                   "pulse-monomial3"]


@functools.lru_cache(maxsize=None)
def _screened_certificate(i):
    """The instance, density and core certificate of `P1_SCREENED[i]`."""
    entropy, basis, rho, band = P1_SCREENED[i]
    inst = make_instance(entropy, basis, rho)
    return inst, rho, build_core_certificate(inst, rho, *band)


def _replay_full_scan(instance, x, lower, upper, m_max):
    """The qri clip-level scan the direct way: the correction is evaluated
    on the whole margin grid at every m, and the witness on the membership
    grid, whose points in the margin are the margin grid.  Returns (m, eps, correction_sup,
    moment_match_residual, upper_clearance, y on a grid), or the message of
    the CertificateError the scan ends with."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    basis, rule = instance.basis, instance.rule
    margin = find_margin_interval(x, lower, upper, rule)
    directions = build_direction_functions(basis, rule, margin)
    ver_rule = directions.rule
    ver_design = basis(ver_rule.nodes)
    x_ver = np.asarray(x(ver_rule.nodes), dtype=float)
    margin_grid = np.concatenate([np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES),
                                  nodes_in(ver_rule, margin.lo, margin.hi)[0]])
    x_margin = np.asarray(x(margin_grid), dtype=float)   # the range delta is read from
    delta = min(x_margin.min() - lower, upper - x_margin.max())   # the clearance eps counts
    uniform = np.linspace(*rule.interval, MEMBERSHIP_SAMPLES + 2)
    full_grid = np.concatenate([uniform[uniform < margin.lo], margin_grid[:MEMBERSHIP_SAMPLES],
                                uniform[uniform > margin.hi], ver_rule.nodes])
    x_full = np.asarray(x(full_grid), dtype=float)
    width = upper - lower if np.isfinite(upper) else 1.0

    def clip(values, m):
        return np.clip(values, lower + width / m, upper - width / m)

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
        eps = min(float(np.min(y_full - lower)), float(np.min(upper - y_full)))
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
    below = f" and clearance below {upper}" if upper < INF else ""
    return (f"no acceptable witness up to m={m_max} (need sup|v| < {delta / 2.0:.3e} "
            f"with positive lower clearance{below}); defect decay: {decay}")


def _pulse_zeroed_in_margin():
    """The README-family pulse with piecewise_flat n=4, set to 0 at one
    instance-rule node inside its margin.  The scan samples between the
    nodes, and the margin grid holds the margin rule's nodes, not that one,
    so no certificate reads the zero there, but the target moments carry it."""
    margin = find_margin_interval(PULSE, 0.0, INF, RULE)
    node = float(RULE.nodes[(RULE.nodes > margin.lo) & (RULE.nodes < margin.hi)][0])
    rho = Density(lambda s: np.where(np.asarray(s) == node, 0.0, PULSE(s)))
    return make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), rho), rho


def _pulse_marked(basis, value, where):
    """The pulse set to `value` at points where a certificate is later checked
    but the margin scan does not sample: the first verification node inside
    the scanned margin ("node"), or every 9th membership-grid point in
    (0, 0.5) ("grid")."""
    from entromin.certificates import MEMBERSHIP_SAMPLES

    if where == "node":
        margin = find_margin_interval(PULSE, 0.0, INF, RULE)
        nodes = build_direction_functions(basis, RULE, margin).rule.nodes
        points = nodes[(nodes > margin.lo) & (nodes < margin.hi)][:1]
    else:
        grid = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)
        points = grid[(grid > 0.0) & (grid < 0.5)][::9]
    rho = Density(lambda s: np.where(np.isin(np.asarray(s), points), value, PULSE(s)))
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
    ("boltzmann_shannon", monomial_basis(4), PULSE, (0.0, INF)),
    ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
    ("boltzmann_shannon", monomial_basis(4), RAMP, (0.0, 1.0)),
    ("translated_boltzmann_shannon", monomial_basis(5), RAMP, (0.0, INF)),
    ("boltzmann_shannon", monomial_basis(3), BUMP, (0.0, 1.0)),
    ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), BUMP, (0.0, INF)),
    ("fermi_dirac", monomial_basis(4), RAMP, (0.0, 1.0)),
    # clip levels away from 0 on both sides: the |edge| term of the bound
    ("l2_norm", monomial_basis(4), PULSE, (-0.001, 1.001)),
]
SCREENED_IDS = ["pulse-monomial4-half-line", "pulse-piecewise4-half-line", "ramp-monomial4",
                "ramp-monomial5-half-line", "bump-monomial3", "bump-piecewise4-half-line",
                "ramp-monomial4-fermi-dirac", "pulse-monomial4-l2-wide-band"]


def _scan_inputs(entropy, basis, rho, band):
    """The arguments `build_qri_certificate` hands `_candidate_levels`, but
    m_max, from the prelude of the instance."""
    from entromin.certificates import _margin_prelude

    inst = make_instance(entropy, basis, rho)
    directions, grid, x_grid, delta = _margin_prelude(inst, rho, *band, in_band=False)
    x_ver = x_grid[grid.size - directions.rule.nodes.size:]
    return [x_ver, directions.rule.weights, directions.basis_design, directions.coeffs,
            directions.margin_design, *band, delta]


def _galloping_candidate_levels(x_ver, weights, ver_design, coeffs, margin_design,
                                lower, upper, delta, m_max):
    """`_candidate_levels` with each piece's end found by galloping and
    bisecting from the piece's first level, one clipped-set comparison per
    probe: the reference the two-threshold piece ends must reproduce."""
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

    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_density_at_band_on_verification_node_names_margin(self, basis, monkeypatch):
        """Both builders fail before any trial or clip level runs."""
        from entromin import certificates

        inst, rho = _pulse_marked(basis, 0.0, "node")
        monkeypatch.setattr(certificates, "_candidate_levels", None)  # no clip level runs
        for build in [build_core_certificate, build_qri_certificate]:
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

    def test_dips_on_the_margin_grid_set_the_clearance(self):
        """The pulse at 0.1 on every 7th margin-grid point that neither the
        scan, nor the uniform membership points, nor a node samples: both
        builders read the margin's range on the margin grid, so each sees
        the dips, core with clearance 0.1 and qri with a range from 0.1, and
        every check still passes."""
        from entromin.certificates import MEMBERSHIP_SAMPLES
        from entromin.quadrature import refine_rule, uniform_grid

        margin = find_margin_interval(PULSE, 0.0, INF, RULE)
        points = np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES)[::7]
        scan = uniform_grid(np.array([[0.0], [0.5]]), np.array([[0.5], [1.0]]),
                            MEMBERSHIP_SAMPLES + 2)[:, 1:-1]
        seen = np.concatenate([scan.ravel(), np.linspace(0.0, 1.0, MEMBERSHIP_SAMPLES + 2),
                               RULE.nodes, refine_rule(RULE, margin.lo, margin.hi).nodes])
        marked = points[~np.isin(points, seen)]
        assert (marked.size, points.size) == (91, 286)
        rho = Density(lambda s: np.where(np.isin(np.asarray(s), marked), 0.1, PULSE(s)))
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), rho)
        core = build_core_certificate(inst, rho, 0.0, INF)
        assert core.clearance == 0.1
        assert verify_core_certificate(inst, rho, core, trials=100, seed=0).all_passed
        qri = build_qri_certificate(inst, rho, 0.0, INF)
        assert qri.margin.val_lo == 0.1
        assert qri.eps > 0.0

    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_density_off_band_on_membership_grid_names_band(self, basis):
        """The pulse at -1 on one membership-grid point off the margin: the
        prelude samples the grid P1 checks, so it sees the dip, and core
        names the band before any trial, instead of building clearance 1.0
        that fails P1 every time."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        point = np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)[1202]
        rho = Density(lambda s: np.where(np.asarray(s) == point, -1.0, PULSE(s)))
        inst = make_instance("translated_boltzmann_shannon", basis, rho)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "admissible band"

    @pytest.mark.parametrize("kind", ["core", "qri"])
    def test_off_grid_scan_sample_moves_no_margin_grid_quantity(self, kind):
        """The pulse at 0.8 on a scan sample in the margin that lies on
        no grid a certificate checks (tBS, monomial n = 3, band [0, 3]).  The
        scan proposes 0.8 as the margin's low end, but the prelude reads the
        range on the margin grid alone, so each certificate is the unmoved
        pulse's: core's clearance 1.0, and qri's m = 223 and eps = 3/223."""
        from entromin.certificates import _membership_grid
        from entromin.quadrature import refine_rule

        point = 0.26198801198801197
        rho = Density(lambda s: np.where(np.asarray(s) == point, 0.8, PULSE(s)))
        proposed = find_margin_interval(rho, 0.0, 3.0, RULE)
        margin = find_margin_interval(PULSE, 0.0, 3.0, RULE)
        assert (proposed.lo, proposed.hi, proposed.val_lo) == (margin.lo, margin.hi, 0.8)
        checked = np.concatenate([_membership_grid(RULE), _membership_grid(
            refine_rule(RULE, margin.lo, margin.hi), margin)])
        assert margin.lo < point < margin.hi and not np.isin(point, checked)
        certs = []
        for x in (rho, PULSE):   # the same target moments: the point is no instance node
            inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), x)
            if kind == "core":
                cert = build_core_certificate(inst, x, 0.0, 3.0)
                assert verify_core_certificate(inst, x, cert).all_passed
                certs.append((cert.margin, cert.clearance, cert.t_unit))
            else:
                cert = build_qri_certificate(inst, x, 0.0, 3.0)
                certs.append((cert.margin, cert.m, cert.eps, cert.correction_sup))
        assert certs[0] == certs[1] and certs[0][0] == dataclasses.replace(margin, val_lo=1.0)
        if kind == "core":
            assert certs[0][1:] == (1.0, pytest.approx(0.001370883234899712, rel=1e-12))
        else:
            assert certs[0][1:3] == (223, 3 / 223)

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
        margin = find_margin_interval(PULSE, 0.0, INF, RULE)
        point = {"grid": np.linspace(*RULE.interval, MEMBERSHIP_SAMPLES + 2)[1202],
                 "margin-grid": np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES)[1001],
                 "node": RULE.nodes[np.argmin(np.abs(RULE.nodes - 0.6252))]}[where]
        rho = Density(lambda s: np.where(np.asarray(s) == point, np.inf, PULSE(s)))
        with pytest.raises(CertificateError) as err:
            build(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "admissible band"


class TestAdmissibleBand:
    """The prelude's band check on the membership grid of the instance rule,
    seen through the builders: a two-sided build names `[admissible band]`,
    and a band outside the entropy domain is a ValidationError."""

    def test_pulse_in_unit_band_boltzmann(self):
        """The pulse stays in [0, 1]: core passes the band check and fails
        only for want of a two-sided margin."""
        inst = make_instance("boltzmann_shannon", monomial_basis(3), PULSE)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, PULSE, 0.0, 1.0)
        assert err.value.hypothesis == "margin interval"

    def test_constant_two_escapes_unit_band(self):
        rho = constant_density(2.0)
        inst = make_instance("boltzmann_shannon", monomial_basis(3), rho)
        with pytest.raises(CertificateError) as err:
            build_core_certificate(inst, rho, 0.0, 1.0)
        assert err.value.hypothesis == "admissible band"

    def test_pulse_in_half_line_band_translated(self):
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        assert build_core_certificate(inst, PULSE, 0.0, INF).clearance == 1.0

    @pytest.mark.parametrize("build", [build_core_certificate, build_qri_certificate],
                             ids=["core", "qri"])
    def test_band_outside_entropy_domain_rejected(self, build):
        inst = make_instance("boltzmann_shannon", monomial_basis(3), PULSE)
        with pytest.raises(ValidationError, match="not contained in the domain"):
            build(inst, PULSE, -1.0, 1.0)


class TestFindMarginInterval:
    def test_pulse_on_half_line(self):
        margin = find_margin_interval(PULSE, 0.0, INF, RULE)
        assert 0.0 <= margin.lo < margin.hi <= 0.5
        assert margin.val_lo == pytest.approx(1.0)
        assert margin.val_hi == pytest.approx(1.0)

    def test_boundary_density_has_no_margin(self):
        with pytest.raises(CertificateError) as err:
            find_margin_interval(constant_density(0.0), 0.0, INF, build_rule((0.0, 1.0)))
        assert err.value.hypothesis == "margin interval"

    def test_identity_map_unit_band(self):
        margin = find_margin_interval(lambda s: np.asarray(s, dtype=float),
                                      0.0, 1.0, build_rule((0.0, 1.0)), min_width=0.5)
        assert margin.lo == pytest.approx(0.25, abs=2e-3)
        assert margin.hi == pytest.approx(0.75, abs=2e-3)
        assert margin.val_lo == pytest.approx(margin.lo, abs=1e-12)
        assert margin.val_hi == pytest.approx(margin.hi, abs=1e-12)
        assert margin.lo >= 0.2 and margin.hi <= 0.8

    def test_pulse_unit_band_has_no_margin(self):
        """A {0,1}-valued density never clears both ends of [0, 1]: the scan
        finds no margin, and both certificates fail by that name."""
        with pytest.raises(CertificateError) as err:
            find_margin_interval(PULSE, 0.0, 1.0, RULE)
        assert err.value.hypothesis == "margin interval"
        inst = make_instance("boltzmann_shannon", monomial_basis(3), PULSE)
        for build in (build_core_certificate, build_qri_certificate):
            with pytest.raises(CertificateError) as err:
                build(inst, PULSE, 0.0, 1.0)
            assert err.value.hypothesis == "margin interval"

    def test_bad_min_width(self):
        for min_width in (0.0, -0.1, float("nan"), INF):
            with pytest.raises(ValidationError):
                find_margin_interval(PULSE, 0.0, INF, build_rule((0.0, 1.0)),
                                     min_width=min_width)

    def test_bad_band(self):
        """A band whose lower end is not finite or exceeds its upper end (NaN
        either way) is a ValidationError naming it, as a bad `min_width` is,
        not a margin the density never clears.  Both builders reach the scan
        with (-inf, inf) on l2_norm and cosh, whose domain is the real line."""
        for lower, upper in ((-INF, INF), (NAN, INF), (2.0, 1.0), (0.0, NAN), (-INF, 2.0)):
            named = re.escape(f"band [{lower}, {upper}] needs a finite lower end")
            with pytest.raises(ValidationError, match=named):
                find_margin_interval(PULSE, lower, upper, build_rule((0.0, 1.0)))
        for entropy in ("l2_norm", "cosh"):
            inst = make_instance(entropy, monomial_basis(3), PULSE)
            for build in (build_core_certificate, build_qri_certificate):
                with pytest.raises(ValidationError, match=r"band \[-inf, inf\] needs a finite"):
                    build(inst, PULSE, -INF, INF)

    def test_empty_band_named_empty(self):
        """A band with lower >= upper has no interior for a margin's range to
        clear: both builders name it empty before the domain check, (2, 1)
        under Boltzmann-Shannon as (0.5, 0.5) under Fermi-Dirac, and the scan
        takes no band of one point."""
        for entropy, (lower, upper) in (("boltzmann_shannon", (2.0, 1.0)),
                                        ("fermi_dirac", (0.5, 0.5))):
            inst = make_instance(entropy, monomial_basis(3), PULSE)
            for build in (build_core_certificate, build_qri_certificate):
                with pytest.raises(ValidationError,
                                   match=re.escape(f"band [{lower}, {upper}] is empty")):
                    build(inst, PULSE, lower, upper)
        with pytest.raises(ValidationError, match=re.escape("band [0.5, 0.5] needs a finite")):
            find_margin_interval(PULSE, 0.5, 0.5, build_rule((0.0, 1.0)))


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
        ips = _inner_products(directions)
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
        ips = _inner_products(directions)
        assert abs(ips[0, 1]) <= 1e-10
        assert ips[0, 0] == pytest.approx(1.0, rel=1e-12)

    # bounds on the error relative to sup|y_k|: 4e-15 up to n = 4, then about
    # 2.5x the float64 construction's error, but 6.5e-15 at n = 5
    ORACLE_TOL = {2: 4e-15, 3: 4e-15, 4: 4e-15, 5: 6.5e-15, 6: 4e-14, 7: 2.5e-13, 8: 3e-13}

    @pytest.mark.parametrize("n", [2, 3, *(KERNEL_PINNED(n) for n in range(4, 9))])
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
        defect = _inner_products(directions) - np.diag(eta)
        assert np.max(np.abs(defect)) <= 1e-12

    @staticmethod
    def _legendre_misfits(directions):
        """The largest misfit of an a_k by the Legendre phi_j on the margin
        nodes, relative to the 2-norm of a_k there, by two fits: the
        projection in the margin rule's inner product, and the residual of the
        unweighted least-squares fit (`np.linalg.lstsq`), an independent
        reference for the same question."""
        from entromin.certificates import _phi

        margin, rule = directions.margin, directions.rule
        inside = (rule.nodes >= margin.lo) & (rule.nodes <= margin.hi)
        values, weights = directions.basis_design[:, inside], rule.weights[inside]
        phi = _phi(margin, directions.basis, None, rule.nodes[inside])
        projected = np.linalg.solve((phi * weights) @ phi.T, (phi * weights) @ values.T).T @ phi
        squares = np.linalg.lstsq(phi.T, values.T, rcond=None)[1]   # of the residuals
        scale = np.linalg.norm(values, axis=1)
        return [float(np.max(misfit / scale))
                for misfit in (np.linalg.norm(values - projected, axis=1), np.sqrt(squares))]

    @pytest.mark.parametrize("margin", [README_MARGIN, MarginInterval(0.2, 0.25, 1.0, 1.0),
                                        MarginInterval(0.0, 1.0, 1.0, 1.0)],
                             ids=["readme", "narrow", "unit"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_legendre_kept_where_it_reproduces_monomials(self, n, margin, monkeypatch):
        """Monomials up to degree 11 are Legendre polynomials on any margin:
        the build keeps them, and both fits sit at least 100x under
        LEGENDRE_FIT_TOL.  Independence is bypassed where its threshold
        rejects the family, as it does high n on narrow margins."""
        from entromin import certificates
        from entromin.certificates import LEGENDRE_FIT_TOL

        monkeypatch.setattr(certificates, "linearly_independent_on",
                            lambda *args: IndependenceReport(True, 1.0, 0.0))
        directions = build_direction_functions(monomial_basis(n), RULE, margin)
        assert directions.factor is None
        assert max(self._legendre_misfits(directions)) <= LEGENDRE_FIT_TOL / 100

    @pytest.mark.parametrize("family,margin", [
        ("tabulated", README_MARGIN),
        ("cosines", README_MARGIN),
        ("piecewise4", MarginInterval(0.25, 0.75, 1.0, 1.0)),
    ], ids=["tabulated-monomial3", "cosines", "piecewise4-across-split"])
    def test_qr_taken_where_legendre_misses(self, family, margin, tmp_path):
        """Monomials tabulated on 401 samples (piecewise linear), 1, cos(pi s)
        and cos(2 pi s), and piecewise_flat across its split are no
        polynomials of degree < n on the margin: the build orthonormalizes
        the a_k, and both fits miss by at least 100x LEGENDRE_FIT_TOL."""
        from entromin.certificates import LEGENDRE_FIT_TOL

        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(3)]))
        basis = {"tabulated": lambda: tabulated_basis(tmp_path / "basis.txt"),
                 "cosines": lambda: MomentBasis(3, lambda s: np.stack(
                     [np.cos(k * np.pi * np.asarray(s)) for k in range(3)])),
                 "piecewise4": lambda: piecewise_flat_basis(4, 0.5)}[family]()
        directions = build_direction_functions(basis, RULE, margin)
        assert directions.factor is not None
        assert min(self._legendre_misfits(directions)) >= 100 * LEGENDRE_FIT_TOL
        defect = _inner_products(directions) - np.eye(basis.n)
        assert np.max(np.abs(defect)) <= 1e-12

    def test_margin_with_no_more_nodes_than_functions_takes_qr(self):
        """Three Legendre polynomials interpolate any a_k at three nodes, so
        such a fit says nothing: a margin with no more nodes than functions
        takes the orthonormalized a_k, which are the dual basis there too."""
        rule = build_rule((0.0, 1.0), (), 3, 1)
        directions = build_direction_functions(monomial_basis(3), rule,
                                               MarginInterval(0.0, 1.0, 1.0, 1.0))
        assert directions.rule.nodes.size == 3 and directions.factor is not None
        assert np.max(np.abs(_inner_products(directions) - np.eye(3))) <= 1e-12

    def test_builds_run_without_least_squares(self, monkeypatch, tmp_path):
        """Neither certificate build calls `np.linalg.lstsq`, on either
        coordinate path: the fit is read from M."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(3)]))
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for basis in [piecewise_flat_basis(6, 0.5), tabulated_basis(tmp_path / "basis.txt")]:
            inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
            cert = build_core_certificate(inst, PULSE, 0.0, INF)
            assert verify_core_certificate(inst, PULSE, cert, trials=10, seed=0).all_passed
            assert build_qri_certificate(inst, PULSE, 0.0, INF).eps > 0.0

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
        defect = _inner_products(cert.directions) - np.eye(n)
        assert np.max(np.abs(defect)) <= 1e-11
        assert verify_core_certificate(inst, PULSE, cert, trials=100, seed=3).all_passed

    @pytest.mark.parametrize("n", [4, 6])
    def test_dual_basis_on_the_rule_that_verifies_it(self, tmp_path, n):
        """A margin across a declared kink of a tabulated density: the y_k
        are built on the instance rule refined at the margin ends, the rule
        core verification integrates them on, so <y_k, a_j> there is the
        identity to rounding (built on the basis breakpoints alone, they
        missed it by 7.7e-4 for n = 4 and 1.3e-1 for n = 6)."""
        from entromin.densities import tabulated_density

        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(n)]))
        (tmp_path / "rho.txt").write_text("# breakpoints: 0.3\n0 0.5\n0.3 1.0\n1 0.5\n")
        basis = tabulated_basis(tmp_path / "basis.txt")
        rho = tabulated_density(tmp_path / "rho.txt")
        directions = build_direction_functions(basis, build_rule((0.0, 1.0), rho.breakpoints),
                                               MarginInterval(0.1, 0.9, 4 / 7, 1.0))
        ver = directions.rule
        assert ver.breakpoints == (0.1, 0.3, 0.9)
        products = (directions(ver.nodes) * ver.weights) @ basis(ver.nodes).T
        assert np.max(np.abs(products - np.eye(n))) <= 1e-12

    def test_inner_products_audit_the_evaluation(self):
        """The inner products integrate the y_k as calling them gives them:
        the same coefficients over a wrongly mapped margin show a defect."""
        directions = build_direction_functions(monomial_basis(4), RULE, README_MARGIN)
        np.testing.assert_allclose(_inner_products(directions), np.eye(4),
                                   rtol=0.0, atol=1e-12)
        shifted = dataclasses.replace(README_MARGIN, hi=0.45)
        defect = _inner_products(dataclasses.replace(directions, margin=shifted))
        assert np.max(np.abs(defect - np.eye(4))) > 0.1

    def test_zero_direction_gives_zero_functions(self):
        basis = monomial_basis(3)
        margin = MarginInterval(0.0, 0.5, 1.0, 1.0)
        directions = _scaled(build_direction_functions(basis, RULE, margin), np.zeros(3))
        assert np.all(np.asarray(directions.coeffs) == 0.0)

    def test_dependent_family_rejected(self):
        basis = piecewise_flat_basis(3, 0.5)
        margin = MarginInterval(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(CertificateError) as err:
            build_direction_functions(basis, RULE, margin)
        assert err.value.hypothesis == "linear independence"

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
            defect = _inner_products(directions) - np.diag(eta)
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
            defect = _inner_products(directions) - np.diag(eta)
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
    def test_margin_right_of_split_fails_independence(self, n):
        """On the right pulse the scan finds its margin right of the split,
        where the piecewise-flat family is dependent: both builders say so."""
        inst = make_instance("translated_boltzmann_shannon",
                             piecewise_flat_basis(n, 0.5), RIGHT_PULSE)
        for build in (build_core_certificate, build_qri_certificate):
            with pytest.raises(CertificateError) as err:
                build(inst, RIGHT_PULSE, 0.0, INF)
            assert err.value.hypothesis == "linear independence"
            assert "[0.5002497502497503, 0.9997502497502497]" in str(err.value)

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
        for _ in range(25):
            eta = rng.standard_normal(4)
            eta /= np.linalg.norm(eta)
            t = cert.t_for(eta)
            assert t * 4 * cert.delta_for(eta) < cert.clearance
        assert cert.t_for(np.zeros(4)) == 0.0 == cert.delta_for(np.zeros(4))

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

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    @pytest.mark.parametrize("basis", [piecewise_flat_basis(6, 0.5), monomial_basis(4)],
                             ids=["readme", "monomial4"])
    def test_sup_bound_follows_the_y_k(self, basis, scale):
        """y_k scaled after the build carry their own sup bound: the
        certificate forms `sup_unit` from them, so its step rule shrinks by
        the scale, and verification matches the per-trial loop, which moves
        x by the scaled y_k: P1 passes every trial, and P2 fails every one
        by name, as D is the scale times I.  A sup bound cannot be handed in."""
        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        scaled = dataclasses.replace(cert, directions=_scaled(cert.directions,
                                                              np.full(inst.n, scale)))
        got = verify_core_certificate(inst, PULSE, scaled, trials=40, seed=3)
        _assert_replays(got, _replay_per_trial(inst, PULSE, scaled, 40, 3))
        assert (got.p1_passes, got.worst_p1_violation, got.p2_passes) == (40, 0.0, 0)
        assert "direction functions" in got.failures
        np.testing.assert_allclose(scaled.sup_unit, scale * cert.sup_unit, rtol=1e-12)
        assert scaled.t_unit == pytest.approx(cert.t_unit / scale, rel=1e-12)
        with pytest.raises(ValueError, match="sup_unit"):
            dataclasses.replace(cert, sup_unit=scale * cert.sup_unit)

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
        """The zero sits on no point core checks, so the margin's range read
        on the margin grid is [1, 1] and the certificate builds; but the
        target moments carry it, so verification refuses the density by
        name, and no admissible step passes P2."""
        inst, rho = _pulse_zeroed_in_margin()
        cert = build_core_certificate(inst, rho, 0.0, INF)
        assert (cert.margin.val_lo, cert.margin.val_hi, cert.clearance) == (1.0, 1.0, 1.0)
        report = verify_core_certificate(inst, rho, cert, trials=100, seed=0)
        assert report.failures == ("target moments", "radius")
        assert report.target == pytest.approx(1.269e-3, rel=1e-3)
        assert (report.p1_passes, report.p2_passes) == (100, 0)

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
        """Verification, reading the designs the build made, covers every
        trial of a replay rebuilding the design on every trial: P1, and P2
        to the rounding bound of that replay's per-trial quadrature.
        Over-driven, P1 fails every trial."""
        inst = make_instance(entropy, basis, rho)
        cert = _overdriven(build_core_certificate(inst, rho, *band), k)
        expected = _replay_rebuilding_designs(inst, rho, cert, trials=40, seed=9)
        got = verify_core_certificate(inst, rho, cert, trials=40, seed=9)
        _assert_replays(got, expected)
        assert got.p1_passes == (0 if k > 1.0 else 40)

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
        """P1 and P2 cover every trial of the per-trial loop, which draws
        one direction at a time, P2 to the rounding bound of its quadrature,
        at clearance 0 too, where B and W bound nothing and both fail."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for seed, k in zip((0, 1, 2), (0.0, 1.0, 2.0)):
            driven = _overdriven(cert, k)
            for trials in (1, 40):
                got = verify_core_certificate(inst, rho, driven, trials=trials, seed=seed)
                _assert_replays(got, _replay_per_trial(inst, rho, driven, trials, seed))

    def test_margin_columns_replay_full_grid(self):
        """A pulse split at 0.4571, where 1074 grid columns meet the margin,
        over-driven 8x: P1 fails every trial, by at least the per-trial
        loop's worst trial, and P2 covers the loop's."""
        rho = pulse_density(0.4571)
        inst = instance_from_density(builtin_entropy("translated_boltzmann_shannon"),
                                     monomial_basis(6), build_rule((0.0, 1.0), (0.4571,)), rho)
        cert = _overdriven(build_core_certificate(inst, rho, 0.0, INF), 8.0)
        for seed in (7, 8, 17):
            got = verify_core_certificate(inst, rho, cert, trials=40, seed=seed)
            _assert_replays(got, _replay_per_trial(inst, rho, cert, 40, seed))

    @pytest.mark.parametrize("entropy,basis,rho,band", P1_SCREENED, ids=P1_SCREENED_IDS)
    def test_p1_decides_at_mixed_clearance(self, entropy, basis, rho, band):
        """At the built clearance x moved by B stays in the band, so P1
        passes every trial with no violation; over-driven past it, from 5%
        to 3x, x moved by B leaves the band, and P1 fails every trial.
        Either way P1 covers every trial of the per-trial loop, and P2 is
        the loop's."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for k in (1.0, 1.05, 1.5, 2.0, 3.0):
            for seed in (0, 1):
                got = verify_core_certificate(inst, rho, _overdriven(cert, k), 40, seed)
                _assert_replays(got, _replay_per_trial(inst, rho, _overdriven(cert, k), 40, seed))
                assert got.p1_passes == (40 if k == 1.0 else 0), (k, seed)
                assert (got.worst_p1_violation == 0.0) == (k == 1.0), (k, seed)

    @settings(max_examples=400, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           clearance=st.floats(-150.0, 150.0),
           sups=st.lists(st.floats(-150.0, 150.0), min_size=12, max_size=12))
    def test_one_bound_covers_every_trials_bound(self, n, seed, clearance, sups):
        """B, taken from the step rule alone, is at least each trial's own
        rounding bound (1+gamma)^2 (|s| @ sup_unit) + tiny in float64, for n
        in 1..12 and a clearance and sup_unit_k anywhere over 300 decades:
        on 64 seeded directions, as the per-trial loop draws them, and on 64 with
        every |eta_k| sup_unit_k equal, where |s| @ sup_unit is largest.  The
        certificate forms sup_unit from stub y_k, y_k = 10^sups_k phi_k."""
        from entromin.certificates import CoreCertificate

        stub = types.SimpleNamespace(coeffs=np.diag(10.0 ** np.array(sups[:n])),
                                     margin_design=np.eye(n))
        cert = CoreCertificate(stub, 0.0, 1.0, 10.0 ** clearance, np.empty(0))
        sup_unit = cert.sup_unit
        rng = np.random.default_rng(seed)
        etas = np.vstack([rng.standard_normal((64, n)),
                          rng.choice([-1.0, 1.0], (64, n)) / sup_unit])
        etas = [eta / np.linalg.norm(eta) for eta in etas]   # one direction at a time
        steps = np.array([cert.t_for(eta) * eta for eta in etas])
        gamma = 2.0 * (n + 2) * np.finfo(float).eps
        bounds = (1.0 + gamma) ** 2 * (np.abs(steps) @ sup_unit) + np.finfo(float).tiny
        assert np.all(bounds <= _one_bound(n, cert.clearance))

    @pytest.mark.parametrize("n", [1, 4])
    def test_one_bound_decides_at_its_threshold(self, n):
        """P1 moves the constant density x by B inside the margin.  With the
        lower bound at fl(x - B), or the upper one at fl(x + B), the worst
        violation is 0 and P1 passes, and one ulp further in the violation is
        that ulp and P1 fails: the code's B is the formula's, bit for bit, and
        P1 takes no slack."""
        rho = constant_density(0.5)
        inst = make_instance("boltzmann_shannon", monomial_basis(n), rho)
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        reach = _one_bound(n, cert.clearance)
        for side, edge, out in (("lower", 0.5 - reach, -INF), ("upper", 0.5 + reach, INF)):
            def verify(end):
                return verify_core_certificate(
                    inst, rho, dataclasses.replace(cert, **{side: float(end)}), 40, n)

            inward = np.nextafter(edge, -out)
            passing, failing = verify(edge), verify(inward)
            assert (passing.worst_p1_violation, passing.p1_passes) == (0.0, 40), side
            assert failing.worst_p1_violation == abs(inward - edge) > 0.0
            assert failing.p1_passes == 0, side

    @pytest.mark.parametrize("entropy,basis,rho,band", P1_SCREENED, ids=P1_SCREENED_IDS)
    def test_negative_clearance_fails_p1(self, entropy, basis, rho, band):
        """A clearance of -2x the built one steps twice as far against each
        eta.  r < 0 lies outside [2^-500, 2^500], so B bounds no step: x
        moves by inf inside the margin, and P1 fails every trial with an
        infinite worst violation, and W bounds no residual: P2 fails every
        trial with an infinite worst residual.  Both cover the per-trial
        loop."""
        inst = make_instance(entropy, basis, rho)
        cert = _overdriven(build_core_certificate(inst, rho, *band), -2.0)
        got = verify_core_certificate(inst, rho, cert, trials=40, seed=0)
        _assert_replays(got, _replay_per_trial(inst, rho, cert, 40, 0))
        assert got.p1_passes == 0 and got.worst_p1_violation == INF
        assert got.p2_passes == 0 and got.worst_p2_residual == INF

    @settings(max_examples=200, deadline=None)
    @given(config=st.integers(0, len(P1_SCREENED) - 1), seed=st.integers(0, 2 ** 32 - 1),
           k=st.floats(-2.0, 4.0))
    def test_p1_covers_every_replayed_trial(self, config, seed, k):
        """Over seeds and overdrives k in [-2, 4] on the `P1_SCREENED`
        configs: when a trial of the per-trial loop leaves the band,
        verification fails P1 in every trial, and its worst
        violation is at least that of every trial of the loop.  P2 covers the
        loop's, and P1's report does not depend on the seed."""
        inst, rho, cert = _screened_certificate(config)
        driven = _overdriven(cert, k)
        got = verify_core_certificate(inst, rho, driven, trials=24, seed=seed)
        _assert_replays(got, _replay_per_trial(inst, rho, driven, 24, seed))
        unseeded = verify_core_certificate(inst, rho, driven, trials=24, seed=0)
        assert (got.p1_passes, got.worst_p1_violation) == (unseeded.p1_passes,
                                                           unseeded.worst_p1_violation)

    @settings(max_examples=200, deadline=None)
    @given(config=st.integers(0, len(P1_SCREENED) - 1), seed=st.integers(0, 2 ** 32 - 1),
           k=st.floats(-2.0, 4.0), scale=st.floats(-12.0, 0.0),
           skew=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    def test_p2_covers_every_replayed_trial(self, config, seed, k, scale, skew):
        """Over seeds, overdrives k in [-2, 4] and skews of the y_k
        on the `P1_SCREENED` configs: the worst P2 residual is at least every
        trial's of the per-trial loop, less the loop's rounding bound, and
        when a trial of the loop misses P2_TOL, P2 fails every trial.  The
        skew, 10^scale times entries in [-1, 1], is made in the y_k
        (`_skewed`), from which both the loop's quadrature and verification's
        D integrate.  The report does not depend on the seed."""
        inst, rho, cert = _screened_certificate(config)
        n = inst.n
        driven = _overdriven(_skewed(cert, 10.0 ** scale * np.reshape(skew[:n * n], (n, n))), k)
        got = verify_core_certificate(inst, rho, driven, trials=24, seed=seed)
        _assert_replays(got, _replay_per_trial(inst, rho, driven, 24, seed))
        assert got == verify_core_certificate(inst, rho, driven, trials=24, seed=0)

    @pytest.mark.parametrize("n", [1, 4])
    def test_p2_bound_decides_at_its_threshold(self, n):
        """P2 fails or passes by W = max_j (|e_j| + sum_k |D - I|_kj r /
        (n sup_unit_k)) (1 + (n+8) eps) + tiny against P2_TOL.  With y_1
        skewed by d y_n (`coeffs[0] += d * coeffs[-1]`), bisection over the
        floats d finds the last d whose W, from the D of verification's
        product and the sup bound of the skewed y_k, is within P2_TOL: there
        verification reports that W bit for bit and passes P2 in every trial,
        and one ulp of d further it reports that W, above P2_TOL, and fails
        every trial."""
        from entromin.certificates import P2_TOL, SAFETY_FACTOR

        rho = constant_density(0.5)
        inst = make_instance("boltzmann_shannon", monomial_basis(n), rho)
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        rule, fi = cert.directions.rule, np.finfo(float)
        target = (cert.directions.basis_design @ (rule.weights * rho(rule.nodes))
                  - inst.target_moments)

        def skewed(d):
            coeffs = cert.directions.coeffs.copy()
            coeffs[0] += d * coeffs[-1]
            return dataclasses.replace(
                cert, directions=dataclasses.replace(cert.directions, coeffs=coeffs))

        def bound(d):
            defect = _verified_inner_products(skewed(d).directions) - np.eye(n)
            rate = SAFETY_FACTOR * cert.clearance
            worst = np.max(np.abs(target) + (rate / (n * skewed(d).sup_unit)) @ np.abs(defect))
            return float(worst * (1.0 + (n + 8) * fi.eps) + fi.tiny)

        lo, hi = np.float64(0.0).view(np.int64), np.float64(1.0).view(np.int64)
        assert bound(lo.view(np.float64)) <= P2_TOL < bound(hi.view(np.float64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if bound(mid.view(np.float64)) <= P2_TOL else (lo, mid)
        for d, passes in ((lo.view(np.float64), 40), (hi.view(np.float64), 0)):
            got = verify_core_certificate(inst, rho, skewed(d), 40, n)
            assert got.worst_p2_residual.hex() == bound(d).hex()
            assert got.p2_passes == passes and (got.worst_p2_residual <= P2_TOL) == (passes > 0)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_sup_bounds_the_grid_on_the_plan_configs(self, tmp_path, bench_module, seed):
        """On the 13 configs of the certify-core and certify-qri benchmark
        plans the sup bound is taken on the margin grid, which is the grid
        inside the margin, bit for bit, and lies above |y_k| at every grid
        point."""
        workloads = bench_module("workloads")
        ops = [op for workload in ("certify-core", "certify-qri")
               for op in workloads.plan(workload, seed)["ops"]]
        assert len(ops) == 13
        for i, op in enumerate(ops):
            path = tmp_path / f"{i}.ini"
            path.write_text(workloads.to_ini(op))
            cfg = load_config(path)
            inst, rho = build_problem(cfg, cfg.basis)
            _assert_sup_bounds_grid(build_core_certificate(
                inst, rho, *cfg.certify.band_for(inst.entropy)))

    @pytest.mark.parametrize("config", range(len(P1_SCREENED)), ids=P1_SCREENED_IDS)
    def test_margin_grid_is_the_grid_inside_the_margin(self, config):
        """P1 moves x by B exactly where the sup bound sampled the y_k: the
        grid's points in the margin are the margin grid, bit for bit, and the
        sup bound is read there alone."""
        _assert_sup_bounds_grid(_screened_certificate(config)[2])

    @pytest.mark.parametrize("family", ["cosines", "tabulated-monomial4"])
    def test_sup_bounds_the_grid_on_the_qr_path(self, family, tmp_path):
        """So it is where the y_k expand over the orthonormalized a_k: for 1,
        cos(pi s) and cos(2 pi s), and for monomials tabulated on 401 samples."""
        s = np.linspace(0.0, 1.0, 401)
        np.savetxt(tmp_path / "basis.txt", np.column_stack([s] + [s ** k for k in range(4)]))
        basis = {"cosines": lambda: MomentBasis(3, lambda s: np.stack(
                     [np.cos(k * np.pi * np.asarray(s)) for k in range(3)])),
                 "tabulated-monomial4": lambda: tabulated_basis(tmp_path / "basis.txt")}[family]()
        cert = build_core_certificate(make_instance("translated_boltzmann_shannon", basis, PULSE),
                                      PULSE, 0.0, INF)
        assert cert.directions.factor is not None
        _assert_sup_bounds_grid(cert)

    @pytest.mark.parametrize("where", ["beside", "every"])
    @pytest.mark.parametrize("entropy,basis,rho,band", P1_SCREENED, ids=P1_SCREENED_IDS)
    def test_violations_off_the_margin_fail_p1(self, entropy, basis, rho, band, where):
        """A density other than the build's that leaves the band by 0.25 off
        the margin, where every y_k is 0 and P1 moves x by nothing: at the
        nearest grid point beyond each margin end alone, or at every grid
        point off it.  P1 fails every trial, at the built clearance by
        exactly 0.25, and so does the per-trial loop."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        out = band[1] + 0.25 if np.isfinite(band[1]) else band[0] - 0.25
        below, above = cert.grid[cert.grid < cert.margin.lo], cert.grid[cert.grid > cert.margin.hi]
        moved = (np.concatenate([below, above]) if where == "every" else
                 np.concatenate([below[below == below.max(initial=-INF)],
                                 above[above == above.min(initial=INF)]]))
        assert moved.size > 0

        def leaving(s):
            s = np.asarray(s, dtype=float)
            return np.where(np.isin(s, moved), out, rho(s))

        for k, seed in ((1.0, 0), (2.0, 1), (3.0, 2)):
            got = verify_core_certificate(inst, leaving, _overdriven(cert, k), 40, seed)
            _assert_replays(got, _replay_per_trial(inst, leaving, _overdriven(cert, k), 40, seed))
            assert got.p1_passes == 0 and got.worst_p1_violation >= 0.25
            if k == 1.0:
                assert got.worst_p1_violation == 0.25

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_negative_zero_at_a_band_end_reports_no_violation(self, side):
        """A density that is -0.0 off the margin, under a band that ends at 0
        there: x moved by nothing stays in the band, so P1 passes every
        trial, and the worst violation reads +0.0, the per-trial loop's,
        not -0.0."""
        sign, band = (-1.0, (-1.0, 0.0)) if side == "upper" else (1.0, (0.0, 1.0))
        rho = Density(lambda s: np.where(np.asarray(s) <= 0.5, sign * 0.5, -0.0), (0.5,))
        inst = make_instance("l2_norm", monomial_basis(3), rho)
        cert = build_core_certificate(inst, rho, *band)
        for seed in (0, 1):
            got = verify_core_certificate(inst, rho, cert, 10, seed)
            replay = _replay_per_trial(inst, rho, cert, 10, seed)
            _assert_replays(got, replay)
            assert got.p1_passes == 10
            assert got.worst_p1_violation.hex() == replay[0][3].hex() == (0.0).hex()

    def test_infinite_density_on_the_grid_fails_p1(self):
        """A density other than the build's that is +inf at three uniform
        grid points past 0.9, none of them a node, under the band [0, inf):
        there x + reach - upper is inf - inf, which leaves the upper side
        undecided, but x is not finite, so P1 fails every trial by inf, as
        the build's band check fails it."""
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        grid = cert.grid
        points = grid[(grid > 0.9) & ~np.isin(grid, cert.directions.rule.nodes)][:3]
        assert points.size == 3
        x = Density(lambda s: np.where(np.isin(np.asarray(s), points), INF, PULSE(s)))
        got = verify_core_certificate(inst, x, cert, trials=10, seed=0)
        assert (got.p1_passes, got.worst_p1_violation) == (0, INF)
        assert got.p2_passes == 10 and not got.all_passed

    def test_p1_fails_a_density_just_below_the_band(self):
        """P1 takes no slack: a density other than the build's that is 1e-13
        below the lower bound at one grid point off the margin, not a node,
        where x is moved by nothing, fails P1 in every trial by 1e-13."""
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        grid = cert.grid[~np.isin(cert.grid, cert.directions.rule.nodes)]
        point = grid[np.argmin(np.abs(grid - 0.8002))]
        assert point > cert.margin.hi
        x = Density(lambda s: np.where(np.asarray(s) == point, -1e-13, PULSE(s)))
        got = verify_core_certificate(inst, x, cert, trials=10, seed=0)
        assert (got.p1_passes, got.worst_p1_violation) == (0, 1e-13)
        assert got.p2_passes == 10 and not got.all_passed

    @pytest.mark.parametrize("seed", [1, 7])
    def test_plan_configs_verify_p1_at_the_built_clearance(self, tmp_path, bench_module, seed):
        """On the 8 configs of the certify-core benchmark plan x moved by B
        stays in the band at the built clearance, so every check passes and
        P1 reports no violation; at 8x the clearance P1 fails every trial."""
        workloads = bench_module("workloads")
        for i, op in enumerate(workloads.plan("certify-core", seed)["ops"]):
            path = tmp_path / f"{i}.ini"
            path.write_text(workloads.to_ini(op))
            cfg = load_config(path)
            inst, rho = build_problem(cfg, cfg.basis)
            cert = build_core_certificate(inst, rho, *cfg.certify.band_for(inst.entropy))
            got = verify_core_certificate(inst, rho, cert, 100, op["trial_seed"])
            assert got.all_passed and got.worst_p1_violation == 0.0, workloads.label(op)
            over = verify_core_certificate(inst, rho, _overdriven(cert, 8.0), 100,
                                           op["trial_seed"])
            assert over.p1_passes == 0 < over.worst_p1_violation, workloads.label(op)

    @pytest.mark.parametrize("entropy,basis,rho,band", [
        ("translated_boltzmann_shannon", monomial_basis(3), PULSE, (0.0, INF)),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF)),
        ("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0)),
        ("boltzmann_shannon", monomial_basis(1), constant_density(0.5), (0.0, 1.0)),
    ], ids=["pulse-monomial3", "pulse-piecewise4", "constant-monomial4", "constant-monomial1"])
    def test_trial_blocks_replay_one_trial_at_a_time(self, entropy, basis, rho, band):
        """P1 and P2 cover every trial of the float64 loop over one trial at
        a time, P2 to the rounding bound of its quadrature, for any number of
        trials and at every step scale; so does P1, to a few ulps, for the
        replay that expands each perturbation as one set of coefficients."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        for trials in (1, 7, 8, 9, 17, 100):
            for k in (0.0, 1.0, 8.0):
                driven = _overdriven(cert, k)
                got = verify_core_certificate(inst, rho, driven, trials=trials, seed=trials)
                _assert_replays(got, _replay_per_trial(inst, rho, driven, trials, trials))
                tol = 4 * np.finfo(float).eps * max(1.0, cert.clearance) * max(1.0, k)
                exact = _replay_rebuilding_designs(inst, rho, driven, trials, trials)
                _assert_replays(got, exact, p1_tol=tol)

    @pytest.mark.parametrize("trials", [1, 17, 100])
    @pytest.mark.parametrize("basis", BASES_34, ids=["monomial3", "piecewise4"])
    def test_verification_never_evaluates_the_y_k(self, monkeypatch, basis, trials):
        """Verification builds no points and no design of the basis or the
        y_k, and evaluates no y_k, for any number of trials and at any
        clearance: at the built one, where every check passes, at 8x, where
        P1 fails, and at -2x, where B bounds no step.  The build made them
        once, and verification reads the certificate's."""
        from entromin import certificates

        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        calls = []
        for owner, name in ((certificates, "refine_rule"), (MomentBasis, "__call__"),
                            (certificates, "_phi"), (DirectionFunctions, "__call__")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name:
                                calls.append(_n) or _f(*args))
        reports = [verify_core_certificate(inst, PULSE, _overdriven(cert, k), trials=trials,
                                           seed=0) for k in (1.0, 8.0, -2.0)]
        assert calls == []
        assert [report.p1_passes for report in reports] == [trials, 0, 0]

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

    @pytest.mark.parametrize("in_band", [True, False], ids=["core", "qri"])
    def test_prelude_samples_no_verification_nodes_alone(self, monkeypatch, in_band):
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

        directions, _, x_grid, _ = certificates._margin_prelude(inst, x, 0.0, INF,
                                                                in_band=in_band)
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
        membership grid (the band check), on the scan samples with the
        instance nodes, and on the margin rule's membership grid, which is
        the margin grid inside the margin; qri skips the first.  Only that
        last call samples the margin grid."""
        from entromin.certificates import MEMBERSHIP_SAMPLES
        from entromin.quadrature import refine_rule

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        sampled = []
        x = Density(lambda s: sampled.append(np.array(s)) or PULSE(s))
        margin = build(inst, x, 0.0, INF).margin
        assert len(sampled) == calls
        rule = refine_rule(inst.rule, margin.lo, margin.hi)
        uniform = np.linspace(*rule.interval, MEMBERSHIP_SAMPLES + 2)
        margin_grid = np.linspace(margin.lo, margin.hi, MEMBERSHIP_SAMPLES)
        grid = np.concatenate([uniform[uniform < margin.lo], margin_grid,
                               uniform[uniform > margin.hi], rule.nodes])
        assert sampled[-1].tobytes() == grid.tobytes()
        assert [np.isin(margin_grid, s).all() for s in sampled] == [False] * (calls - 1) + [True]

    def test_certificate_frozen_and_unchanged_by_verification(self):
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.delta = 0.0
        before = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
        held = [cert.sup_unit, cert.grid, cert.directions.basis_design, cert.directions.coeffs,
                cert.directions.margin_design]
        arrays = [np.copy(a) for a in held]
        verify_core_certificate(inst, PULSE, cert, trials=10, seed=0)
        assert all(getattr(cert, name) is value for name, value in before.items())
        for array, now in zip(arrays, held):
            np.testing.assert_array_equal(now, array)

    def test_certificate_holds_read_only_views(self):
        """A certificate over-driven 64 times fails P1 in every trial; were its
        sup bound zeroed in place, the step rule would take no step, and every
        trial would pass.
        Each array of the certificate and of its y_k (a QR factor too) is a
        read-only view: a write raises, and a caller's own array is held
        without a copy and stays writable."""
        rho = constant_density(0.5)
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(4), rho)
        cert = _overdriven(build_core_certificate(inst, rho, 0.0, 1.0), 64.0)
        across = build_direction_functions(piecewise_flat_basis(4, 0.5), RULE,
                                           MarginInterval(0.25, 0.75, 1.0, 1.0))
        assert verify_core_certificate(inst, rho, cert).p1_passes == 0
        held = [(cert, name) for name in ("sup_unit", "grid")]
        held += [(across, name) for name in ("coeffs", "factor", "basis_design",
                                             "margin_design")]
        for owner, name in held:
            with pytest.raises(ValueError, match="read-only"):
                getattr(owner, name)[...] = 0.0
        assert verify_core_certificate(inst, rho, cert).p1_passes == 0
        own = np.ones(4)
        assert np.shares_memory(dataclasses.replace(cert, grid=own).grid, own)
        assert np.shares_memory(dataclasses.replace(across, factor=own).factor, own)
        own[0] = 2.0

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
        """Against a per-trial evaluation of each perturbation's own
        coefficients, verification's worst P2 residual covers its trials',
        to the quadrature's rounding bound, and its worst P1 violation is no
        smaller than its worst trial's, less a few ulps of the clearance
        (the bound on the perturbation); over-driven steps leave the band in
        some trials, and then P1 fails every trial."""
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
        piecewise_flat_basis(4, 0.5), KERNEL_PINNED(piecewise_flat_basis(6, 0.5)),
        monomial_basis(1), monomial_basis(4), KERNEL_PINNED(monomial_basis(6)),
    ], ids=["piecewise4", "piecewise6-readme", "monomial1", "monomial4", "monomial6"])
    def test_build_hands_verification_the_audited_arrays(self, basis):
        """The inner products verification forms from the margin design
        match `_inner_products` to 1e-13, verification reports their
        orthogonality defect, and its sup bound is above |y_k| on the whole
        grid, where the y_k are zero off the margin."""
        inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        formed = _verified_inner_products(cert.directions)
        np.testing.assert_allclose(formed, _inner_products(cert.directions), rtol=0.0, atol=1e-13)
        report = verify_core_certificate(inst, PULSE, cert, trials=10, seed=0)
        defect = formed - np.eye(inst.n)
        assert report.orthogonality == np.linalg.norm(defect, axis=0).max() <= 1e-12
        assert report.target <= 1e-14 and report.all_passed and report.failures == ()
        full = cert.directions(cert.grid)
        assert np.all(np.abs(full) < cert.sup_unit[:, None])
        assert not np.any(full[:, (cert.grid < cert.margin.lo) | (cert.grid > cert.margin.hi)])

    def test_corrupted_direction_fails_as_direction_functions(self, monkeypatch):
        """Negative control: y_1 + 1e-6 y_2 in place of y_1 on the README
        family has <y_1, a_2> = 1e-6.  P2's bound scales it by the largest
        admissible |s_1|, about 2.3e-3, to 2.3e-9, so every trial passes P2;
        the orthogonality defect, taken at unit size, fails as "direction
        functions"."""
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
        assert _inner_products(cert.directions)[0, 1] == pytest.approx(1e-6, rel=1e-6)
        report = verify_core_certificate(inst, PULSE, cert, trials=100, seed=0)
        assert (report.p1_passes, report.p2_passes) == (100, 100)
        assert report.orthogonality == pytest.approx(1e-6, rel=1e-6)
        assert report.failures == ("direction functions",) and not report.all_passed

    @pytest.mark.parametrize("n,gap", [(3, 1.63e-8), (4, 2.45e-8), (5, 4.66e-8),
                                       KERNEL_PINNED(6, 7.58e-8)])
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


    @pytest.mark.parametrize("entropy,basis,rho,band", [
        ("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE, (0.0, INF)),
        ("boltzmann_shannon", monomial_basis(4), constant_density(0.5), (0.0, 1.0)),
        ("fermi_dirac", monomial_basis(3), constant_density(0.999999999999999), (0.0, 1.0)),
    ], ids=["readme", "constant-monomial4", "fermi-dirac-near-1"])
    def test_radius_nets_the_defect_out_of_the_step(self, entropy, basis, rho, band):
        """radius = t_unit (1 - ||D^T - I||_inf) - ||e||_inf, the sup-norm
        ball around b the certified steps reach.  Where the defects are at
        rounding level it is t_unit to 1e-8; Fermi-Dirac just below 1 takes a
        step of 9e-18 against a target defect of 1e-15, so every trial passes
        P1 and P2 and the radius, negative, fails by name."""
        inst = make_instance(entropy, basis, rho)
        cert = build_core_certificate(inst, rho, *band)
        report = verify_core_certificate(inst, rho, cert, trials=100, seed=0)
        omega = np.linalg.norm(_verified_inner_products(cert.directions).T - np.eye(inst.n),
                               np.inf)
        assert report.radius == pytest.approx(cert.t_unit * (1.0 - omega) - report.target,
                                              rel=1e-12, abs=1e-30)
        assert (report.p1_passes, report.p2_passes) == (100, 100)
        if entropy == "fermi_dirac":
            assert cert.t_unit < 1e-17 < 1e-16 < report.target and report.radius < 0.0
            assert report.failures == ("radius",) and not report.all_passed
        else:
            assert report.radius / cert.t_unit >= 1.0 - 1e-8
            assert report.failures == () and report.all_passed
        for radius in (0.0, -0.0, np.nan):
            assert dataclasses.replace(report, radius=radius).failures == ("radius",)
        for column, omega in (([0.1, -0.2, 0.3], 0.6), ([0.5, -0.5, 0.5], 1.5)):
            skew = np.zeros((inst.n, inst.n))
            skew[:3, 1] = column   # omega is the largest column sum of |(I + skew) D - I|
            mixed = _skewed(cert, skew)
            skewed = verify_core_certificate(inst, rho, mixed, trials=1, seed=0)
            assert skewed.radius == pytest.approx(mixed.t_unit * (1.0 - omega) - report.target,
                                                  rel=1e-9, abs=1e-30)
            assert ("radius" in skewed.failures) is (omega > 1.0 or entropy == "fermi_dirac")

    @pytest.mark.parametrize("n", [2, 6])
    def test_solver_density_on_a_boundary_target_fails_radius(self, n):
        """Fermi-Dirac piecewise_flat on the pulse, a boundary target: the
        solver's x_mu builds a core certificate whose every trial passes, but
        its step (1e-13 and below) is smaller than its target defect (about
        5e-11), so no neighbourhood of b is certified."""
        inst = make_instance("fermi_dirac", piecewise_flat_basis(n, 0.5), PULSE)
        x = reconstruct(inst, solve_dual(inst).multipliers).x
        cert = build_core_certificate(inst, x, 0.0, 1.0)
        report = verify_core_certificate(inst, x, cert, trials=100, seed=0)
        assert (report.p1_passes, report.p2_passes) == (100, 100)
        assert cert.t_unit < 1e-13 < 1e-11 < report.target
        assert report.radius < 0.0 and report.failures == ("radius",)

    def test_plan_configs_certify_their_step_as_radius(self, tmp_path, bench_module):
        """On the 8 configs of the certify-core benchmark plan the certified
        radius is the unit step to 1e-8: their defects are at rounding level."""
        workloads = bench_module("workloads")
        for i, op in enumerate(workloads.plan("certify-core", 1)["ops"]):
            path = tmp_path / f"{i}.ini"
            path.write_text(workloads.to_ini(op))
            cfg = load_config(path)
            inst, rho = build_problem(cfg, cfg.basis)
            cert = build_core_certificate(inst, rho, *cfg.certify.band_for(inst.entropy))
            report = verify_core_certificate(inst, rho, cert, 100, op["trial_seed"])
            assert report.radius / cert.t_unit >= 1.0 - 1e-8, workloads.label(op)


class TestQriCertificate:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pulse_monomials_unit_band(self, n):
        """For n >= 2 the pulse's moments are a boundary point of those of the
        [0, 1]-valued densities (the bathtub principle), so qri fails
        `[margin interval]` on [0, 1] as core does, instead of accepting a
        witness that leaves the band; on the domain band [0, inf) it accepts
        one with the pulse's moments."""
        inst = make_instance("boltzmann_shannon", monomial_basis(n), PULSE)
        for build in (build_core_certificate, build_qri_certificate):
            with pytest.raises(CertificateError) as err:
                build(inst, PULSE, 0.0, 1.0)
            assert err.value.hypothesis == "margin interval"
        cert = build_qri_certificate(inst, PULSE, 0.0, INF)
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

    def test_certificate_frozen(self):
        """The witness is a result, frozen like the core certificate: its
        fields cannot be reassigned, and its y still evaluates."""
        rho = constant_density(0.5)
        inst = make_instance("boltzmann_shannon", monomial_basis(3), rho)
        cert = build_qri_certificate(inst, rho, 0.0, 1.0)
        for name, value in (("m", 4), ("eps", 0.0), ("y", rho)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, name, value)
        grid = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(cert.y(grid), rho(grid))

    def test_witness_clears_the_end_of_a_bounded_domain(self):
        """Fermi-Dirac, constant 0.9, margin left of the split: levels 3..9 clip
        x down, and their correction, carried by half the interval, reaches
        delta/2 = 0.05, half the density's clearance below 1, so the scan
        passes over them; m = 10 clips nothing, and eps is the witness's
        clearance below 1, not above 0."""
        rho = constant_density(0.9)
        inst = make_instance("fermi_dirac", monomial_basis(3), rho)
        cert = build_qri_certificate(inst, rho, 0.0, 1.0)
        assert cert.margin.hi < 0.5
        assert cert.m == 10
        assert cert.eps == cert.upper_clearance == pytest.approx(0.1, abs=1e-15)
        grid = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(cert.y(grid), rho(grid))

    def test_single_constant_moment(self):
        inst = make_instance("boltzmann_shannon", monomial_basis(1), PULSE)
        cert = build_qri_certificate(inst, PULSE, 0.0, INF)
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
            inst, PULSE, 0.0, INF, m_max=m_max), y=None) for m_max in (4000.0, 4000))
        assert by_float == by_int

    @pytest.mark.parametrize("band,message", [
        ((-1.0, 2.0), "is not contained in the domain"),
        ((2.0, 1.0), re.escape("band [2.0, 1.0] is empty")),
    ], ids=["outside-domain", "empty"])
    def test_band_outside_entropy_domain_rejected(self, band, message):
        inst = make_instance("boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        with pytest.raises(ValidationError, match=message):
            build_qri_certificate(inst, PULSE, *band)

    def test_scanned_margin_touching_the_band_names_margin(self):
        """The zero sits on no point qri checks, so delta is read as 1; the
        witness accepted at m = 1037 matches the margin rule's moments, not
        the target the zero moved, and fails `[moment match]`."""
        inst, rho = _pulse_zeroed_in_margin()
        with pytest.raises(CertificateError, match=r"accepted at m=1037 misses the target "
                                                   r"moments by 1\.269e-03") as err:
            build_qri_certificate(inst, rho, 0.0, INF)
        assert err.value.hypothesis == "moment match"

    def test_budget_exhaustion_reports_decay(self):
        # five monomials need the clipping level well past m = 100
        inst = make_instance("boltzmann_shannon", monomial_basis(5), PULSE)
        with pytest.raises(CertificateError) as err:
            build_qri_certificate(inst, PULSE, 0.0, INF, m_max=100)
        assert "defect decay" in str(err.value)
        assert err.value.hypothesis == "witness acceptance"

    @pytest.mark.parametrize("entropy,basis,rho,band,m_max", [
        ("boltzmann_shannon", monomial_basis(4), PULSE, (0.0, INF), 4000),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE, (0.0, INF), 4000),
        ("boltzmann_shannon", monomial_basis(3), constant_density(0.5), (0.0, 1.0), 4000),
        # the README config, whose witness lies past m = 44,000
        ("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE, (0.0, INF), 200),
        # the clipped set changes with m on the ramp and the bump
        ("boltzmann_shannon", monomial_basis(4), RAMP, (0.0, 1.0), 3000),
        ("translated_boltzmann_shannon", monomial_basis(5), RAMP, (0.0, INF), 4000),
        ("boltzmann_shannon", monomial_basis(3), BUMP, (0.0, 1.0), 4000),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), BUMP, (0.0, INF), 300),
        ("boltzmann_shannon", monomial_basis(6), PULSE, (0.0, INF), 400),
        ("fermi_dirac", monomial_basis(4), RAMP, (0.0, 1.0), 200),
        ("fermi_dirac", monomial_basis(3), constant_density(0.6), (0.0, 1.0), 200),
    ], ids=["pulse-monomial4", "pulse-piecewise4", "constant-monomial3", "readme-budget-200",
            "ramp-monomial4", "ramp-monomial5-half-line", "bump-monomial3",
            "bump-piecewise4-half-line", "pulse-monomial6-budget-400",
            "ramp-monomial4-fermi-dirac", "constant-monomial3-fermi-dirac"])
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
        if np.ptp(rho(np.linspace(0.0, 1.0, 777))) == 0.0:  # a constant density
            assert m == 3  # accepted at the first level, which clips nothing

    @pytest.mark.parametrize("entropy,basis,rho,band", SCREENED_CONFIGS, ids=SCREENED_IDS)
    def test_candidate_levels_keep_every_passing_level(self, entropy, basis, rho, band):
        """Every level in [3, m_max] that is not handed to the exact path has
        an exact per-level sup|v| >= delta/2, and every level handed on
        passes, or the next one does (the solved interval is widened to whole
        levels)."""
        from entromin.certificates import _candidate_levels, _margin_prelude

        inst = make_instance(entropy, basis, rho)
        lower, upper = band
        m_max = 2000
        directions, grid, x_grid, delta = _margin_prelude(inst, rho, lower, upper, in_band=False)
        margin_design, ver_design = directions.margin_design, directions.basis_design
        ver_rule = directions.rule
        x_ver = x_grid[grid.size - ver_rule.nodes.size:]

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
        """Ending each piece where its outermost clipped node leaves yields
        the levels the clipped-set gallop and bisection yield."""
        from entromin.certificates import _candidate_levels

        args = _scan_inputs(entropy, basis, rho, band)
        assert (list(_candidate_levels(*args, m_max))
                == list(_galloping_candidate_levels(*args, m_max)))

    @pytest.mark.parametrize("entropy,basis,rho,band", SCREENED_CONFIGS, ids=SCREENED_IDS)
    def test_one_clip_per_piece(self, entropy, basis, rho, band, monkeypatch):
        """A piece's end is found from two node values, so the scan clips the
        nodes once per piece: the runs of levels in [3, 2000] that clip the
        same nodes, counted by clipping at every level."""
        from entromin.certificates import _candidate_levels

        args = _scan_inputs(entropy, basis, rho, band)
        x_ver, (lower, upper) = args[0], band
        width = upper - lower if np.isfinite(upper) else 1.0
        sides = np.array([np.sign(np.clip(x_ver, lower + width / m, upper - width / m) - x_ver)
                          for m in range(3, 2001)])
        pieces = 1 + int(np.any(sides[1:] != sides[:-1], axis=1).sum())
        clip, calls = np.clip, []
        monkeypatch.setattr(np, "clip", lambda *a: calls.append(None) or clip(*a))
        list(_candidate_levels(*args, 2000))
        assert len(calls) == pieces

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
        width / gap gives is one level off, so a piece end taken from the gap
        would be wrong; the two thresholds, the float bounds np.clip receives,
        end each piece where the clipped sets change.  Acceptance starts where
        a piece ends, for delta/2 at that level's sup|v|: there a piece end one
        level off changes the yields."""
        from entromin.certificates import _candidate_levels

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
        gallop stops at the budget."""
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
        clip lowers the clipped density by 2 on the membership grid for the
        first `lost` witnesses each scan checks (every one, for None)."""
        from entromin.certificates import MEMBERSHIP_SAMPLES

        clip, checked = np.clip, []

        def lowered_on_membership_grid(values, lo, hi):
            clipped = clip(values, lo, hi)
            if values.size <= MEMBERSHIP_SAMPLES:
                return clipped  # the nodes, or a witness's own points
            checked.append(None)
            return clipped - (2.0 if lost is None or len(checked) <= lost else 0.0)

        monkeypatch.setattr(np, "clip", lowered_on_membership_grid)
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
        grid at m_max = 4000, only the six of the failure report, and at
        m_max = 50000 it accepts m = 44103 after at most five: a level is
        evaluated there once `_candidate_levels` hands it on."""
        from entromin import certificates

        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        calls, screen = [], certificates._candidate_levels

        def counted_levels(*args):
            for m in screen(*args):
                calls.append(m)
                yield m

        monkeypatch.setattr(certificates, "_candidate_levels", counted_levels)
        with pytest.raises(CertificateError) as err:
            build_qri_certificate(inst, PULSE, 0.0, INF, m_max=4000)
        assert calls == [] and str(err.value).count("sup|v|=") == 6
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
        assert [s.tobytes() for s in phis] == [margin_grid.tobytes()]
        reached = {span[1] for span in tracer.spans}
        assert {"quadrature.build_rule", "moments.linearly_independent_on",
                "certificates.find_margin_interval",
                "certificates.build_direction_functions"} <= reached
        assert (f"certificates.build_{kind}_certificate" in reached
                and ("certificates.verify_core_certificate" in reached) == (kind == "core"))

    def test_scan_samples_its_lattice_and_the_builder_the_margin_grid(self, monkeypatch):
        """The scan calls x once, on MEMBERSHIP_SAMPLES interior samples of each
        segment alone (4002 points on the README rule, no node), and the y_k
        builder builds the margin grid without the membership grid."""
        from entromin import certificates
        from entromin.certificates import MEMBERSHIP_SAMPLES

        sampled, built = [], []
        x = Density(lambda s: sampled.append(np.array(s)) or PULSE(s))
        margin = find_margin_interval(x, 0.0, INF, RULE)
        lattice = np.concatenate([np.linspace(lo, hi, MEMBERSHIP_SAMPLES + 2)[1:-1]
                                  for lo, hi in [(0.0, 0.5), (0.5, 1.0)]])
        assert lattice.size == 4002 and not np.isin(RULE.nodes, lattice).any()
        assert [s.tobytes() for s in sampled] == [lattice.tobytes()]
        monkeypatch.setattr(certificates, "_membership_grid", lambda *args: built.append(args))
        directions = build_direction_functions(piecewise_flat_basis(6, 0.5), RULE, margin)
        assert built == []
        on_margin = nodes_in(directions.rule, margin.lo, margin.hi)[0]
        assert directions.margin_design.shape == (6, MEMBERSHIP_SAMPLES + on_margin.size)

    def test_failing_readme_scan_builds_no_membership_evaluator(self, monkeypatch):
        """The README config fails at m_max = 4000 without a level passing
        sup|v| < delta/2, and accepts m = 44103 at m_max = 50000; neither
        scan calls the `DirectionFunctions`: the witness reads its correction
        on the margin grid, where sup|v| read it."""
        from entromin import certificates

        call, built = DirectionFunctions.__call__, []
        monkeypatch.setattr(DirectionFunctions, "__call__",
                            lambda self, s, coeffs=None: built.append(s.size)
                            or call(self, s, coeffs))
        inst = make_instance("translated_boltzmann_shannon", piecewise_flat_basis(6, 0.5), PULSE)
        with pytest.raises(CertificateError, match="no acceptable witness up to m=4000"):
            certificates.build_qri_certificate(inst, PULSE, 0.0, INF, m_max=4000)
        assert built == []
        assert certificates.build_qri_certificate(inst, PULSE, 0.0, INF, m_max=50000).m == 44103
        assert built == []


@pytest.mark.parametrize("kind", ["core", "qri"])
def test_scalar_density_certifies_as_the_constant(kind):
    """`instance_from_density` accepts a density that returns one scalar for
    all points; both certificates read it as that value at every point, so
    it certifies exactly as `constant_density(0.5)` does.  A density that
    returns shape (2, N) fails as a ValidationError naming the shape, when the
    instance's target moments are integrated."""
    results = []
    for rho in (Density(lambda s: 0.5), constant_density(0.5)):
        inst = make_instance("translated_boltzmann_shannon", monomial_basis(3), rho)
        if kind == "core":
            cert = build_core_certificate(inst, rho, 0.0, 1.0)
            results.append((cert.margin, cert.clearance, cert.sup_unit.tobytes(),
                            cert.grid.tobytes(), verify_core_certificate(inst, rho, cert)))
        else:
            cert = build_qri_certificate(inst, rho, 0.0, 1.0)
            results.append((cert.margin, cert.m, cert.eps, cert.moment_match_residual,
                            cert.upper_clearance, cert.correction_sup,
                            cert.y(np.linspace(0.0, 1.0, 777)).tobytes(), float(cert.y(0.3))))
    assert results[0] == results[1]
    assert kind == "qri" or results[0][-1].all_passed
    pair = Density(lambda s: np.stack([np.full(np.shape(s), 0.5)] * 2))
    with pytest.raises(ValidationError, match=r"returned values of shape \(2, \d+\) at \(\d+,\)"):
        make_instance("translated_boltzmann_shannon", monomial_basis(2), pair)


def _read_density(entry, rho):
    """What `entry` reads of the density `rho`, as comparable values: each
    certificate and verification on the instance of `constant_density(0.5)`."""
    const, basis = constant_density(0.5), monomial_basis(3)
    inst = make_instance("translated_boltzmann_shannon", basis, const)
    if entry == "instance_from_density":
        return make_instance("translated_boltzmann_shannon", basis, rho).target_moments.tobytes()
    if entry == "moment_vector":
        return moment_vector(basis, RULE, rho).tobytes()
    if entry == "integrate":
        return integrate(RULE, rho).hex()
    if entry == "gibbs_overshoot":
        return gibbs_overshoot(types.SimpleNamespace(x=BUMP), rho, (0.2, 0.8)).hex()
    if entry == "build_core_certificate":
        cert = build_core_certificate(inst, rho, 0.0, 1.0)
        return cert.margin, cert.clearance, cert.sup_unit.tobytes(), cert.grid.tobytes()
    if entry == "build_qri_certificate":
        cert = build_qri_certificate(inst, rho, 0.0, 1.0)
        return (cert.margin, cert.m, cert.eps, cert.moment_match_residual, cert.correction_sup,
                cert.y(np.linspace(0.0, 1.0, 777)).tobytes())
    return verify_core_certificate(inst, rho, build_core_certificate(inst, const, 0.0, 1.0))


@pytest.mark.parametrize("entry", [
    "instance_from_density", "moment_vector", "integrate", "gibbs_overshoot",
    "build_core_certificate", "build_qri_certificate", "verify_core_certificate"])
def test_every_entry_point_reads_the_density_alike(entry):
    """Every entry point reads a density through one checked sampler: one that
    returns a scalar for all points reads, bit for bit, as the constant, and
    one that returns shape (2, N) is a ValidationError naming that shape."""
    assert _read_density(entry, lambda s: 0.5) == _read_density(entry, constant_density(0.5))
    pair = Density(lambda s: np.stack([np.full(np.shape(s), 0.5)] * 2))
    with pytest.raises(ValidationError, match=r"returned values of shape \(2, \d+\) at \(\d+,\)"):
        _read_density(entry, pair)


def test_custom_family_solves_and_certifies():
    """A family built as `MomentBasis(n, rows)`, here 1, cos(pi s) and
    cos(2 pi s), goes through the whole library as the built-in ones do:
    the dual solve converges with a vanishing gap, the core certificate is
    built on the QR path and verifies, and the qri witness is accepted."""
    basis = MomentBasis(3, lambda s: np.stack([np.cos(k * np.pi * np.asarray(s))
                                                for k in range(3)]))
    inst = make_instance("translated_boltzmann_shannon", basis, PULSE)
    solution = solve_dual(inst)
    assert solution.converged
    assert abs(reconstruct(inst, solution.multipliers).duality_gap) <= 1e-8
    cert = build_core_certificate(inst, PULSE, 0.0, INF)
    assert cert.directions.factor is not None  # the a_k orthonormalized, not Legendre
    report = verify_core_certificate(inst, PULSE, cert, trials=100, seed=0)
    assert report.all_passed
    assert (report.p1_passes, report.p2_passes) == (100, 100)
    qri = build_qri_certificate(inst, PULSE, 0.0, INF)
    assert qri.eps > 0.0
    assert qri.moment_match_residual <= 1e-8


def test_core_and_qri_agree_on_a_finite_band():
    """Both certificates certify the band they are given.  On 160 configs,
    BS, tBS, cosh and l2_norm with monomial and piecewise_flat families of
    n in (1, 2, 3, 4, 6), the pulse and the constant 0.5, and the bands
    [0, 1] and [0, 2], each ends the same under both: both pass, or both
    fail by the same hypothesis.  The one named exception is qri's budget:
    core passes and qri ends in `[witness acceptance]`.  The pulse touches
    both ends of [0, 1], so there both fail `[margin interval]`."""

    def outcome(build, inst, rho, upper):
        try:
            cert = build(inst, rho, 0.0, upper)
        except CertificateError as err:
            return err.hypothesis
        if build is build_qri_certificate or verify_core_certificate(inst, rho, cert).all_passed:
            return "pass"
        return "verification"

    for entropy in ["boltzmann_shannon", "translated_boltzmann_shannon", "cosh", "l2_norm"]:
        for n in (1, 2, 3, 4, 6):
            for kind, basis in (("monomial", monomial_basis(n)),
                                ("piecewise_flat", piecewise_flat_basis(n, 0.5))):
                for rho in (PULSE, constant_density(0.5)):
                    inst = make_instance(entropy, basis, rho)
                    for upper in (1.0, 2.0):
                        got = tuple(outcome(build, inst, rho, upper)
                                    for build in (build_core_certificate, build_qri_certificate))
                        label = (entropy, kind, n, "pulse" if rho is PULSE else "constant", upper)
                        assert got[0] == got[1] or got == ("pass", "witness acceptance"), label
                        if rho is PULSE and upper == 1.0:
                            assert got == ("margin interval",) * 2, label
