"""Constructive strong-duality certificates.

Strong duality for the constrained entropy problem needs the target moment
vector to lie in the core of the image of the entropy's effective domain
under the moment map.  Both certificates built here witness that
membership constructively, starting from the same hypothesis, which one
prelude (`_margin_prelude`) checks for both: a "margin interval" on which the
reference density stays strictly inside its admissible value band, and on
which the moment functions are linearly independent.  Independence is needed
nowhere else, which is what lets moment families that degenerate elsewhere
(the piecewise-flat family) pass.

Core certificate.  For every direction eta in R^n one can perturb the
density by t * sum_k y_k, where the y_k are "direction functions"
supported on the margin interval with <y_k, a_j> = eta_k when j = k and 0
otherwise.  The certificate packages the y_k (built once for the unit
direction and rescaled, since they are linear in eta), a bound Delta on
their sup, and the step rule t(eta) that keeps the perturbed density
inside the band.  Verification replays the construction for randomized
directions and checks both conclusions: the perturbed density stays in the
band (P1) and its moments move exactly to b + t*eta (P2).

Quasi-relative-interior certificate.  Clip the density into the open band
at level 1/m, correct the clipped moments back to b with a function v
supported on the margin interval, and accept the first m whose correction
is small against the margin (sup |v| < delta/2) while the witness
y = x_m - v stays strictly above the lower bound.  The resulting y has the
same moments as the density and a positive clearance eps, which is exactly
what the certificate asserts.  The clearance is one-sided by construction: for a
two-valued density such as the pulse with band (0, 1), the correction
necessarily pushes y above the upper bound somewhere, so only the lower
clearance can be certified.  When the upper bound is finite the measured
upper clearance is reported alongside for inspection.

All membership checks are sample-based (dense grids plus quadrature
nodes), so a certificate is strong numerical evidence, not an
almost-everywhere proof; solver output labels it as such.

Numerical note: the direction-function coefficients solve Gram systems
whose conditioning grows like Hilbert matrices (about 1e10 for six
monomials on half the unit interval).  Construction therefore runs in
extended precision with iterative refinement; in plain float64 the
orthogonality defect lands within a factor of four of the 1e-8 audit
tolerance, which is too close to trust.  The y_k are evaluated one way,
`_combine`: a long-double product of coefficients and a design built once per
point set (powers as products, see `moments._power`), the prelude's margin
design or `DirectionFunctions.evaluator`'s.  The prelude builds the
verification points, and the core certificate carries them to its
verification.  Core verification combines the y_k in float64, trials in
stacked blocks (see `verify_core_certificate`), and the Gram solves of all k
form one stack (`_refined_solve`): a stacked numpy call makes each item's
BLAS or LAPACK call, so both keep their bits.  The qri scan solves for the
clip levels it must evaluate instead of visiting each (see
`_candidate_levels`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .entropies import EntropySpec
from .errors import (
    CertificateError,
    DependentBasisError,
    NoMarginIntervalError,
    ValidationError,
)
from .moments import (
    MomentBasis,
    ProblemInstance,
    design_matrix,
    linearly_independent_on,
    subinterval_rule,
    weighted_gram,
)
from .quadrature import QuadratureRule, build_rule

__all__ = [
    "MarginInterval",
    "DirectionFunctions",
    "CoreCertificate",
    "QriCertificate",
    "CertificateVerification",
    "within_bounds",
    "find_margin_interval",
    "build_direction_functions",
    "direction_inner_products",
    "build_core_certificate",
    "verify_core_certificate",
    "build_qri_certificate",
]

_LD = np.longdouble

MARGIN_SCAN_SAMPLES = 2001      # per segment between breakpoints
MEMBERSHIP_SAMPLES = 2001
CONFIRM_SAMPLES = 1001          # minimum for the margin value range
SAFETY_FACTOR = 0.99            # strictness slack in the step rule
P2_TOL = 1e-8
P1_SLACK = 1e-12
TRIAL_BLOCK = 8                 # verification trials per stacked call: bounds the temporaries


@dataclass(frozen=True)
class MarginInterval:
    """A subinterval where the density keeps clear of its value bounds.

    `val_lo`/`val_hi` are the observed minimum and maximum of the density
    over at least 1001 uniform samples of [lo, hi] plus every quadrature
    node inside it, and, from the certificate builders, every membership-grid
    point and verification node inside it, where certificates are checked.
    """

    lo: float
    hi: float
    val_lo: float
    val_hi: float


def _check_band(entropy: EntropySpec, lower: float, upper: float) -> None:
    """[lower, upper] must sit inside the entropy domain; that is a
    configuration error, not a certificate failure."""
    if not entropy.f_domain.contains_interval(lower, upper):
        raise ValidationError(
            f"band [{lower}, {upper}] is not contained in the domain "
            f"{entropy.f_domain} of {entropy.name}"
        )


def _in_band(values, lower: float, upper: float) -> bool:
    """Every value finite and in [lower, upper]: +inf fails an unbounded band."""
    return bool(np.all(np.isfinite(values) & (values >= lower) & (values <= upper)))


def within_bounds(entropy: EntropySpec, x, lower: float, upper: float,
                  rule: QuadratureRule) -> bool:
    """Check x(s) finite and in [lower, upper] at all nodes and
    MEMBERSHIP_SAMPLES uniform samples; a band outside the entropy domain
    raises ValidationError.
    """
    _check_band(entropy, lower, upper)
    samples = np.concatenate([np.linspace(*rule.interval, MEMBERSHIP_SAMPLES), rule.nodes])
    return _in_band(np.asarray(x(samples), dtype=float), lower, upper)


def _longest_run(mask: np.ndarray):
    """(start, stop) indices of the longest run of True, or None."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    if edges.size == 0:
        return None
    starts, stops = edges[::2], edges[1::2] - 1
    best = int(np.argmax(stops - starts))
    return int(starts[best]), int(stops[best])


def _confirmed_margin(x, interval, nodes=None) -> MarginInterval:
    """[z1, z2] with the range of x over CONFIRM_SAMPLES points and the nodes inside."""
    z1, z2 = float(interval[0]), float(interval[1])
    samples = [np.linspace(z1, z2, CONFIRM_SAMPLES)]
    if nodes is not None:
        nodes = np.asarray(nodes, dtype=float)
        samples.append(nodes[(nodes >= z1) & (nodes <= z2)])
    values = np.asarray(x(np.concatenate(samples)), dtype=float)
    return MarginInterval(z1, z2, float(np.min(values)), float(np.max(values)))


def find_margin_interval(x, lower: float, upper: float, interval,
                         breakpoints=(), min_width: Optional[float] = None,
                         nodes=None, one_sided: bool = False) -> MarginInterval:
    """Locate the widest interval on which x stays clear of its bounds.

    Scans each segment between breakpoints on a dense grid, trying margins
    eps from a geometric grid (largest first) and returning the widest
    interval of width at least `min_width` (default: 1% of the interval)
    on which x(s) stays in [lower + eps, upper - eps].  With
    `one_sided=True` only the lower clearance constrains the scan, which
    is what the quasi-relative-interior construction needs: its conclusion
    certifies clearance above the lower bound only, so a density pinned to
    the upper bound (the pulse with band (0, 1)) must still admit a
    witness interval.

    `nodes` (quadrature nodes, when available) join the confirmation
    samples that set the certified value range.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if min_width is None:
        min_width = (hi - lo) / 100.0
    if not 0.0 < min_width < np.inf:
        raise ValidationError(f"min_width must be positive and finite, got {min_width}")

    if np.isfinite(upper):
        eps_grid = [(upper - lower) / 2.0 ** k for k in range(1, 60)]
    else:
        eps_grid = [2.0 ** -k for k in range(0, 60)]

    edges = [lo, *sorted(b for b in breakpoints if lo < b < hi), hi]
    segments = []
    spacing = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        grid = np.linspace(a, b, MARGIN_SCAN_SAMPLES + 2)[1:-1]  # interior only
        spacing = max(spacing, float(grid[1] - grid[0]))
        segments.append((grid, np.asarray(x(grid), dtype=float)))

    for eps in eps_grid:
        if lower + eps == lower or (np.isfinite(upper) and upper - eps == upper):
            break  # eps rounds away against the bounds: nothing left to scan
        best = None
        for grid, values in segments:
            ok = values >= lower + eps
            if np.isfinite(upper) and not one_sided:
                ok &= values <= upper - eps
            run = _longest_run(ok)
            if run is None:
                continue
            z1, z2 = float(grid[run[0]]), float(grid[run[1]])
            if best is None or (z2 - z1) > (best[1] - best[0]):
                best = (z1, z2)
        # slack of 1.5 grid steps: a run clipped to interior samples measures
        # up to one spacing shorter than the interval it certifies, and the
        # boundary case ties to the last ulp
        if best is not None and best[1] - best[0] >= min_width - 1.5 * spacing:
            return _confirmed_margin(x, best, nodes)

    raise NoMarginIntervalError(
        f"no margin interval of width >= {min_width} found on [{lo}, {hi}]: "
        f"the density never clears its bounds ({lower}, {upper}) at this resolution"
    )


@dataclass
class DirectionFunctions:
    """Functions y_1..y_n in the span of the moment family on a margin
    interval, with <y_k, a_j> = eta_k when j = k and 0 otherwise.

    Each row of `coeffs` holds the expansion of one y_k over a_1..a_n,
    restricted to [margin.lo, margin.hi] (zero outside).  Coefficients and
    the Gram matrix are kept in extended precision; see the module note.
    """

    margin: MarginInterval
    basis: MomentBasis
    coeffs: np.ndarray = field(repr=False)          # (n, n) longdouble
    gram: np.ndarray = field(repr=False)            # (n, n) longdouble
    sub_nodes: np.ndarray = field(repr=False)       # subinterval rule nodes

    def evaluator(self, s) -> Callable:
        """Map from expansion coefficients, shape (n,) or (k, n), to their
        values at the points s, zero outside the margin.  The long-double
        design of the points inside the margin is built once, here, and
        each call is one `_combine` with it.
        """
        s = np.asarray(s, dtype=float)
        inside = (s >= self.margin.lo) & (s <= self.margin.hi)
        design = design_matrix(self.basis, s[inside].astype(_LD))

        def evaluate(coeffs):
            inner = _combine(coeffs, design)
            values = np.zeros(inner.shape[:-1] + s.shape)
            values[..., inside] = inner
            return values

        return evaluate

    def evaluate_all(self, s) -> np.ndarray:
        """Values of every y_k at the points s, shape (n, len(s))."""
        return self.evaluator(s)(self.coeffs)


def _combine(coeffs, design) -> np.ndarray:
    """Values of the expansions `coeffs` at the points of a long-double
    design, rounded to float64."""
    return (np.asarray(coeffs, dtype=_LD) @ design).astype(float)


def _refined_solve(matrix_ld: np.ndarray, rhs_ld: np.ndarray) -> np.ndarray:
    """Solve in float64, then polish with three extended-precision residuals.  A
    stack, (k, m, m) and (k, m, 1), makes one gesv per system per solve, so
    each system keeps the bits it has when solved alone."""
    matrix64 = matrix_ld.astype(float)
    solution = np.linalg.solve(matrix64, rhs_ld.astype(float)).astype(_LD)
    for _ in range(3):
        residual = rhs_ld - matrix_ld @ solution
        solution = solution + np.linalg.solve(matrix64, residual.astype(float)).astype(_LD)
    return solution


def build_direction_functions(basis: MomentBasis, rule: QuadratureRule,
                              margin: MarginInterval, eta) -> DirectionFunctions:
    """Construct the y_k for a direction eta on the margin interval.

    For each k with eta_k != 0, the component of a_k orthogonal to the
    span of the remaining functions (an (n-1)-dimensional Gram solve) is
    rescaled so its inner product with a_k equals eta_k.  Zero components
    of eta yield identically zero y_k; the solves of all k form one stack.
    """
    eta = np.asarray(eta, dtype=float)
    n = basis.n
    if eta.shape != (n,):
        raise ValidationError(f"direction has shape {eta.shape}, expected ({n},)")
    report = linearly_independent_on(basis, rule, (margin.lo, margin.hi))
    if not report.independent:
        raise DependentBasisError(
            f"moment functions are numerically dependent on "
            f"[{margin.lo}, {margin.hi}] (smallest Gram eigenvalue "
            f"{report.min_eigenvalue:.3e} <= threshold {report.threshold:.3e}); "
            f"reduce the family or choose a different interval"
        )
    sub = subinterval_rule(basis, rule, (margin.lo, margin.hi))
    gram_ld = weighted_gram(design_matrix(basis, sub.nodes.astype(_LD)), sub.weights.astype(_LD))

    ks = np.flatnonzero(eta)
    j = np.arange(n - 1)
    others = j + (j >= ks[:, None])     # row i: every index but ks[i]
    solution = _refined_solve(gram_ld[others[:, :, None], others[:, None, :]],
                              gram_ld[others, ks[:, None], None])
    v = np.eye(n, dtype=_LD)[ks]
    np.put_along_axis(v, others, -solution[..., 0], axis=1)
    denom = (gram_ld[ks][:, None, :] @ v[:, :, None])[:, 0, 0]  # <a_k, v> = |a_k off the others|^2
    coeffs = np.zeros((n, n), dtype=_LD)
    coeffs[ks] = (eta[ks].astype(_LD) / denom)[:, None] * v

    return DirectionFunctions(margin=margin, basis=basis, coeffs=coeffs, gram=gram_ld,
                              sub_nodes=sub.nodes)


def direction_inner_products(directions: DirectionFunctions) -> np.ndarray:
    """The matrix <y_k, a_j> under the margin-interval inner product."""
    return (directions.coeffs @ directions.gram).astype(float)


@dataclass(frozen=True)
class CoreCertificate:
    """Constructive witness that the target moments are a core point.

    Built once for the all-ones direction; the y_k scale linearly in their
    own component of eta, so `delta_for`/`t_for` recover the bound and
    admissible step for any direction.  `t_unit` is the step for a
    direction at the sup bound (delta_for == delta).  `points` are the
    margin's `_verification_points`, on which the build confirmed the margin
    and verification replays the construction.
    """

    margin: MarginInterval
    directions: DirectionFunctions
    sup_unit: np.ndarray            # per-k sup |y_k| for the unit direction
    delta: float
    lower: float
    upper: float
    clearance: float
    t_unit: float
    points: tuple = field(repr=False)

    def delta_for(self, eta):
        """Sup bound for a direction, or one per row of a stack of them."""
        eta = np.asarray(eta, dtype=float)
        return np.max(np.abs(eta) * self.sup_unit, axis=-1)[()]

    def t_for(self, eta):
        """Step length keeping x + t * sum y_k strictly inside the band
        (0 for a zero direction), or one per row of a stack of directions."""
        bound = self.delta_for(eta)
        with np.errstate(divide="ignore"):
            t = SAFETY_FACTOR * self.clearance / (len(self.sup_unit) * bound)
        return np.where(bound == 0.0, 0.0, t)[()]


@dataclass(frozen=True)
class CertificateVerification:
    """Replay report for randomized directions; see verify_core_certificate."""

    trials: int
    p1_passes: int
    p2_passes: int
    worst_p1_violation: float
    worst_p2_residual: float
    p2_tol: float = P2_TOL

    @property
    def all_passed(self) -> bool:
        return self.p1_passes == self.trials and self.p2_passes == self.trials


def _margin_prelude(instance: ProblemInstance, x, lower: float, upper: float,
                    candidate_interval=None, min_width: Optional[float] = None,
                    one_sided: bool = False):
    """The hypothesis both certificates start from, checked in order.

    1. The band lies in the entropy domain (ValidationError otherwise); the
       two-sided core construction also needs the density finite and inside
       it, on P1's membership grid too once step 2 has built it; the
       one-sided qri needs it finite there.
    2. A margin interval: the scan, or `candidate_interval` confirmed, its
       range widened by the membership-grid points inside it, where x is
       sampled once.
    3. The unit-direction y_k on it, the only independence check.
    4. Its confirmed range strictly inside the band, or only above `lower`
       when `one_sided`.

    Returns the margin, the y_k, the long-double design of the margin grid
    (MARGIN_SCAN_SAMPLES uniform samples plus the subinterval nodes), the
    margin's `_verification_points`, and x on their membership grid, whose
    tail is x at the verification nodes.
    """
    basis, rule = instance.basis, instance.rule
    outside = CertificateError(f"the density leaves the band [{lower}, {upper}] somewhere on "
                               f"{rule.interval}", hypothesis="admissible band")
    if one_sided:
        _check_band(instance.entropy, lower, upper)
    elif not within_bounds(instance.entropy, x, lower, upper, rule):
        raise outside
    if candidate_interval is None:
        margin = find_margin_interval(
            x, lower, upper, rule.interval, breakpoints=rule.breakpoints,
            min_width=min_width, nodes=rule.nodes, one_sided=one_sided,
        )
    else:
        margin = _confirmed_margin(x, candidate_interval, rule.nodes)
    points = _verification_points(instance, margin)
    grid = points[2]
    x_grid = np.asarray(x(grid), dtype=float)
    if not _in_band(x_grid, *((-np.inf, np.inf) if one_sided else (lower, upper))):
        raise outside   # P1's grid: within_bounds samples other points
    checked = x_grid[(grid >= margin.lo) & (grid <= margin.hi)]
    margin = replace(margin, val_lo=float(checked.min(initial=margin.val_lo)),
                     val_hi=float(checked.max(initial=margin.val_hi)))
    directions = build_direction_functions(basis, rule, margin, np.ones(basis.n))
    if not (margin.val_lo > lower and (one_sided or margin.val_hi < upper)):
        raise CertificateError(
            f"density range [{margin.val_lo}, {margin.val_hi}] on the margin interval "
            f"[{margin.lo}, {margin.hi}] is not strictly "
            + (f"above {lower}" if one_sided else f"inside ({lower}, {upper})"),
            hypothesis="margin interval",
        )
    on_margin = np.concatenate([np.linspace(margin.lo, margin.hi, MARGIN_SCAN_SAMPLES),
                                directions.sub_nodes])
    return margin, directions, design_matrix(basis, on_margin.astype(_LD)), points, x_grid


def build_core_certificate(instance: ProblemInstance, x, lower: float, upper: float,
                           candidate_interval=None,
                           min_width: Optional[float] = None) -> CoreCertificate:
    """Assemble the core certificate for the density x and band [lower, upper].

    Fails with a :class:`CertificateError` naming the hypothesis that does
    not hold: band membership, existence of a margin interval, or linear
    independence on it (see `_margin_prelude`).  An explicit
    `candidate_interval` replaces the scan; independence there is examined
    before its value range.
    """
    margin, directions, design, points, _ = _margin_prelude(instance, x, lower, upper,
                                                            candidate_interval, min_width)
    sup_unit = np.max(np.abs(_combine(directions.coeffs, design)), axis=1)
    sup_unit = sup_unit * (1.0 + 1e-9)  # strict upper bound on the sampled sup
    delta = float(np.max(sup_unit))
    clearance = min(margin.val_lo - lower, upper - margin.val_hi)
    return CoreCertificate(
        margin=margin,
        directions=directions,
        sup_unit=sup_unit,
        delta=delta,
        lower=float(lower),
        upper=float(upper),
        clearance=float(clearance),
        t_unit=SAFETY_FACTOR * float(clearance) / (instance.n * delta),
        points=points,
    )


def _verification_points(instance: ProblemInstance, margin: MarginInterval):
    """The verification rule, its float64 design, and the membership grid:
    MEMBERSHIP_SAMPLES + 2 uniform samples, then the rule's nodes.

    The verification rule is the instance rule refined with the margin ends
    as breakpoints: perturbations are supported exactly on the margin
    interval, so their moments are only integrated accurately when the panel
    edges include its endpoints.
    """
    rule = instance.rule
    lo, hi = rule.interval
    bps = set(rule.breakpoints)
    for z in (margin.lo, margin.hi):
        if lo < z < hi and all(abs(z - b) > 1e-12 for b in bps):
            bps.add(z)
    ver_rule = build_rule((lo, hi), tuple(sorted(bps)), rule.nodes_per_panel,
                          rule.panels_per_segment)
    grid = np.concatenate([np.linspace(lo, hi, MEMBERSHIP_SAMPLES + 2), ver_rule.nodes])
    return ver_rule, design_matrix(instance.basis, ver_rule.nodes), grid


def verify_core_certificate(instance: ProblemInstance, x, cert: CoreCertificate,
                            trials: int = 100, seed: int = 0,
                            t_scale: float = 1.0) -> CertificateVerification:
    """Replay the core construction for seeded random unit directions.

    For each direction eta the perturbation y = t(eta) * sum_k eta_k y_k
    is checked for both conclusions: the perturbed density stays inside
    the band on a dense sample (P1), and its moments equal b + t*eta to
    within 1e-8 (P2), integrating over a rule refined with the margin
    endpoints.  `t_scale` deliberately over- or under-drives the step rule
    (useful as a negative control: beyond the certified bound, P1 must
    eventually fail on a tight margin).  x and, in long double, the y_k are
    evaluated once on the certificate's membership grid, where its build
    confirmed the margin, which ends with the verification nodes (powers as
    products, see the module note); each trial combines the y_k in float64
    as (t*eta) @ y, within about (n+2)*eps*clearance*t_scale of a
    long-double sum.  The directions are drawn in one call, the same stream
    as one draw of n per trial, so a seed gives the directions it gave one
    trial at a time.  Trials run in stacked blocks of TRIAL_BLOCK with the
    BLAS calls, so the bits, of one trial at a time.  `trials` and `seed`
    must be whole numbers.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
            raise ValidationError(f"{name} must be a whole number, got {name}={value}")
    if trials < 1:
        raise ValidationError(f"verification needs at least one trial, got trials={trials}")
    if seed < 0:
        raise ValidationError(f"the verification seed must be >= 0, got seed={seed}")
    if not 0.0 <= t_scale < np.inf:
        raise ValidationError(f"t_scale must be non-negative and finite, got {t_scale}")
    trials = int(trials)
    etas = np.random.default_rng(int(seed)).standard_normal((trials, instance.n))
    etas /= np.sqrt(etas[:, None, :] @ etas[:, :, None])[:, 0]  # np.linalg.norm's bits
    steps = (t_scale * cert.t_for(etas))[:, None] * etas
    targets = instance.target_moments + steps
    ver_rule, ver_design, grid = cert.points
    x_grid = np.asarray(x(grid), dtype=float)
    y_grid = cert.directions.evaluate_all(grid)     # the unit y_k: linear in eta
    nodes = slice(grid.size - ver_rule.nodes.size, None)  # the grid ends with the nodes
    x_ver, y_ver = x_grid[nodes], y_grid[:, nodes]
    # y is 0 off the margin; aligned C-order groups of 16 columns keep the full grid's gemv bits
    meets = (grid >= cert.margin.lo) & (grid <= cert.margin.hi)
    keep = np.repeat(np.logical_or.reduceat(meets, np.arange(0, grid.size, 16)), 16)[:grid.size]
    x_in, y_in = x_grid[keep], np.ascontiguousarray(y_grid[:, keep])
    x_lo, x_hi = x_grid[~keep].min(initial=np.inf), x_grid[~keep].max(initial=-np.inf)

    violations, residuals = np.empty(trials), np.empty(trials)
    for a in range(0, trials, TRIAL_BLOCK):
        block, rows = steps[a:a + TRIAL_BLOCK, None, :], slice(a, a + TRIAL_BLOCK)
        p = (block @ y_in)[:, 0]
        p += x_in
        # lower - p rounds monotonically in p, so this is max(lower - p) exactly
        low = cert.lower - p.min(axis=1, initial=x_lo)
        high = p.max(axis=1, initial=x_hi) - cert.upper
        worst = np.where(high > low, high, low)  # Python's max(low, high, 0.0), NaN and -0.0 too
        violations[rows] = np.where(worst < 0.0, 0.0, worst)
        z = (block @ y_ver)[:, 0]
        z += x_ver
        z *= ver_rule.weights
        residuals[rows] = np.abs((ver_design @ z[:, :, None])[:, :, 0] - targets[rows]).max(axis=1)

    return CertificateVerification(
        trials=trials,
        p1_passes=int(np.count_nonzero(violations <= P1_SLACK)),
        p2_passes=int(np.count_nonzero(residuals <= P2_TOL)),
        worst_p1_violation=float(violations.max()),
        worst_p2_residual=float(residuals.max()),
    )


@dataclass
class QriCertificate:
    """A witness with the same moments as the density and positive lower
    clearance, built by clipping and correcting on the margin interval.

    `eps` certifies y(s) >= lower + eps at every sample.  When the band's
    upper end is finite, `upper_clearance` records min(upper - y); it can
    be negative (see the module note on one-sidedness) and is informative
    only.
    """

    m: int
    y: Callable = field(repr=False)
    eps: float
    moment_match_residual: float
    margin: MarginInterval
    upper_clearance: float
    correction_sup: float


DEFAULT_M_MAX = 4000    # clip-level budget: the README config needs m = 44103


def _candidate_levels(x_ver, weights, ver_design, coeffs, margin_design,
                      lower: float, upper: float, delta: float, m_max: int):
    """The clip levels in [3, m_max], in order, that an affine prediction of
    the correction cannot reject, for the exact per-level path to decide.

    While the nodes a level clips up (side +1) or down (-1) stay the same,
    clip(x, m) - x = t*width*side + (edge - x) in t = 1/m, so the correction
    on the margin grid is v = t*vA + vB.  Its rows and defects differ from
    the per-level path's by at most about (2N+3)*eps*|V| @ (weights*(t*width
    + |edge| + |x|)) on the clipped nodes, carried on through |C| @ |M|;
    err = 2(N+2n+8)*eps*(that + |v| + delta/2) also covers the roundings
    after it.  A level with |v| - err >= delta/2 somewhere is rejected: the
    rest of the piece is one interval of t, widened to whole levels.
    """
    gamma = 2.0 * (x_ver.size + 2 * coeffs.shape[0] + 8) * np.finfo(float).eps
    width = upper - lower if np.isfinite(upper) else 1.0
    design = spread = None  # M in float64 and |C| @ |M|, for the first piece that clips

    def sides(k):
        return np.sign(np.clip(x_ver, lower + width / k, upper - width / k) - x_ver)

    m = 3
    while m <= m_max:
        side = sides(m)
        if not side.any():  # nothing is clipped at m or after it: v = 0
            yield from range(m, m_max + 1)
            return
        end, step = m, 1    # gallop and bisect to the piece's end: clipped sets only shrink
        while step:
            grow = end + step <= m_max and np.array_equal(sides(end + step), side)
            end, step = (end + step, 2 * step) if grow else (end, step // 2)
        if spread is None:
            design = margin_design.astype(float)
            spread = np.abs(coeffs).astype(float) @ np.abs(design)
        edge = np.where(side > 0, lower, np.where(side < 0, upper, 0.0))
        clipped = weights * np.abs(side)
        rows = clipped * np.array([width * side, edge - x_ver])
        sizes = clipped * np.array([np.full(side.shape, width), np.abs(edge) + np.abs(x_ver)])
        v = ((rows @ ver_design.T).astype(_LD) @ coeffs).astype(float) @ design
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


def build_qri_certificate(instance: ProblemInstance, x, lower: float, upper: float,
                          m_max: int = DEFAULT_M_MAX,
                          min_width: Optional[float] = None) -> QriCertificate:
    """Run the clip-and-correct construction until a witness is accepted.

    For m = 3, 4, ... the density is clipped into the band at depth 1/m
    (below only when the band is unbounded above), the moment defect of
    the clipped density is computed, and a correction v carrying exactly
    that defect is built on the margin interval.  The first m whose
    correction satisfies sup |v| < delta/2 (delta being the certified
    lower clearance of the density on the margin interval) and whose
    witness y = x_m - v keeps a positive lower clearance is returned.
    Only the levels `_candidate_levels` hands on are evaluated; every other
    has sup |v| >= delta/2, so the accepted m, the witness and the failure
    report are those of a scan that evaluates every level.

    Raises a :class:`CertificateError` describing the decay of the moment
    defect when the budget m_max is exhausted.
    """
    if int(m_max) < 3:
        raise ValidationError(f"the clip-level scan starts at m=3, got m_max={m_max}")
    margin, unit_directions, margin_design, points, x_full = _margin_prelude(
        instance, x, lower, upper, min_width=min_width, one_sided=True)
    delta = margin.val_lo - lower
    ver_rule, ver_design, full_grid = points
    nodes = slice(full_grid.size - ver_rule.nodes.size, None)  # the grid ends with the nodes
    x_ver = x_full[nodes]
    on_full = unit_directions.evaluator(full_grid)  # built once for the whole scan
    lost = []       # levels whose witness lost its lower clearance
    width = upper - lower if np.isfinite(upper) else 1.0

    def clip(values, m):
        return np.clip(values, lower + width / m, upper - width / m)

    def level(m):
        """Moment defect of the level-m clip and its correction's coefficients."""
        defect = ver_design @ (ver_rule.weights * (clip(x_ver, m) - x_ver))
        return defect, np.asarray(defect, dtype=_LD) @ unit_directions.coeffs

    for m in _candidate_levels(x_ver, ver_rule.weights, ver_design, unit_directions.coeffs,
                               margin_design, lower, upper, delta, int(m_max)):
        coeffs = level(m)[1]
        sup_v = float(np.max(np.abs(_combine(coeffs, margin_design))))
        if sup_v >= delta / 2.0:
            continue
        y_full = clip(x_full, m) - on_full(coeffs)
        eps = float(np.min(y_full - lower))
        if eps <= 0.0:
            lost.append(m)
            continue
        upper_clearance = float(np.min(upper - y_full))     # inf when unbounded above

        def y(s):
            return clip(np.asarray(x(s), dtype=float), m) - unit_directions.evaluator(s)(coeffs)

        residual = float(np.max(np.abs(
            ver_design @ (ver_rule.weights * y_full[nodes]) - instance.target_moments)))
        return QriCertificate(m=m, y=y, eps=eps, moment_match_residual=residual, margin=margin,
                              upper_clearance=upper_clearance, correction_sup=sup_v)

    # every level failed: report the last six of m = 3, the multiples of 25 and the lost ones
    reported = sorted({3, *range(int(m_max) // 25 * 25, 0, -25)[:6], *lost})[-6:]
    decay = "; ".join(f"m={m}: |defect|={np.max(np.abs(d)):.3e}, "
                      f"sup|v|={np.max(np.abs(_combine(c, margin_design))):.3e}"
                      for m, (d, c) in zip(reported, map(level, reported)))
    raise CertificateError(
        f"no acceptable witness up to m={m_max} (need sup|v| < {delta / 2.0:.3e} "
        f"with positive lower clearance); defect decay: {decay}",
        hypothesis="witness acceptance",
    )
