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
band (P1) and its moments move exactly to b + t*eta (P2).  P2 is linear in
eta, so the n x n matrix <y_k, a_j> and the density's own moment defect
decide it for every direction at once; each is also checked at unit size,
failing by name as "direction functions" or "target moments".

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

All membership checks are sample-based, so a certificate is strong numerical
evidence, not an almost-everywhere proof; solver output labels it as such.
x is sampled on lattices of one size, MEMBERSHIP_SAMPLES: the scan's, per
segment, which set a scanned margin's range, and the membership grid
(`_membership_grid`), where the band is checked and that range widened.

Numerical note: every margin integral (independence, the y_k, core
verification, the qri scan) is taken on one rule, the instance rule refined
at the margin ends, which the prelude builds once.  The y_k are the dual
basis of a_1..a_n on the margin, for the unit direction: over functions phi_j
spanning the a_k their coefficients are M^-1, M_ji = <phi_j, a_i> on that
rule's margin nodes, in float64.  A direction eta reaches them through
`CoreCertificate.delta_for`/`t_for`, or as the expansions
`directions(s, eta[:, None] * directions.coeffs)`.  Power form is what makes
the margin Gram matrix Hilbert-like (about 1e10 for six monomials on half the
unit interval), so phi is the Legendre polynomials on the margin where they
reproduce the a_k (monomials, and piecewise_flat on a margin that does not
cross its split), and otherwise the a_k orthonormalized by a QR factorization,
whose M is conditioned like the weighted a_k, not like their Gram matrix.
The y_k carry the two designs M takes, each evaluated once: the basis at the
margin rule's nodes (`basis_design`), for every margin integral, and the
phi_j on the margin grid (`margin_design`), for core's sup bound and
<y_k, a_j> and the qri scan's sup |v|.  Elsewhere the y_k, or any expansion over the phi_j, are
evaluated by calling the `DirectionFunctions`: on the membership grid, for
core's P1 and the qri witness.  P1 runs in stacked blocks: a stacked numpy
call makes each trial's BLAS call, so each keeps its bits.  The qri scan
solves for the clip levels it must evaluate instead of visiting each (see
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
from .moments import (DEFAULT_INDEPENDENCE_TOL, MomentBasis, ProblemInstance,
                      linearly_independent_on)
from .quadrature import QuadratureRule, nodes_in, refine_rule, uniform_grid

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

MEMBERSHIP_SAMPLES = 2001       # per scan segment and margin grid; + 2 on the membership grid
SAFETY_FACTOR = 0.99            # strictness slack in the step rule
P2_TOL = 1e-8
P1_SLACK = 1e-12
TRIAL_BLOCK = 8                 # verification trials per stacked call: bounds the temporaries


@dataclass(frozen=True)
class MarginInterval:
    """A subinterval where the density keeps clear of its value bounds.

    `val_lo`/`val_hi` are the observed minimum and maximum of the density
    on [lo, hi] over the points where certificates are checked: the
    membership grid and the margin rule's nodes, and, for a scanned margin,
    the scan samples and instance-rule nodes the scan evaluated there.
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


def _membership_grid(rule: QuadratureRule) -> np.ndarray:
    """MEMBERSHIP_SAMPLES + 2 uniform samples of the rule's interval, then its nodes."""
    return np.concatenate([uniform_grid(*rule.interval, MEMBERSHIP_SAMPLES + 2), rule.nodes])


def within_bounds(entropy: EntropySpec, x, lower: float, upper: float,
                  rule: QuadratureRule) -> bool:
    """Check x(s) finite and in [lower, upper] on the membership grid of
    `rule`, the grid P1 checks once the margin ends join the rule; a band
    outside the entropy domain raises ValidationError.
    """
    _check_band(entropy, lower, upper)
    return _in_band(np.asarray(x(_membership_grid(rule)), dtype=float), lower, upper)


def _longest_run(mask: np.ndarray):
    """(start, stop) indices of the longest run of True, or None."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    if edges.size == 0:
        return None
    starts, stops = edges[::2], edges[1::2] - 1
    best = int(np.argmax(stops - starts))
    return int(starts[best]), int(stops[best])


def find_margin_interval(x, lower: float, upper: float, interval,
                         breakpoints=(), min_width: Optional[float] = None,
                         nodes=None, one_sided: bool = False) -> MarginInterval:
    """Locate the widest interval on which x stays clear of its bounds.

    Scans each segment between breakpoints on MEMBERSHIP_SAMPLES interior
    samples, trying margins eps from a geometric grid (largest first) and
    returning the widest interval of width at least `min_width` (default: 1%
    of the interval) on which x(s) stays in [lower + eps, upper - eps].  With
    `one_sided=True` only the lower clearance constrains the scan, which
    is what the quasi-relative-interior construction needs: its conclusion
    certifies clearance above the lower bound only, so a density pinned to
    the upper bound (the pulse with band (0, 1)) must still admit a
    witness interval.

    x is called once, on the scan samples and `nodes` (quadrature nodes, if
    given); the value range is read from those in the interval found.
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

    edges = np.array([lo, *sorted(b for b in breakpoints if lo < b < hi), hi])
    grids = uniform_grid(edges[:-1, None], edges[1:, None], MEMBERSHIP_SAMPLES + 2)[:, 1:-1]
    spacing = float(np.max(grids[:, 1] - grids[:, 0]))   # interior samples only, one row each
    nodes = np.empty(0) if nodes is None else np.asarray(nodes, dtype=float)
    values = np.asarray(x(np.concatenate([grids.ravel(), nodes])), dtype=float)
    node_values, values = values[grids.size:], values[:grids.size].reshape(grids.shape)

    for eps in eps_grid:
        if lower + eps == lower or (np.isfinite(upper) and upper - eps == upper):
            break  # eps rounds away against the bounds: nothing left to scan
        best = None
        for grid, row in zip(grids, values):
            ok = row >= lower + eps
            if np.isfinite(upper) and not one_sided:
                ok &= row <= upper - eps
            run = _longest_run(ok)
            if run is None:
                continue
            z1, z2 = float(grid[run[0]]), float(grid[run[1]])
            if best is None or (z2 - z1) > (best[1] - best[0]):
                best = (z1, z2, row[run[0]:run[1] + 1])
        # slack of 1.5 grid steps: a run clipped to interior samples measures
        # up to one spacing shorter than the interval it certifies, and the
        # boundary case ties to the last ulp
        if best is not None and best[1] - best[0] >= min_width - 1.5 * spacing:
            z1, z2, run_values = best
            seen = np.concatenate([run_values, node_values[(nodes >= z1) & (nodes <= z2)]])
            return MarginInterval(z1, z2, float(seen.min()), float(seen.max()))

    raise NoMarginIntervalError(
        f"no margin interval of width >= {min_width} found on [{lo}, {hi}]: "
        f"the density never clears its bounds ({lower}, {upper}) at this resolution"
    )


def _phi(margin: MarginInterval, basis: MomentBasis, factor, s) -> np.ndarray:
    """The phi_j of the module note at the points s, shape (n, len(s)): Legendre
    polynomials on the margin (`legvander(u, n - 1).T`, by its recurrence, bit
    for bit, in C order) if `factor` is None, else R^-T a for R = `factor`."""
    s = np.asarray(s, dtype=float)
    if factor is not None:
        return np.linalg.solve(factor.T, basis(s))
    u = (2.0 * s - (margin.lo + margin.hi)) / (margin.hi - margin.lo) + 0.0  # no -0.0
    rows = np.empty((basis.n,) + u.shape)
    rows[0], rows[1:2] = u * 0 + 1, u   # row 1 only when n > 1
    for i in range(2, basis.n):
        rows[i] = (rows[i - 1] * u * (2 * i - 1) - rows[i - 2] * (i - 1)) / i
    return rows


@dataclass(frozen=True)
class DirectionFunctions:
    """Functions y_1..y_n in the span of the moment family on a margin
    interval, with <y_k, a_j> = 1 when j = k and 0 otherwise: the unit
    direction's, which a direction eta scales row by row (module note).

    Row k of `coeffs` expands y_k over the phi_j of `_phi`; the y_k are zero
    outside [margin.lo, margin.hi], and calling the instance evaluates them.
    `rule` is the margin rule, whose nodes in the margin carry every margin
    integral, from the a_k at its nodes (`basis_design`).
    """

    margin: MarginInterval
    basis: MomentBasis
    coeffs: np.ndarray = field(repr=False)              # (n, n)
    factor: Optional[np.ndarray] = field(repr=False)    # (n, n) R, or None for Legendre
    rule: QuadratureRule = field(repr=False)    # refined at the margin ends
    basis_design: np.ndarray = field(repr=False)    # a_k at the nodes of `rule`
    margin_design: np.ndarray = field(repr=False)   # phi_j on the margin grid, nodes last

    def __call__(self, s, coeffs=None) -> np.ndarray:
        """The y_k at the points s, shape (n, len(s)), or the expansions
        `coeffs` over the phi_j, shape (n,) or (k, n): one product with the
        phi_j at the points inside the margin, zero outside."""
        s = np.asarray(s, dtype=float)
        coeffs = self.coeffs if coeffs is None else coeffs
        inside = (s >= self.margin.lo) & (s <= self.margin.hi)
        values = np.zeros(coeffs.shape[:-1] + s.shape)
        values[..., inside] = coeffs @ _phi(self.margin, self.basis, self.factor, s[inside])
        return values


LEGENDRE_FIT_TOL = 1e3 * np.finfo(float).eps   # relative to the 2-norm of a_k at the nodes


def build_direction_functions(basis: MomentBasis, rule: QuadratureRule,
                              margin: MarginInterval) -> DirectionFunctions:
    """Construct the unit-direction y_k on the margin interval.

    The coefficients are M^-1 (see the module note); a direction eta scales
    row k by eta_k, through `CoreCertificate.delta_for`/`t_for` or as
    `directions(s, eta[:, None] * directions.coeffs)`.  Every integral, the
    independence check included, is taken on the margin nodes of `rule`
    refined at the margin ends (`refine_rule`), from the basis at that rule's
    nodes, evaluated here once and kept as `basis_design`.  phi is Legendre
    (see `_phi`) when its least-squares fit reproduces the a_k at those nodes
    to LEGENDRE_FIT_TOL, and the a_k orthonormalized on them otherwise.
    """
    rule = refine_rule(rule, margin.lo, margin.hi)   # the prelude's rule comes back as it is
    design = basis(rule.nodes)
    inside = (rule.nodes >= margin.lo) & (rule.nodes <= margin.hi)
    nodes, weights = rule.nodes[inside], rule.weights[inside]
    values = design.compress(inside, axis=1)   # C order, as the Gram's and M's bits need
    report = linearly_independent_on(basis, rule, (margin.lo, margin.hi),
                                     DEFAULT_INDEPENDENCE_TOL, values)
    if not report.independent:
        raise DependentBasisError(
            f"moment functions are numerically dependent on "
            f"[{margin.lo}, {margin.hi}] (smallest Gram eigenvalue "
            f"{report.min_eigenvalue:.3e} <= threshold {report.threshold:.3e}); "
            f"reduce the family or choose a different interval"
        )
    grid = np.concatenate([uniform_grid(margin.lo, margin.hi, MEMBERSHIP_SAMPLES), nodes])
    on_grid, factor = _phi(margin, basis, None, grid), None  # Legendre, kept if it fits the a_k
    misfit = np.sqrt(np.linalg.lstsq(on_grid[:, MEMBERSHIP_SAMPLES:].T, values.T,
                                     rcond=None)[1])   # none unless N > n
    if (misfit.size < basis.n
            or np.any(misfit > LEGENDRE_FIT_TOL * np.linalg.norm(values, axis=1))):
        factor = np.linalg.qr((values * np.sqrt(weights)).T, mode="r")
        on_grid = _phi(margin, basis, factor, grid)
    phi = on_grid[:, MEMBERSHIP_SAMPLES:].copy()   # C order, as M's bits need
    coeffs = np.linalg.inv((phi * weights) @ values.T)
    return DirectionFunctions(margin, basis, coeffs, factor, rule, design, on_grid)


def direction_inner_products(directions: DirectionFunctions) -> np.ndarray:
    """The matrix <y_k, a_j>, integrated on the margin nodes of its rule."""
    nodes, weights = nodes_in(directions.rule, directions.margin.lo, directions.margin.hi)
    return (directions(nodes) * weights) @ directions.basis(nodes).T


@dataclass(frozen=True)
class CoreCertificate:
    """Constructive witness that the target moments are a core point.

    Built once for the all-ones direction; the y_k scale linearly in their
    own component of eta, so `delta_for`/`t_for` recover the bound and
    admissible step for any direction, and `t_unit` follows from `clearance`
    as they do.  `grid` is the membership grid, ending with the nodes of
    `directions.rule`, where the build confirmed the margin and verification
    replays.  `inner_products` is <y_k, a_j> (row k) on that rule's margin
    nodes, and `y_kept` the y_k on the grid columns `kept`, the aligned
    groups of 16 that meet the margin (the y_k are zero on the others).
    `margin` and `delta` are read from `directions` and `sup_unit`, so each
    value is stored once.
    """

    directions: DirectionFunctions
    sup_unit: np.ndarray            # per-k sup |y_k| for the unit direction
    lower: float
    upper: float
    clearance: float
    grid: np.ndarray = field(repr=False)
    inner_products: np.ndarray = field(repr=False)     # (n, n)
    kept: np.ndarray = field(repr=False)               # bool, one per grid point
    y_kept: np.ndarray = field(repr=False)             # (n, kept columns)

    @property
    def margin(self) -> MarginInterval:
        return self.directions.margin

    @property
    def delta(self) -> float:
        """The sup bound of the unit direction, the largest of `sup_unit`."""
        return float(np.max(self.sup_unit))

    @property
    def t_unit(self) -> float:
        """The step for a direction at the sup bound (delta_for == delta)."""
        return SAFETY_FACTOR * self.clearance / (len(self.sup_unit) * self.delta)

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
    """Replay report for randomized directions; see verify_core_certificate.

    The two parts of every P2 residual are reported at unit size:
    `orthogonality`, the largest over j of the 2-norm over k of
    <y_k, a_j> - delta_kj, and `target`, |moments of x - b| on the margin rule.
    """

    trials: int
    p1_passes: int
    p2_passes: int
    worst_p1_violation: float
    worst_p2_residual: float
    orthogonality: float
    target: float

    @property
    def failures(self) -> tuple:
        """The certificate-level checks above P2_TOL (or NaN), by name."""
        return tuple(name for name, value in (("direction functions", self.orthogonality),
                                              ("target moments", self.target))
                     if not value <= P2_TOL)

    @property
    def all_passed(self) -> bool:
        return (self.p1_passes == self.trials and self.p2_passes == self.trials
                and not self.failures)


def _margin_prelude(instance: ProblemInstance, x, lower: float, upper: float,
                    candidate_interval=None, min_width: Optional[float] = None,
                    one_sided: bool = False):
    """The hypothesis both certificates start from, checked in order.

    1. The band lies in the entropy domain (ValidationError otherwise); the
       two-sided core construction also needs the density finite and inside
       it on the membership grid (`within_bounds`), and again on that grid
       once step 2 has refined its rule; the one-sided qri needs it finite there.
    2. A margin interval, the scan's or `candidate_interval` (whose range
       starts empty), its range widened by the density on the membership grid
       inside it, and the margin rule: the instance rule refined at its ends.
    3. The unit-direction y_k on it, the only independence check.
    4. Its range strictly inside the band (above `lower` when `one_sided`).

    Returns the y_k, whose `margin` is the margin of step 2 and whose designs
    cover the margin rule's nodes and the margin grid, the membership grid of
    the margin rule (`_membership_grid`), and x on it.
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
        margin = MarginInterval(*map(float, candidate_interval), np.inf, -np.inf)
    rule = refine_rule(rule, margin.lo, margin.hi)
    grid = _membership_grid(rule)
    x_grid = np.asarray(x(grid), dtype=float)
    if not _in_band(x_grid, *((-np.inf, np.inf) if one_sided else (lower, upper))):
        raise outside
    checked = x_grid[(grid >= margin.lo) & (grid <= margin.hi)]
    margin = replace(margin, val_lo=float(checked.min(initial=margin.val_lo)),
                     val_hi=float(checked.max(initial=margin.val_hi)))
    directions = build_direction_functions(basis, rule, margin)
    if not (margin.val_lo > lower and (one_sided or margin.val_hi < upper)):
        raise CertificateError(
            f"density range [{margin.val_lo}, {margin.val_hi}] on the margin interval "
            f"[{margin.lo}, {margin.hi}] is not strictly "
            + (f"above {lower}" if one_sided else f"inside ({lower}, {upper})"),
            hypothesis="margin interval",
        )
    return directions, grid, x_grid


def _margin_sup(coeffs, margin_design):
    """sup |v| on the margin grid of each expansion v in `coeffs`."""
    return np.max(np.abs(coeffs @ margin_design), axis=-1)


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
    directions, grid, _ = _margin_prelude(instance, x, lower, upper, candidate_interval,
                                          min_width)
    margin, rule = directions.margin, directions.rule
    y_margin = directions.coeffs @ directions.margin_design   # the unit y_k, nodes last
    sup_unit = np.max(np.abs(y_margin), axis=-1) * (1.0 + 1e-9)  # above the sampled sup
    clearance = min(margin.val_lo - lower, upper - margin.val_hi)
    on_nodes = (rule.nodes >= margin.lo) & (rule.nodes <= margin.hi)
    inner_products = ((y_margin[:, MEMBERSHIP_SAMPLES:] * rule.weights[on_nodes])
                      @ directions.basis_design.compress(on_nodes, axis=1).T)  # the audit's bits
    # y is 0 off the margin; aligned C-order groups of 16 columns keep the full grid's gemv bits
    meets = (grid >= margin.lo) & (grid <= margin.hi)
    kept = np.repeat(np.logical_or.reduceat(meets, np.arange(0, grid.size, 16)), 16)[:grid.size]
    return CoreCertificate(
        directions=directions,
        sup_unit=sup_unit,
        lower=float(lower),
        upper=float(upper),
        clearance=float(clearance),
        grid=grid,
        inner_products=inner_products,
        kept=kept,
        y_kept=directions(grid[kept]),
    )


def _whole_number(name: str, value) -> int:
    """`value` as an int; a ValidationError unless it is a whole real number."""
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real)
                                               and float(value).is_integer()):
        return int(value)
    raise ValidationError(f"{name} must be a whole number, got {name}={value!r}")


def verify_core_certificate(instance: ProblemInstance, x, cert: CoreCertificate,
                            trials: int = 100, seed: int = 0) -> CertificateVerification:
    """Replay the core construction of `cert` for seeded random unit directions.

    For each direction eta the step s = t(eta) * eta is checked for both
    conclusions: x + sum_k s_k y_k stays inside the band on the membership
    grid (P1), and its moments equal b + s to within P2_TOL (P2).  The y_k
    are the unit direction's, and eta reaches them through `cert.t_for`.  A
    certificate over-driving its step rule is one with a larger clearance,
    `dataclasses.replace(cert, clearance=k * cert.clearance)` (a negative
    control: beyond the certified bound P1 must eventually fail on a tight
    margin).

    P2 is linear in s: on the margin rule those moments are b + e + D^T s,
    with e the moments of x less b and D = `cert.inner_products`, so one
    product gives every trial's residual |e + (D - I)^T s|, and each part is
    also checked at unit size (`CertificateVerification.failures`).  x is
    sampled once, on the certificate's membership grid, which ends with the
    margin rule's nodes.  P1 combines the y_k the build evaluated where the
    grid meets the margin as s @ y, within about (n+2)*eps*clearance of the
    exact sum, in stacked blocks of TRIAL_BLOCK trials that keep the
    BLAS calls, so the bits, of one trial at a time.  The directions are
    drawn in one call, the stream of one draw of n per trial.  `trials` and
    `seed` must be whole numbers.
    """
    trials, seed = _whole_number("trials", trials), _whole_number("seed", seed)
    if trials < 1:
        raise ValidationError(f"verification needs at least one trial, got trials={trials}")
    if seed < 0:
        raise ValidationError(f"the verification seed must be >= 0, got seed={seed}")
    etas = np.random.default_rng(seed).standard_normal((trials, instance.n))
    etas /= np.sqrt(etas[:, None, :] @ etas[:, :, None])[:, 0]  # np.linalg.norm's bits
    steps = cert.t_for(etas)[:, None] * etas
    weights, grid = cert.directions.rule.weights, cert.grid
    x_grid = np.asarray(x(grid), dtype=float)
    target = (cert.directions.basis_design @ (weights * x_grid[grid.size - weights.size:])
              - instance.target_moments)
    defect = cert.inner_products - np.eye(instance.n)
    residuals = np.abs(target + steps @ defect).max(axis=1)
    x_in, x_out = x_grid[cert.kept], x_grid[~cert.kept]
    x_lo, x_hi = x_out.min(initial=np.inf), x_out.max(initial=-np.inf)

    violations = np.empty(trials)
    for a in range(0, trials, TRIAL_BLOCK):
        p = (steps[a:a + TRIAL_BLOCK, None, :] @ cert.y_kept)[:, 0]
        p += x_in
        # lower - p rounds monotonically in p, so this is max(lower - p) exactly
        low = cert.lower - p.min(axis=1, initial=x_lo)
        high = p.max(axis=1, initial=x_hi) - cert.upper
        worst = np.where(high > low, high, low)  # Python's max(low, high, 0.0), NaN and -0.0 too
        violations[a:a + TRIAL_BLOCK] = np.where(worst < 0.0, 0.0, worst)

    return CertificateVerification(
        trials=trials,
        p1_passes=int(np.count_nonzero(violations <= P1_SLACK)),
        p2_passes=int(np.count_nonzero(residuals <= P2_TOL)),
        worst_p1_violation=float(violations.max()),
        worst_p2_residual=float(residuals.max()),
        orthogonality=float(np.linalg.norm(defect, axis=0).max()),
        target=float(np.abs(target).max()),
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


DEFAULT_M_MAX = 50000   # clip-level budget: the README config needs m = 44103


def _candidate_levels(x_ver, weights, ver_design, coeffs, margin_design,
                      lower: float, upper: float, delta: float, m_max: int):
    """The clip levels in [3, m_max], in order, that an affine prediction of
    the correction cannot reject, for the exact per-level path to decide.

    While the nodes a level clips up (side +1) or down (-1) stay the same,
    clip(x, m) - x = t*width*side + (edge - x) in t = 1/m, so the correction
    on the margin grid is v = t*vA + vB.  The per-level defect rounds N+4
    times (level, difference, weight, sum), the predicted rows N+2, and each
    path 2n times more (by C, by M), so in float64 the two differ by at most
    (2N+4n+6)*eps*(|V| @ (weights*(t*width + |edge| + |x|)) on the clipped
    nodes) @ |C| @ |M|; err = 2(N+2n+8)*eps*(that + |v| + delta/2) covers
    the roundings after it too.  A level with |v| - err >= delta/2 somewhere
    is rejected: the rest of the piece is one interval of t, widened to
    whole levels.

    Clipped sets only shrink as m grows: a piece ends before its first clipped
    node leaves, near width / gap (gap = x - lower, or upper - x from above).
    The clipped sets there and one level on confirm that end; where rounding
    puts it a level off, a gallop and bisection finds it, at the cost of probes.
    """
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
        edge = np.where(side > 0, lower, np.where(side < 0, upper, 0.0))
        end, step = m, 0    # one level long, unless the next level clips the same nodes
        if m < m_max and np.array_equal(sides(m + 1), side):
            with np.errstate(over="ignore", invalid="ignore"):
                gap = side * (x_ver - edge)   # a clipped node leaves at about width / gap
                guess = int(min(m_max, np.ceil((width / gap[gap > 0]).min(initial=np.inf)) - 1))
            end, step = (guess if guess > m + 1 and np.array_equal(sides(guess), side)
                         else m + 1), 1
        while step:  # confirm the end, or gallop and bisect on: clipped sets only shrink
            grow = end + step <= m_max and np.array_equal(sides(end + step), side)
            end, step = (end + step, 2 * step) if grow else (end, step // 2)
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
    m_max = _whole_number("m_max", m_max)
    if m_max < 3:
        raise ValidationError(f"the clip-level scan starts at m=3, got m_max={m_max}")
    directions, full_grid, x_full = _margin_prelude(instance, x, lower, upper,
                                                    min_width=min_width, one_sided=True)
    margin, ver_rule, ver_design = directions.margin, directions.rule, directions.basis_design
    delta, margin_design = margin.val_lo - lower, directions.margin_design
    nodes = slice(full_grid.size - ver_rule.nodes.size, None)  # the grid ends with the nodes
    x_ver = x_full[nodes]
    lost = []       # levels whose witness lost its lower clearance
    width = upper - lower if np.isfinite(upper) else 1.0

    def clip(values, m):
        return np.clip(values, lower + width / m, upper - width / m)

    def level(m):
        """Moment defect of the level-m clip and its correction's coefficients."""
        defect = ver_design @ (ver_rule.weights * (clip(x_ver, m) - x_ver))
        return defect, defect @ directions.coeffs

    for m in _candidate_levels(x_ver, ver_rule.weights, ver_design, directions.coeffs,
                               margin_design, lower, upper, delta, m_max):
        coeffs = level(m)[1]
        sup_v = float(_margin_sup(coeffs, margin_design))
        if sup_v >= delta / 2.0:
            continue
        y_full = clip(x_full, m) - directions(full_grid, coeffs)
        eps = float(np.min(y_full - lower))
        if eps <= 0.0:
            lost.append(m)
            continue
        upper_clearance = float(np.min(upper - y_full))     # inf when unbounded above

        def y(s):
            return clip(np.asarray(x(s), dtype=float), m) - directions(s, coeffs)

        residual = float(np.max(np.abs(
            ver_design @ (ver_rule.weights * y_full[nodes]) - instance.target_moments)))
        return QriCertificate(m=m, y=y, eps=eps, moment_match_residual=residual, margin=margin,
                              upper_clearance=upper_clearance, correction_sup=sup_v)

    # every level failed: report the last six of m = 3, the multiples of 25 and the lost ones
    reported = sorted({3, *range(m_max // 25 * 25, 0, -25)[:6], *lost})[-6:]
    decay = "; ".join(f"m={m}: |defect|={np.max(np.abs(d)):.3e}, "
                      f"sup|v|={_margin_sup(c, margin_design):.3e}"
                      for m, (d, c) in zip(reported, map(level, reported)))
    raise CertificateError(
        f"no acceptable witness up to m={m_max} (need sup|v| < {delta / 2.0:.3e} "
        f"with positive lower clearance); defect decay: {decay}",
        hypothesis="witness acceptance",
    )
