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
their sup, formed from them, and the step rule t(eta) that keeps the
perturbed density inside the band.  Verification checks both conclusions,
each decided once for every direction the step rule admits: the perturbed
density stays in the band (P1), and its moments move exactly to b + t*eta
(P2).  P2 is linear in eta, so the n x n matrix <y_k, a_j> and the
density's own moment defect bound it over every admissible step; each is
also checked at unit size, failing by name as "direction functions" or
"target moments"; the radius around b that the certified steps reach net
of both must be positive ("radius").

Quasi-relative-interior certificate.  Clip the density into the open band
at level 1/m, correct the clipped moments back to b with a function v
supported on the margin interval, and accept the first m whose correction
is small against the margin (sup |v| < delta/2) while the witness
y = x_m - v stays strictly inside the band.  The resulting y has the
same moments as the density and a positive clearance eps, which is exactly
what the certificate asserts.  One band, one claim: both certificates certify
b for densities valued in [lower, upper], so delta and eps count the clearance
below a finite `upper` as core's clearance does, and a density pinned to
either end (the pulse with band [0, 1]) has no margin interval under either.
An end at infinity leaves nothing to clear, so on [lower, inf) the scan and
the witness are one-sided without a case of their own.

All membership checks are sample-based, so a certificate is strong numerical
evidence, not an almost-everywhere proof; solver output labels it as such.
x is sampled (`_sample`) on lattices of one size, MEMBERSHIP_SAMPLES: the
scan's, per segment, which only proposes the margin, and the membership grid
(`_membership_grid`), where the band is checked.  In the margin that grid is
the margin grid, MEMBERSHIP_SAMPLES samples of it and then the margin rule's
nodes in it: the only points there that a certificate reads, x's range included.

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
Legendre's own M decides whether it reproduces the a_k, and is then inverted.
The y_k carry the two designs M takes, each evaluated once: the basis at the
margin rule's nodes (`basis_design`), for every margin integral, and the
phi_j on the margin grid (`margin_design`), for every value of an expansion
over the phi_j that is read: core's sup bound, which a core certificate
forms from its y_k, the <y_k, a_j> core verification forms, and the qri
scan's sup |v| and witness.  Calling the `DirectionFunctions` evaluates
them at any other points (the qri witness as a function).  The y_k are zero
off the margin, so core's sup bound holds at every point P1 checks, and the
step rule keeps |s @ y| below 0.99 times the clearance there for every
direction: P1 checks x moved by one float64 bound on that sum, and
verification evaluates no y_k.  The qri scan solves for the clip levels it
must evaluate instead of visiting each (see `_candidate_levels`), and an
accepted witness must match the target moments to P2_TOL.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import CertificateError, ValidationError
from .moments import MomentBasis, ProblemInstance, linearly_independent_on
from .quadrature import QuadratureRule, _hold_read_only, _sample, refine_rule, uniform_grid

__all__ = [
    "MarginInterval",
    "DirectionFunctions",
    "CoreCertificate",
    "QriCertificate",
    "CertificateVerification",
    "find_margin_interval",
    "build_direction_functions",
    "build_core_certificate",
    "verify_core_certificate",
    "build_qri_certificate",
]

MEMBERSHIP_SAMPLES = 2001       # per scan segment and margin grid; + 2 on the membership grid
SAFETY_FACTOR = 0.99            # strictness slack in the step rule
P2_TOL = 1e-8
DEFAULT_TRIALS = 100            # core verification: the count its reports are sized by
DEFAULT_SEED = 0                # validated, and drives nothing
DEFAULT_M_MAX = 50000           # clip-level budget: the README config needs m = 44103


@dataclass(frozen=True)
class MarginInterval:
    """A subinterval where the density keeps clear of its value bounds.

    `val_lo`/`val_hi` are the density's minimum and maximum on [lo, hi]: on
    the scan samples, as the scan proposes them, and on the margin grid, where
    certificates are checked, once a certificate's prelude has read them there.
    """

    lo: float
    hi: float
    val_lo: float
    val_hi: float


def _band_width(lower: float, upper: float) -> float:
    """The band's scale: upper - lower, or 1 when `upper` is infinite."""
    return upper - lower if np.isfinite(upper) else 1.0


def _in_band(values, lower: float, upper: float) -> bool:
    """Every value finite and in [lower, upper]: +inf fails an unbounded band."""
    return bool(np.all(np.isfinite(values) & (values >= lower) & (values <= upper)))


def _membership_grid(rule: QuadratureRule, margin: Optional[MarginInterval] = None) -> np.ndarray:
    """MEMBERSHIP_SAMPLES + 2 uniform samples of the rule's interval, then its
    nodes.  Given a margin, its samples in [lo, hi] give way to the margin
    grid's MEMBERSHIP_SAMPLES, so the points in [lo, hi] are the margin grid."""
    grid = uniform_grid(*rule.interval, MEMBERSHIP_SAMPLES + 2)
    if margin is not None:
        grid = np.concatenate([grid[grid < margin.lo],
                               uniform_grid(margin.lo, margin.hi, MEMBERSHIP_SAMPLES),
                               grid[grid > margin.hi]])
    return np.concatenate([grid, rule.nodes])


def _longest_run(mask: np.ndarray):
    """(start, stop) indices of the longest run of True, or None."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    if edges.size == 0:
        return None
    starts, stops = edges[::2], edges[1::2] - 1
    best = int(np.argmax(stops - starts))
    return int(starts[best]), int(stops[best])


def find_margin_interval(x, lower: float, upper: float, rule: QuadratureRule,
                         min_width: Optional[float] = None) -> MarginInterval:
    """Locate the widest interval on which x stays clear of its bounds.

    Scans each segment of `rule` (its interval cut at its breakpoints) on
    MEMBERSHIP_SAMPLES interior samples, trying margins eps from a geometric
    grid (largest first) and returning the widest interval of width at least
    `min_width` (default: 1% of the interval; positive and finite) on which
    x(s) stays in [lower + eps, upper - eps], `lower` finite and below `upper`.

    x is called once, on the scan samples alone; their range in the interval
    found is a proposal, which a certificate's prelude replaces (`MarginInterval`).
    A band or `min_width` out of range is a ValidationError that names it.
    """
    if not (np.isfinite(lower) and lower < upper):   # nan too, as min_width below
        raise ValidationError(f"band [{lower}, {upper}] needs a finite lower end below the upper")
    lo, hi = rule.interval
    if min_width is None:
        min_width = (hi - lo) / 100.0
    if not 0.0 < min_width < np.inf:
        raise ValidationError(f"min_width must be positive and finite, got {min_width}")

    width = _band_width(lower, upper)
    eps_grid = [width / 2.0 ** k for k in range(int(np.isfinite(upper)), 60)]

    edges = np.array([lo, *rule.breakpoints, hi])
    grids = uniform_grid(edges[:-1, None], edges[1:, None], MEMBERSHIP_SAMPLES + 2)[:, 1:-1]
    spacing = float(np.max(grids[:, 1] - grids[:, 0]))   # interior samples only, one row each
    values = _sample(x, grids.ravel()).reshape(grids.shape)

    for eps in eps_grid:
        if lower + eps == lower or (np.isfinite(upper) and upper - eps == upper):
            break  # eps rounds away against the bounds: nothing left to scan
        best = None
        for grid, row in zip(grids, values):
            run = _longest_run((row >= lower + eps) & (row <= upper - eps))
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
            return MarginInterval(z1, z2, float(run_values.min()), float(run_values.max()))

    raise CertificateError(
        f"no margin interval of width >= {min_width} found on [{lo}, {hi}]: "
        f"the density never clears its bounds ({lower}, {upper}) at this resolution",
        hypothesis="margin interval",
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
    outside [margin.lo, margin.hi].  `rule` is the margin rule, whose nodes
    in the margin carry every margin integral, from the a_k at its nodes
    (`basis_design`).  The builders read the y_k on the margin grid, as
    `coeffs @ margin_design`; calling the instance evaluates them elsewhere.
    """

    margin: MarginInterval
    basis: MomentBasis
    coeffs: np.ndarray = field(repr=False)              # (n, n)
    factor: Optional[np.ndarray] = field(repr=False)    # (n, n) R, or None for Legendre
    rule: QuadratureRule = field(repr=False)    # refined at the margin ends
    basis_design: np.ndarray = field(repr=False)    # a_k at the nodes of `rule`
    margin_design: np.ndarray = field(repr=False)   # phi_j on the margin grid, nodes last

    def __post_init__(self):
        _hold_read_only(self, "coeffs", "factor", "basis_design", "margin_design")

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

    The coefficients are M^-1 (see the module note), whose row k a direction
    eta scales by eta_k.  Every integral, the independence check included, is
    taken on the margin nodes of `rule` refined at the margin ends
    (`refine_rule`), from the basis at that rule's nodes, evaluated here once
    and kept as `basis_design`.  phi is Legendre (see `_phi`) when the a_k at
    more than n such nodes match their projection (G^-1 M)^T phi, G the Gram
    matrix of the phi_j, to LEGENDRE_FIT_TOL, and the a_k orthonormalized on
    them otherwise; the M of the phi kept is inverted.
    """
    rule = refine_rule(rule, margin.lo, margin.hi)   # the prelude's rule comes back as it is
    design = basis(rule.nodes)
    inside = (rule.nodes >= margin.lo) & (rule.nodes <= margin.hi)
    weights = rule.weights[inside]
    values = design.compress(inside, axis=1)   # C order, as the Gram's and M's bits need
    report = linearly_independent_on(basis, rule, (margin.lo, margin.hi), values)
    if not report.independent:
        raise CertificateError(
            f"moment functions are numerically dependent on "
            f"[{margin.lo}, {margin.hi}] (smallest Gram eigenvalue "
            f"{report.min_eigenvalue:.3e} <= threshold {report.threshold:.3e}); "
            f"reduce the family or choose a different interval",
            hypothesis="linear independence",
        )
    grid = np.concatenate([uniform_grid(margin.lo, margin.hi, MEMBERSHIP_SAMPLES),
                           rule.nodes[inside]])   # the margin grid, nodes last
    on_grid, factor = _phi(margin, basis, None, grid), None  # Legendre, kept if it fits the a_k
    phi = on_grid[:, MEMBERSHIP_SAMPLES:].copy()   # C order, as M's bits need
    m = (phi * weights) @ values.T   # M_ji = <phi_j, a_i>
    misfit = (np.linalg.norm(values - np.linalg.solve((phi * weights) @ phi.T, m).T @ phi, axis=1)
              if weights.size > basis.n else np.inf)   # a_k less its projection on the phi_j
    if np.any(misfit > LEGENDRE_FIT_TOL * np.linalg.norm(values, axis=1)):
        factor = np.linalg.qr((values * np.sqrt(weights)).T, mode="r")
        on_grid = _phi(margin, basis, factor, grid)
        phi = on_grid[:, MEMBERSHIP_SAMPLES:].copy()
        m = (phi * weights) @ values.T
    coeffs = np.linalg.inv(m)
    return DirectionFunctions(margin, basis, coeffs, factor, rule, design, on_grid)


@dataclass(frozen=True)
class CoreCertificate:
    """Constructive witness that the target moments are a core point.

    Built once for the all-ones direction; the y_k scale linearly in their
    own component of eta, so `delta_for`/`t_for` recover the bound and
    admissible step for any direction, and `t_unit` follows from `clearance`
    as they do.  `grid` is the membership grid, ending with the nodes of
    `directions.rule`, where the build confirmed the margin and verification
    checks P1; its points in the margin are the margin grid.
    `sup_unit` is 1 + 1e-9 times the largest |y_k| on the margin grid,
    formed from `directions` when the certificate is made, never handed in;
    the y_k are zero on the other grid points, so it bounds them at every
    point P1 checks.  `margin`, `delta` and verification's <y_k, a_j> are
    read from `directions` too, so each value has one source.  The frozen
    certificate holds its arrays, and those of its `directions`, read-only.
    """

    directions: DirectionFunctions
    sup_unit: np.ndarray = field(init=False)   # per-k sup |y_k| for the unit direction
    lower: float
    upper: float
    clearance: float
    grid: np.ndarray = field(repr=False)

    def __post_init__(self):
        y = self.directions.coeffs @ self.directions.margin_design   # the y_k on the margin grid
        object.__setattr__(self, "sup_unit", np.abs(y).max(axis=1) * (1.0 + 1e-9))
        _hold_read_only(self, "sup_unit", "grid")

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

    def delta_for(self, eta) -> float:
        """Sup bound for the direction eta."""
        return float(np.max(np.abs(np.asarray(eta, dtype=float)) * self.sup_unit))

    def t_for(self, eta) -> float:
        """Step length keeping x + t * sum y_k strictly inside the band
        (0 for a zero direction)."""
        bound = self.delta_for(eta)
        return SAFETY_FACTOR * self.clearance / (len(self.sup_unit) * bound) if bound else 0.0


@dataclass(frozen=True)
class CertificateVerification:
    """Verification report; see verify_core_certificate.

    P1 and P2 each hold for every admissible direction or for none, so
    `p1_passes` and `p2_passes` are `trials` or 0, and `worst_p1_violation`
    and `worst_p2_residual` bound each step's excursion out of the band and
    miss of its moments.  The two parts of every P2 residual are reported
    at unit size: `orthogonality`, the largest over j of the 2-norm over k
    of <y_k, a_j> - delta_kj, and `target`, |moments of x - b| on the margin
    rule; `radius` is the sup-norm radius around b that the certified steps
    reach.
    """

    trials: int
    p1_passes: int
    p2_passes: int
    worst_p1_violation: float
    worst_p2_residual: float
    orthogonality: float
    target: float
    radius: float

    @property
    def failures(self) -> tuple:
        """The certificate-level checks that fail (NaN fails each), by name."""
        return tuple(name for name, ok in (("direction functions", self.orthogonality <= P2_TOL),
                                           ("target moments", self.target <= P2_TOL),
                                           ("radius", self.radius > 0.0))
                     if not ok)

    @property
    def all_passed(self) -> bool:
        return (self.p1_passes == self.trials and self.p2_passes == self.trials
                and not self.failures)


def _margin_prelude(instance: ProblemInstance, x, lower: float, upper: float,
                    min_width: Optional[float] = None, in_band: bool = True):
    """The hypothesis both certificates start from, checked in order.

    1. The band is not empty and lies in the entropy domain (ValidationError
       otherwise, an empty band named as empty).  With `in_band` (core's) the
       density must also be finite and inside the band on the membership grid
       of the instance rule, and again on that grid once step 2 has refined
       its rule; without it (qri's, which clips the density into the band) it
       must be finite there.
    2. The scan's margin interval on the instance rule, and the margin rule:
       the instance rule refined at its ends.  The margin's range is the
       density's on the margin grid, in place of the scan's.
    3. The unit-direction y_k on it, the only independence check.
    4. Its range strictly inside (lower, upper).

    Returns the y_k, whose `margin` is the margin of step 2 and whose designs
    cover the margin rule's nodes and the margin grid, the membership grid of
    the margin rule (`_membership_grid`), x on it, and the clearance of that
    range from the band, which core's step rule and qri's delta both read.
    """
    basis, rule, entropy = instance.basis, instance.rule, instance.entropy
    outside = CertificateError(f"the density leaves the band [{lower}, {upper}] somewhere on "
                               f"{rule.interval}", hypothesis="admissible band")
    if lower >= upper:   # a configuration error, as the domain check below
        raise ValidationError(f"band [{lower}, {upper}] is empty")
    if not entropy.f_domain.contains_interval(lower, upper):   # a configuration error
        raise ValidationError(f"band [{lower}, {upper}] is not contained in the domain "
                              f"{entropy.f_domain} of {entropy.name}")
    if in_band and not _in_band(_sample(x, _membership_grid(rule)), lower, upper):
        raise outside
    margin = find_margin_interval(x, lower, upper, rule, min_width)
    rule = refine_rule(rule, margin.lo, margin.hi)
    grid = _membership_grid(rule, margin)
    x_grid = _sample(x, grid)
    if not _in_band(x_grid, *((lower, upper) if in_band else (-np.inf, np.inf))):
        raise outside
    checked = x_grid[(grid >= margin.lo) & (grid <= margin.hi)]   # x on the margin grid
    margin = replace(margin, val_lo=float(checked.min()), val_hi=float(checked.max()))
    directions = build_direction_functions(basis, rule, margin)
    if not lower < margin.val_lo <= margin.val_hi < upper:
        raise CertificateError(
            f"density range [{margin.val_lo}, {margin.val_hi}] on the margin interval "
            f"[{margin.lo}, {margin.hi}] is not strictly inside ({lower}, {upper})",
            hypothesis="margin interval",
        )
    return directions, grid, x_grid, min(margin.val_lo - lower, upper - margin.val_hi)


def build_core_certificate(instance: ProblemInstance, x, lower: float, upper: float,
                           min_width: Optional[float] = None) -> CoreCertificate:
    """Assemble the core certificate for the density x and band [lower, upper].

    Fails with a :class:`CertificateError` naming the hypothesis that does
    not hold: band membership, existence of a margin interval, or linear
    independence on the scanned margin (see `_margin_prelude`).
    """
    directions, grid, _, clearance = _margin_prelude(instance, x, lower, upper, min_width)
    return CoreCertificate(
        directions=directions,
        lower=float(lower),
        upper=float(upper),
        clearance=float(clearance),
        grid=grid,
    )


def _whole_number(name: str, value) -> int:
    """`value` as an int; a ValidationError unless it is a whole real number."""
    if isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real)
                                               and float(value).is_integer()):
        return int(value)
    raise ValidationError(f"{name} must be a whole number, got {name}={value!r}")


def verify_core_certificate(instance: ProblemInstance, x, cert: CoreCertificate,
                            trials: int = DEFAULT_TRIALS,
                            seed: int = DEFAULT_SEED) -> CertificateVerification:
    """Check both conclusions of the core construction of `cert` for every
    step s = t(eta) * eta the step rule admits (`cert.t_for`): x + s @ y
    stays inside the band on the membership grid (P1), and its moments are
    b + s to within P2_TOL (P2).  `dataclasses.replace(cert, clearance=k *
    cert.clearance)` over-drives the step rule (a negative control).

    P1: as `cert.sup_unit`, formed from the y_k, bounds |y_k| on the grid,
    |fl(s @ y_j)| <= (1+gamma)^2 (|s| @ sup_unit) + tiny, gamma = 2(n+2)*eps
    (an n-term dot, two products).  `t_for` rounds each |s_k| sup_unit_k to
    below r/n (1+u)^3/(1-u), r = fl(SAFETY_FACTOR * clearance), u = eps/2,
    and the dot adds n u, so B = (1+gamma)^2 r (1 + (n+3) eps) + tiny bounds
    every |fl(s @ y_j)| while each sup_unit_k and r lie in [2^-500, 2^500],
    where the roundings are relative.  So x moved by `reach`, B inside the
    margin (inf where that range fails, a negative clearance too) and 0 off
    it, where every y_k is 0, must stay in the band: the worst violation is
    the largest of lower - (x - reach), (x + reach) - upper and 0 on the
    grid, and inf where x is not finite, as in the build.  Rounding is
    monotone, so it bounds each step's violation, and it is x's own where x
    clears the band by B.

    P2 is linear in s: on the margin rule the moments are b + e + D^T s, e
    the moments of x less b and D_kj = <y_k, a_j>, both formed here, D from
    the y_k at the margin rule's margin nodes (`margin_design`) and the a_k
    there (`basis_design`).  So each step's residual |e + (D - I)^T s| is at
    most W = max_j (|e_j| + sum_k |D - I|_kj r / (n sup_unit_k)).  In P1's
    range W and `t_for` round n+8 times, relatively, so fl(W) (1 + (n+8)
    eps) + tiny bounds it (inf out of that range).  P1 and P2 pass in every
    trial if the worst violation is 0 (B covers every rounding) and the
    bound within P2_TOL (NaN fails), in none otherwise.  P2's parts are also checked at unit size
    (`CertificateVerification.failures`), as is the radius t_unit (1 -
    omega) - ||e||_inf, omega = ||D^T - I||_inf: every b + s' with
    ||s'||_inf <= radius is reached by s = D^-T (s' - e), ||s||_inf <=
    t_unit.  x is sampled once, on the grid, which ends with the margin
    rule's nodes.  `trials` >= 1 sizes the counts and `seed` >= 0 drives
    nothing; both must be whole numbers.
    """
    trials, seed = _whole_number("trials", trials), _whole_number("seed", seed)
    if trials < 1:
        raise ValidationError(f"verification needs at least one trial, got trials={trials}")
    if seed < 0:
        raise ValidationError(f"the verification seed must be >= 0, got seed={seed}")
    directions, grid = cert.directions, cert.grid
    weights, nodes = directions.rule.weights, directions.rule.nodes
    x_grid = _sample(x, grid)
    target = (directions.basis_design @ (weights * x_grid[grid.size - weights.size:])
              - instance.target_moments)
    on_nodes = (nodes >= cert.margin.lo) & (nodes <= cert.margin.hi)
    y_nodes = directions.coeffs @ directions.margin_design[:, MEMBERSHIP_SAMPLES:]
    n, rate, fi = instance.n, SAFETY_FACTOR * cert.clearance, np.finfo(float)  # r of t_for
    defect = ((y_nodes * weights[on_nodes]) @ directions.basis_design.compress(on_nodes, axis=1).T
              - np.eye(n))   # D - I
    scales = np.append(cert.sup_unit, rate)
    trusted = np.all((2.0 ** -500 <= scales) & (scales <= 2.0 ** 500))
    bound = ((1.0 + 2.0 * (n + 2) * fi.eps) ** 2 * (rate * (1.0 + (n + 3) * fi.eps)) + fi.tiny
             if trusted else np.inf)
    worst_p2 = (float(np.max(np.abs(target) + (rate / (n * cert.sup_unit)) @ np.abs(defect))
                      * (1.0 + (n + 8) * fi.eps) + fi.tiny) if trusted else np.inf)
    reach = np.where((grid >= cert.margin.lo) & (grid <= cert.margin.hi), bound, 0.0)
    with np.errstate(invalid="ignore"):   # inf - inf at an infinite end: the other side decides
        moved = np.fmax(cert.lower - (x_grid - reach), x_grid + reach - cert.upper)
    worst_p1 = float(np.max(np.where(np.isfinite(x_grid), moved, np.inf), initial=0.0))

    return CertificateVerification(
        trials=trials,
        p1_passes=trials if worst_p1 <= 0.0 else 0,
        p2_passes=trials if worst_p2 <= P2_TOL else 0,
        worst_p1_violation=worst_p1,
        worst_p2_residual=worst_p2,
        orthogonality=float(np.linalg.norm(defect, axis=0).max()),
        target=float(np.abs(target).max()),
        radius=float(cert.t_unit * (1.0 - np.abs(defect).sum(axis=0).max())
                     - np.abs(target).max()),
    )


@dataclass(frozen=True)
class QriCertificate:
    """A witness with the same moments as the density that clears its band,
    built by clipping and correcting on the margin interval.

    `eps` certifies lower + eps <= y(s) <= upper - eps at every sample of the
    membership grid; `upper_clearance` is min(upper - y) there, at least eps
    when `upper` is finite and inf otherwise.
    """

    m: int
    y: Callable = field(repr=False)
    eps: float
    moment_match_residual: float
    margin: MarginInterval
    upper_clearance: float
    correction_sup: float


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

    A piece lasts while its outermost clipped nodes stay clipped: `top`, the
    largest value clipped up, < lower + width/k and `bottom`, the smallest
    clipped down, > upper - width/k, the float bounds np.clip receives.  Both
    are monotone in k, as rounding is, and no node joins a clipped set as m
    grows, so a gallop and bisection on these tests finds the piece's last level.
    """
    gamma = 2.0 * (x_ver.size + 2 * coeffs.shape[0] + 8) * np.finfo(float).eps
    width = _band_width(lower, upper)
    spread = np.abs(coeffs) @ np.abs(margin_design)

    m = 3
    while m <= m_max:
        side = np.sign(np.clip(x_ver, lower + width / m, upper - width / m) - x_ver)
        if not side.any():  # nothing is clipped at m or after it: v = 0
            yield from range(m, m_max + 1)
            return
        edge = np.where(side > 0, lower, np.where(side < 0, upper, 0.0))
        top, bottom = x_ver[side > 0].max(initial=-np.inf), x_ver[side < 0].min(initial=np.inf)
        end, step = m, 1
        while step:  # gallop and bisect to the piece's last level
            k = end + step
            grow = (k <= m_max and lower + width / k > top
                    and (bottom == np.inf or upper - width / k < bottom))
            end, step = (k, 2 * step) if grow else (end, step // 2)
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
    correction satisfies sup |v| < delta/2 (delta being the density's
    clearance from the band on the margin interval, as core's) and whose
    witness y = x_m - v keeps a positive clearance eps from the band
    (module note) is returned.
    Only the levels `_candidate_levels` hands on are evaluated; every other
    has sup |v| >= delta/2, so the accepted m, the witness and the failure
    report are those of a scan that evaluates every level.

    Raises a :class:`CertificateError` describing the decay of the moment
    defect when the budget m_max is exhausted, and one naming "moment match"
    when the accepted witness's moments, on the margin rule, miss the target
    by more than P2_TOL.
    """
    m_max = _whole_number("m_max", m_max)
    if m_max < 3:
        raise ValidationError(f"the clip-level scan starts at m=3, got m_max={m_max}")
    directions, full_grid, x_full, delta = _margin_prelude(instance, x, lower, upper, min_width,
                                                           in_band=False)
    margin, ver_rule, ver_design = directions.margin, directions.rule, directions.basis_design
    nodes = slice(full_grid.size - ver_rule.nodes.size, None)  # the grid ends with the nodes
    on_margin = (full_grid >= margin.lo) & (full_grid <= margin.hi)   # the margin grid
    x_ver = x_full[nodes]
    lost = []       # levels whose witness lost its clearance
    width = _band_width(lower, upper)

    def clip(values, m):
        return np.clip(values, lower + width / m, upper - width / m)

    def level(m):
        """The level-m clip's moment defect, and its correction's coefficients and v."""
        defect = ver_design @ (ver_rule.weights * (clip(x_ver, m) - x_ver))
        coeffs = defect @ directions.coeffs
        return defect, coeffs, coeffs @ directions.margin_design

    for m in _candidate_levels(x_ver, ver_rule.weights, ver_design, directions.coeffs,
                               directions.margin_design, lower, upper, delta, m_max):
        _, coeffs, v = level(m)
        sup_v = float(np.max(np.abs(v)))
        if sup_v >= delta / 2.0:
            continue
        y_full = clip(x_full, m)
        y_full[on_margin] -= v   # v is 0 off the margin
        upper_clearance = float(np.min(upper - y_full))     # inf when unbounded above
        eps = min(float(np.min(y_full - lower)), upper_clearance)
        if eps <= 0.0:
            lost.append(m)
            continue

        def y(s):
            return clip(_sample(x, s), m) - directions(s, coeffs)

        residual = float(np.max(np.abs(
            ver_design @ (ver_rule.weights * y_full[nodes]) - instance.target_moments)))
        if not residual <= P2_TOL:
            raise CertificateError(
                f"the witness accepted at m={m} misses the target moments by {residual:.3e} "
                f"> {P2_TOL:.0e} on the margin rule", hypothesis="moment match")
        return QriCertificate(m=m, y=y, eps=eps, moment_match_residual=residual, margin=margin,
                              upper_clearance=upper_clearance, correction_sup=sup_v)

    # every level failed: report the last six of m = 3, the multiples of 25 and the lost ones
    reported = sorted({3, *range(m_max // 25 * 25, 0, -25)[:6], *lost})[-6:]
    decay = "; ".join(f"m={m}: |defect|={np.max(np.abs(d)):.3e}, sup|v|={np.max(np.abs(v)):.3e}"
                      for m, (d, _, v) in zip(reported, map(level, reported)))
    below = f" and clearance below {upper}" if upper < np.inf else ""
    raise CertificateError(
        f"no acceptable witness up to m={m_max} (need sup|v| < {delta / 2.0:.3e} "
        f"with positive lower clearance{below}); defect decay: {decay}",
        hypothesis="witness acceptance",
    )
