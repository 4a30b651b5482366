"""Moment functions, the moment map, Gram matrices, and independence tests.

The linear constraints of the problem are inner products against a finite
family of bounded "moment functions" a_1..a_n.  This module provides the
two built-in families (global monomials, and monomials that flatten to the
constant 1 past a split point), a loader for tabulated families, the
moment map x -> (<a_1, x>, ..., <a_n, x>), and L2 Gram matrices on
subintervals.

Linear independence of the moment functions on a subinterval is what the
strong-duality certificates require.  In infinite dimensions independence
is an abstract statement; here it is decided numerically through the
smallest eigenvalue of the subinterval Gram matrix, with a scale-free
threshold relative to trace/n.  Independence in L2 implies independence in
L-infinity for bounded functions on a bounded interval, so the surrogate
errs only on the conservative side.  The raw eigenvalue is always reported
because Hilbert-type Gram matrices are notoriously ill-conditioned and
callers may want to judge for themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .densities import _load_table
from .entropies import EntropySpec
from .errors import ValidationError
from .quadrature import QuadratureRule, finite_at_nodes, nodes_in, refine_rule

__all__ = [
    "MomentBasis",
    "ProblemInstance",
    "IndependenceReport",
    "monomial_basis",
    "piecewise_flat_basis",
    "tabulated_basis",
    "design_matrix",
    "moment_vector",
    "gram_matrix",
    "linearly_independent_on",
    "instance_from_density",
]

DEFAULT_INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True)
class MomentBasis:
    """An ordered family of bounded moment functions on [0, tau]; the
    declared breakpoints are trusted as the only non-smooth points."""

    functions: tuple
    breakpoints: tuple
    kind: str
    interval: tuple

    @property
    def n(self) -> int:
        return len(self.functions)


def _power(s, k: int) -> np.ndarray:
    """s**k, numpy's pow in the dtype of s (ones for k = 0)."""
    return np.asarray(s) ** k


def monomial_basis(n: int, interval=(0.0, 1.0)) -> MomentBasis:
    """a_i(s) = s**(i-1) for i = 1..n; smooth, independent on any interval."""
    if n < 1:
        raise ValidationError(f"need at least one moment function, got n={n}")
    lo, hi = float(interval[0]), float(interval[1])
    return MomentBasis(
        functions=tuple(partial(_power, k=k) for k in range(n)),
        breakpoints=(),
        kind="monomial",
        interval=(lo, hi),
    )


def piecewise_flat_basis(n: int, split: float, interval=(0.0, 1.0)) -> MomentBasis:
    """Monomials up to the split, the constant 1 past it.

    a_i(t) = t**(i-1) for t <= split and 1 for t > split.  All functions
    coincide on the flat side, so the family is dependent there for n >= 2
    and independent on any subinterval of [0, split]: exactly the freedom
    interval-local certificates allow and global (pseudo-Haar) conditions
    forbid.
    """
    if n < 1:
        raise ValidationError(f"need at least one moment function, got n={n}")
    lo, hi = float(interval[0]), float(interval[1])
    split = float(split)
    if not lo < split < hi:
        raise ValidationError(f"split {split} must lie strictly inside ({lo}, {hi})")

    def branch(k):
        def f(s):  # 1**k is exactly 1, so masking before the power keeps every bit
            return _power(np.where(np.asarray(s) <= split, s, 1), k)

        return f

    return MomentBasis(
        functions=tuple(branch(k) for k in range(n)),
        breakpoints=(split,),
        kind="piecewise_flat",
        interval=(lo, hi),
    )


def tabulated_basis(path, interval=(0.0, 1.0)) -> MomentBasis:
    """Moment functions sampled in a columned text file.

    First column is s, remaining columns are a_1..a_n; values between
    samples are interpolated linearly.  An optional header
    ``# breakpoints: ...`` declares non-smooth points.
    """
    breakpoints, data = _load_table(path, "need an s column plus at least one function column")
    s = data[:, 0]

    def interpolant(col):
        vals = data[:, col]

        def f(q):
            return np.interp(np.asarray(q, dtype=float), s, vals)

        return f

    return MomentBasis(
        functions=tuple(interpolant(c) for c in range(1, data.shape[1])),
        breakpoints=tuple(float(b) for b in breakpoints),
        kind="tabulated",
        interval=(float(interval[0]), float(interval[1])),
    )


def design_matrix(basis: MomentBasis, s) -> np.ndarray:
    """Stack of a_k(s), shape (n, len(s)); preserves the dtype of s."""
    s = np.asarray(s)
    return np.stack([f(s) for f in basis.functions])


def moment_vector(basis: MomentBasis, rule: QuadratureRule, x) -> np.ndarray:
    """The moment map: componentwise quadrature of a_k * x."""
    return _node_moments(rule, design_matrix(basis, rule.nodes), x)


def _node_moments(rule: QuadratureRule, design: np.ndarray, x) -> np.ndarray:
    """moment_vector on a built design; one dot per row, as one gemv changes bits."""
    products = finite_at_nodes(rule, design * np.asarray(x(rule.nodes), dtype=float))
    return (products[:, None, :] @ rule.weights[:, None])[:, 0, 0]


def gram_matrix(basis: MomentBasis, rule: QuadratureRule, subinterval=None,
                design=None) -> np.ndarray:
    """G_ij = integral of a_i * a_j over the subinterval (default: all of it).

    Taken on the nodes inside it of `rule` refined at its ends (`refine_rule`),
    as every margin integral is, from `design`, the a_k there (evaluated if
    None); `rule` must resolve the basis breakpoints.  Symmetrized numerically;
    positive semidefinite up to roundoff whenever the quadrature weights are
    positive, which composite Gauss-Legendre guarantees.
    """
    lo, hi = subinterval or rule.interval
    nodes, weights = nodes_in(refine_rule(rule, lo, hi), lo, hi)
    return weighted_gram(design_matrix(basis, nodes) if design is None else design, weights)


def weighted_gram(design: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_s w(s) a_i(s) a_j(s) from a design, symmetrized; keeps its dtype."""
    gram = (design * weights) @ design.T
    return 0.5 * (gram + gram.T)


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    min_eigenvalue: float
    threshold: float

    def __bool__(self):
        return self.independent


def linearly_independent_on(basis: MomentBasis, rule: QuadratureRule, subinterval,
                            tol: float = DEFAULT_INDEPENDENCE_TOL,
                            design=None) -> IndependenceReport:
    """Decide numerical independence of the a_k on a subinterval.

    Independent iff the smallest Gram eigenvalue exceeds tol * trace/n, 0 < tol < inf.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")
    gram = gram_matrix(basis, rule, subinterval, design)
    eigvals = np.linalg.eigvalsh(gram)
    threshold = tol * float(np.trace(gram)) / basis.n
    return IndependenceReport(
        independent=bool(eigvals[0] > threshold),
        min_eigenvalue=float(eigvals[0]),
        threshold=threshold,
    )


@dataclass
class ProblemInstance:
    """Everything needed to pose one constrained entropy minimization.

    The rule must resolve every basis breakpoint strictly inside its interval.
    `design`, the basis at the nodes that the dual solver reads on every iteration,
    is built once (or passed in by `instance_from_density`).
    """

    entropy: EntropySpec
    basis: MomentBasis
    rule: QuadratureRule
    target_moments: np.ndarray
    design: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.target_moments = np.asarray(self.target_moments, dtype=float)
        if self.target_moments.shape != (self.basis.n,):
            raise ValidationError(
                f"target moment vector has shape {self.target_moments.shape}, "
                f"expected ({self.basis.n},)"
            )
        if not np.all(np.isfinite(self.target_moments)):
            raise ValidationError("target moments must be finite")
        lo, hi = self.rule.interval  # a breakpoint at or past an end is none (merge_breakpoints)
        missing = [b for b in self.basis.breakpoints if lo < b < hi
                   and not any(abs(b - rb) <= 1e-12 for rb in self.rule.breakpoints)]
        if missing:
            raise ValidationError(
                f"rule breakpoints {self.rule.breakpoints} do not cover basis "
                f"breakpoints {missing}"
            )
        if self.design is None:
            self.design = design_matrix(self.basis, self.rule.nodes)

    @property
    def n(self) -> int:
        return self.basis.n


def instance_from_density(entropy: EntropySpec, basis: MomentBasis, rule: QuadratureRule,
                          rho) -> ProblemInstance:
    """Build an instance whose target moments are the moments of `rho`."""
    design = design_matrix(basis, rule.nodes)
    return ProblemInstance(entropy, basis, rule, _node_moments(rule, design, rho), design)
