"""Moment functions, the moment map, and independence tests.

The linear constraints of the problem are inner products against a finite
family of bounded "moment functions" a_1..a_n.  This module provides the
two built-in families (global monomials, and monomials that flatten to the
constant 1 past a split point), a loader for tabulated families, the
moment map x -> (<a_1, x>, ..., <a_n, x>), and the test of their
independence on a subinterval.

A family is one callable: `basis(s)` is its design, a_k(s) in row k, shape
(n,) + s.shape, from one evaluator that fills the rows of one array.  A
custom family is `MomentBasis(n, rows, breakpoints=())` with `rows(s)`
returning that design and `breakpoints` its non-smooth points.

Linear independence of the moment functions on a subinterval is what the
strong-duality certificates require.  In infinite dimensions independence
is an abstract statement; here it is decided numerically through the
smallest eigenvalue of the L2 Gram matrix on the subinterval (`weighted_gram`
on the quadrature nodes there), against the scale-free threshold
INDEPENDENCE_TOL * trace/n.  Independence in L2 implies
independence in L-infinity for bounded functions on a bounded interval, so
the surrogate errs only on the conservative side.  The raw eigenvalue is
always reported because Hilbert-type Gram matrices are notoriously
ill-conditioned and callers may want to judge for themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .densities import _load_table
from .entropies import EntropySpec
from .errors import ValidationError
from .quadrature import (QuadratureRule, _hold_read_only, _sample, finite_at_nodes, nodes_in,
                         refine_rule)

__all__ = [
    "MomentBasis",
    "ProblemInstance",
    "IndependenceReport",
    "monomial_basis",
    "piecewise_flat_basis",
    "tabulated_basis",
    "moment_vector",
    "linearly_independent_on",
    "instance_from_density",
]

INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True)
class MomentBasis:
    """An ordered family of n bounded moment functions on [0, tau], one
    callable: `basis(s)` is the design `rows(s)`, a_k(s) in row k, shape
    (n,) + s.shape.  A custom family is `MomentBasis(n, rows, breakpoints=())`;
    the declared breakpoints are trusted as the only non-smooth points."""

    n: int
    rows: Callable = field(repr=False)
    breakpoints: tuple = ()

    def __call__(self, s) -> np.ndarray:
        return self.rows(s)


def _monomial_rows(t, n: int) -> np.ndarray:
    """Row k is t**k, numpy's pow in the dtype of t, k = 0..n-1.  One `**` per
    row keeps the scalar-power fast paths (k = 2 squares), which
    np.power(..., out=) skips, so the bits of each power taken alone."""
    t = np.asarray(t)
    rows = np.empty((n,) + t.shape, dtype=np.result_type(t, 1))
    for k in range(n):
        rows[k] = t ** k
    return rows


def monomial_basis(n: int) -> MomentBasis:
    """a_i(s) = s**(i-1) for i = 1..n; smooth, independent on any interval."""
    if n < 1:
        raise ValidationError(f"need at least one moment function, got n={n}")
    return MomentBasis(n, lambda s: _monomial_rows(s, n))


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

    def rows(s):  # 1**k is exactly 1, so masking before the power keeps every bit
        return _monomial_rows(np.where(np.asarray(s) <= split, s, 1), n)

    return MomentBasis(n, rows, (split,))


def tabulated_basis(path) -> MomentBasis:
    """Moment functions sampled in a columned text file.

    First column is s, remaining columns are a_1..a_n; values between
    samples are interpolated linearly.  An optional header
    ``# breakpoints: ...`` declares non-smooth points.
    """
    breakpoints, data = _load_table(path, "need an s column plus at least one function column")
    s, columns = data[:, 0], data[:, 1:].T.copy()

    def rows(q):
        q = np.asarray(q, dtype=float)
        design = np.empty((len(columns),) + q.shape)
        for k, column in enumerate(columns):
            design[k] = np.interp(q, s, column)
        return design

    return MomentBasis(len(columns), rows, breakpoints)


def moment_vector(basis: MomentBasis, rule: QuadratureRule, x) -> np.ndarray:
    """The moment map: componentwise quadrature of a_k * x."""
    return _node_moments(rule, basis(rule.nodes), x)


def _node_moments(rule: QuadratureRule, design: np.ndarray, x) -> np.ndarray:
    """moment_vector on a built design; one dot per row, as one gemv changes bits."""
    products = finite_at_nodes(rule, design * _sample(x, rule.nodes))
    return (products[:, None, :] @ rule.weights[:, None])[:, 0, 0]


def weighted_gram(design: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_s w(s) a_i(s) a_j(s) from a design, symmetrized; keeps its dtype."""
    gram = (design * weights) @ design.T
    return 0.5 * (gram + gram.T)


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    min_eigenvalue: float
    threshold: float


def linearly_independent_on(basis: MomentBasis, rule: QuadratureRule, subinterval,
                            design=None) -> IndependenceReport:
    """Decide numerical independence of the a_k on a subinterval: independent
    iff the smallest eigenvalue of their Gram matrix exceeds INDEPENDENCE_TOL *
    trace/n.  It is taken on the nodes in the subinterval of `rule` refined at
    its ends (`refine_rule`), as every margin integral is, from `design`, the
    a_k there (evaluated if None); `rule` must resolve the basis breakpoints."""
    lo, hi = subinterval
    nodes, weights = nodes_in(refine_rule(rule, lo, hi), lo, hi)
    gram = weighted_gram(basis(nodes) if design is None else design, weights)
    eigvals = np.linalg.eigvalsh(gram)
    threshold = INDEPENDENCE_TOL * float(np.trace(gram)) / basis.n
    return IndependenceReport(
        independent=bool(eigvals[0] > threshold),
        min_eigenvalue=float(eigvals[0]),
        threshold=threshold,
    )


def _require_covered(rule: QuadratureRule, breakpoints, what: str) -> None:
    """A ValidationError naming the `what` breakpoints strictly inside the rule's
    interval that are more than 1e-12 from every rule breakpoint (one at or past
    an end is none, as merge_breakpoints has it)."""
    lo, hi = rule.interval
    missing = [b for b in breakpoints if lo < b < hi
               and not any(abs(b - rb) <= 1e-12 for rb in rule.breakpoints)]
    if missing:
        raise ValidationError(
            f"rule breakpoints {rule.breakpoints} do not cover {what} breakpoints {missing}")


@dataclass(frozen=True)
class ProblemInstance:
    """Everything needed to pose one constrained entropy minimization.

    The rule must resolve every basis breakpoint strictly inside its interval.
    `design`, the basis at the nodes that the dual solver reads on every iteration,
    is built once (or passed in by `instance_from_density`).  The instance is
    frozen and holds its arrays read-only (`target_moments` a copy, `design` a
    view), so its checks and its design hold for as long as it lives.
    """

    entropy: EntropySpec
    basis: MomentBasis
    rule: QuadratureRule
    target_moments: np.ndarray
    design: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "target_moments", np.array(self.target_moments, dtype=float))
        _hold_read_only(self, "target_moments")
        if self.target_moments.shape != (self.basis.n,):
            raise ValidationError(
                f"target moment vector has shape {self.target_moments.shape}, "
                f"expected ({self.basis.n},)"
            )
        if not np.all(np.isfinite(self.target_moments)):
            raise ValidationError("target moments must be finite")
        _require_covered(self.rule, self.basis.breakpoints, "basis")
        if self.design is None:
            object.__setattr__(self, "design", self.basis(self.rule.nodes))
        _hold_read_only(self, "design")

    @property
    def n(self) -> int:
        return self.basis.n


def instance_from_density(entropy: EntropySpec, basis: MomentBasis, rule: QuadratureRule,
                          rho) -> ProblemInstance:
    """Build an instance whose target moments are the moments of `rho`; the
    rule must resolve the density's breakpoints (its jumps) as the basis's."""
    _require_covered(rule, getattr(rho, "breakpoints", ()), "density")
    design = basis(rule.nodes)
    return ProblemInstance(entropy, basis, rule, _node_moments(rule, design, rho), design)
