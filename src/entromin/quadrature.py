"""Composite Gauss-Legendre quadrature with explicit breakpoints.

The integrands in this package are smooth between a handful of known
breakpoints (the jump of the reference density, the branch point of the
piecewise moment functions) and analytic inside each piece.  A composite
Gauss-Legendre rule whose panel edges include every breakpoint integrates
such pieces essentially to machine precision, and, unlike adaptive
schemes, is byte-for-byte deterministic across runs.

Nodes are strictly interior to their panels, so integrands are never
evaluated exactly at a discontinuity.

The reference rule on [-1, 1] is computed once per order and cached
read-only, since `leggauss` costs more than laying out every panel; edges
and panels are laid out in one broadcast each (edges: `uniform_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainViolationError, ValidationError

__all__ = ["QuadratureRule", "build_rule", "integrate"]

DEFAULT_NODES_PER_PANEL = 20
DEFAULT_PANELS_PER_SEGMENT = 8


@lru_cache(maxsize=None, typed=True)  # typed: a float order still raises in leggauss
def _reference_rule(nodes_per_panel):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    ref_x.flags.writeable = False
    ref_w.flags.writeable = False
    return ref_x, ref_w


def _hold_read_only(frozen, *names) -> None:
    """Hold the named array fields (None aside) of the dataclass `frozen` as
    read-only views, not copies, so a caller's own array stays writable."""
    for name in names:
        if getattr(frozen, name) is not None:
            view = np.asarray(getattr(frozen, name)).view()
            view.flags.writeable = False
            object.__setattr__(frozen, name, view)


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable composite rule on [lo, hi] honoring its breakpoints, arrays read-only."""

    interval: tuple
    breakpoints: tuple
    nodes_per_panel: int
    panels_per_segment: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        _hold_read_only(self, "nodes", "weights")


def build_rule(interval, breakpoints=(), nodes_per_panel=DEFAULT_NODES_PER_PANEL,
               panels_per_segment=DEFAULT_PANELS_PER_SEGMENT) -> QuadratureRule:
    """Build a composite Gauss-Legendre rule on `interval`.

    Breakpoints must be sorted, distinct, and strictly inside the interval.
    Each segment between consecutive breakpoints is split into
    `panels_per_segment` equal panels carrying a `nodes_per_panel`-point
    Gauss-Legendre rule, so piecewise-smooth integrands are smooth on every
    panel.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError(f"integration interval [{lo}, {hi}] must be finite")
    if not lo < hi:
        raise ValidationError(f"empty integration interval [{lo}, {hi}]")
    if nodes_per_panel < 1 or panels_per_segment < 1:
        raise ValidationError("nodes_per_panel and panels_per_segment must be >= 1")
    bps = tuple(float(b) for b in breakpoints)
    if any(not lo < b < hi for b in bps):
        raise ValidationError(f"breakpoints {bps} must lie strictly inside ({lo}, {hi})")
    if any(b2 <= b1 for b1, b2 in zip(bps[:-1], bps[1:])):
        raise ValidationError(f"breakpoints {bps} must be sorted and distinct")
    ref_x, ref_w = _reference_rule(nodes_per_panel)
    edges = np.array([lo, *bps, hi])
    panels = uniform_grid(edges[:-1, None], edges[1:, None], panels_per_segment + 1)
    pa = panels[:, :-1].ravel()
    half = 0.5 * (panels[:, 1:].ravel() - pa)
    return QuadratureRule(
        interval=(lo, hi),
        breakpoints=bps,
        nodes_per_panel=int(nodes_per_panel),
        panels_per_segment=int(panels_per_segment),
        nodes=(pa[:, None] + half[:, None] * (ref_x + 1.0)).ravel(),
        weights=(half[:, None] * ref_w).ravel(),
    )


def uniform_grid(start, stop, num: int) -> np.ndarray:
    """`np.linspace(start, stop, num)`, bit for bit (num >= 2), as arange * step +
    start, then stop, without its overhead; columns of ends give one per row."""
    step = (stop - start) / (num - 1)
    grid = np.arange(num) * step
    if not grid[..., 1].all():  # a step that underflows: linspace scales by the width instead
        grid = np.where(grid[..., 1:2] == 0, np.arange(num) / (num - 1) * (stop - start), grid)
    grid += start
    grid[..., -1:] = stop
    return grid


def merge_breakpoints(interval, breakpoints, points) -> tuple:
    """The sorted `breakpoints` plus each of `points`, in ascending order, that
    lies strictly inside `interval` and more than 1e-12 from all kept so far."""
    bps = list(breakpoints)
    for z in sorted(map(float, points)):
        if interval[0] < z < interval[1] and all(abs(z - b) > 1e-12 for b in bps):
            bps.append(z)
    return tuple(sorted(bps))


def refine_rule(rule: QuadratureRule, lo: float, hi: float) -> QuadratureRule:
    """`rule` with [lo, hi] among its panel edges (`merge_breakpoints`), or
    `rule` itself when it already has both.  The nodes of the result in
    [lo, hi] (`nodes_in`) are then a composite rule on that subinterval.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValidationError(f"empty subinterval [{lo}, {hi}]")
    if lo < rule.interval[0] - 1e-14 or hi > rule.interval[1] + 1e-14:
        raise ValidationError(f"subinterval [{lo}, {hi}] not inside {rule.interval}")
    bps = merge_breakpoints(rule.interval, rule.breakpoints, (lo, hi))
    if bps == rule.breakpoints:
        return rule
    return build_rule(rule.interval, bps, rule.nodes_per_panel, rule.panels_per_segment)


def nodes_in(rule: QuadratureRule, lo: float, hi: float):
    """The nodes of `rule` in [lo, hi] and their weights."""
    inside = (rule.nodes >= lo) & (rule.nodes <= hi)
    return rule.nodes[inside], rule.weights[inside]


def _sample(x, points) -> np.ndarray:
    """x at `points` as floats of their shape, a scalar being every point's value:
    the one way a density is read.  Any other shape is a ValidationError naming it."""
    values, shape = np.asarray(x(points), dtype=float), np.shape(points)
    if values.shape not in (shape, ()):
        raise ValidationError(f"the density returned values of shape {values.shape} at {shape}")
    return values if values.shape == shape else np.full(shape, values)


def integrate(rule: QuadratureRule, g) -> float:
    """Integrate a scalar map over the rule's interval.

    `g` is called once on the full node array (`_sample`).  A non-finite value
    at any node raises :class:`DomainViolationError` carrying the node, which
    is how entropy-domain violations surface during the Newton line search.
    """
    return integrate_values(rule, _sample(g, rule.nodes))


def finite_at_nodes(rule: QuadratureRule, values, what: str = "integrand") -> np.ndarray:
    """`values` at the nodes (last axis) as a float array; the first non-finite
    entry raises :class:`DomainViolationError` naming `what` and its node."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        idx = np.unravel_index(np.argmin(finite), values.shape)
        value, node = float(values[idx]), float(rule.nodes[idx[-1]])
        raise DomainViolationError(f"{what} is {value!r} at node s={node!r}",
                                   node=node, value=value)
    return values


def integrate_values(rule: QuadratureRule, values: np.ndarray) -> float:
    """Weighted sum for integrand values already evaluated at the nodes."""
    return float(rule.weights @ finite_at_nodes(rule, values))
