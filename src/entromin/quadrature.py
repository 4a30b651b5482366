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
read-only, since `leggauss` costs more than laying out every panel; the
panels are laid out from it in one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonFiniteIntegrandError, ValidationError

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


def gauss_panels(lo, hi, breakpoints, nodes_per_panel, panels_per_segment):
    """Nodes and weights of the composite rule as flat float64 arrays.

    Each segment between consecutive breakpoints is split into
    `panels_per_segment` equal panels carrying a `nodes_per_panel`-point
    Gauss-Legendre rule, so no panel straddles a breakpoint.
    """
    ref_x, ref_w = _reference_rule(nodes_per_panel)
    edges = [lo, *breakpoints, hi]
    starts, ends = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        panel_edges = np.linspace(a, b, panels_per_segment + 1)
        starts.append(panel_edges[:-1])
        ends.append(panel_edges[1:])
    pa, pb = np.concatenate(starts), np.concatenate(ends)
    half = 0.5 * (pb - pa)
    nodes = pa[:, None] + half[:, None] * (ref_x + 1.0)
    return nodes.ravel(), (half[:, None] * ref_w).ravel()


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable composite rule on [lo, hi] honoring its breakpoints."""

    interval: tuple
    breakpoints: tuple
    nodes_per_panel: int
    panels_per_segment: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def build_rule(interval, breakpoints=(), nodes_per_panel=DEFAULT_NODES_PER_PANEL,
               panels_per_segment=DEFAULT_PANELS_PER_SEGMENT) -> QuadratureRule:
    """Build a composite Gauss-Legendre rule on `interval`.

    Breakpoints must be sorted, distinct, and strictly inside the interval;
    they become panel edges so that piecewise-smooth integrands are smooth
    on every panel.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValidationError(f"empty integration interval [{lo}, {hi}]")
    if nodes_per_panel < 1 or panels_per_segment < 1:
        raise ValidationError("nodes_per_panel and panels_per_segment must be >= 1")
    bps = tuple(float(b) for b in breakpoints)
    if any(not lo < b < hi for b in bps):
        raise ValidationError(f"breakpoints {bps} must lie strictly inside ({lo}, {hi})")
    if any(b2 <= b1 for b1, b2 in zip(bps[:-1], bps[1:])):
        raise ValidationError(f"breakpoints {bps} must be sorted and distinct")
    nodes, weights = gauss_panels(lo, hi, bps, nodes_per_panel, panels_per_segment)
    return QuadratureRule(
        interval=(lo, hi),
        breakpoints=bps,
        nodes_per_panel=int(nodes_per_panel),
        panels_per_segment=int(panels_per_segment),
        nodes=nodes,
        weights=weights,
    )


def integrate(rule: QuadratureRule, g) -> float:
    """Integrate a scalar map over the rule's interval.

    `g` is called once on the full node array.  A non-finite value at any
    node raises :class:`NonFiniteIntegrandError` carrying the node, which
    is how entropy-domain violations surface during the Newton line search.
    """
    values = np.asarray(g(rule.nodes), dtype=float)
    if values.shape != rule.nodes.shape:
        values = np.broadcast_to(values, rule.nodes.shape)
    return integrate_values(rule, values)


def finite_at_nodes(rule: QuadratureRule, values, what: str = "integrand") -> np.ndarray:
    """`values` at the nodes (last axis) as a float array; the first non-finite
    entry raises :class:`NonFiniteIntegrandError` naming `what` and its node."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        idx = np.unravel_index(np.argmin(finite), values.shape)
        raise NonFiniteIntegrandError(
            f"{what} is {values[idx]!r} at node s={rule.nodes[idx[-1]]!r}",
            node=float(rule.nodes[idx[-1]]),
            value=float(values[idx]),
        )
    return values


def integrate_values(rule: QuadratureRule, values: np.ndarray) -> float:
    """Weighted sum for integrand values already evaluated at the nodes."""
    return float(rule.weights @ finite_at_nodes(rule, values))
