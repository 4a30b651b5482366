"""Primal density recovery from dual multipliers, and solution audits.

At optimal multipliers mu the primal density is pointwise

    x(s) = (f*)'(sum_j mu_j a_j(s)),

so recovering it costs one conjugate-derivative sweep over the nodes.  The
audit quantities computed here close the loop: the moment residual checks
feasibility, and the duality gap I_f(x) - D(mu) checks optimality.  Both
come from the dual solver's oracle, one dual field on the same rule as the
solve, which makes the zero-gap identity a property of the discrete problem
and lets it hold to solver precision rather than merely quadrature precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dual import _derivatives, _field
from .moments import ProblemInstance
from .quadrature import integrate_values

__all__ = ["PrimalSolution", "reconstruct", "sample_solution", "gibbs_overshoot"]

OVERSHOOT_SAMPLES = 2001


@dataclass
class PrimalSolution:
    """The recovered density plus its feasibility and optimality audit."""

    x: Callable = field(repr=False)
    multipliers: np.ndarray
    moment_residual_inf: float
    primal_value: float
    dual_value: float
    duality_gap: float


def reconstruct(instance: ProblemInstance, mu) -> PrimalSolution:
    """Recover the primal density for multipliers `mu` and audit it."""
    mu = np.asarray(mu, dtype=float)
    entropy, basis = instance.entropy, instance.basis

    def x(s):
        v = basis(np.asarray(s, dtype=float)).T @ mu
        return entropy.f_star_d1(v)

    v, dual = _field(instance, mu)
    x_nodes, grad, _ = _derivatives(instance, v, 1)
    primal = integrate_values(instance.rule, entropy.f(x_nodes))
    return PrimalSolution(
        x=x,
        multipliers=mu,
        moment_residual_inf=float(np.max(np.abs(grad))),
        primal_value=primal,
        dual_value=dual,
        duality_gap=primal - dual,
    )


def sample_solution(solution: PrimalSolution, grid) -> np.ndarray:
    """Tabulate the density on a grid; returns rows of (s, x(s))."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return np.empty((0, 2))
    return np.column_stack([grid, solution.x(grid)])


def gibbs_overshoot(solution: PrimalSolution, target, window) -> float:
    """How far the density escapes the target's range inside a window.

    Scans a uniform grid of OVERSHOOT_SAMPLES points in `window` and returns
    the largest exceedance of x above the target's supremum or below its
    infimum there; zero when the density stays within the target's range.
    This turns "the oscillation near the jump got smaller" into a number.
    """
    lo, hi = float(window[0]), float(window[1])
    grid = np.linspace(lo, hi, OVERSHOOT_SAMPLES)
    x_vals = np.asarray(solution.x(grid), dtype=float)
    t_vals = np.asarray(target(grid), dtype=float)
    above = float(np.max(x_vals) - np.max(t_vals))
    below = float(np.min(t_vals) - np.min(x_vals))
    return max(above, below, 0.0)
