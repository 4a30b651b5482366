"""Damped Newton ascent for the finite dual of the entropy problem.

Minimizing the entropy functional subject to n moment constraints reduces,
when strong duality holds, to maximizing the concave function

    D(phi) = <phi, b> - integral of f*(sum_k phi_k a_k(s)) ds

over phi in R^n.  Its gradient components are the constraint residuals

    dD/dphi_k = b_k - integral of (f*)'(sum_j phi_j a_j(s)) a_k(s) ds,

so a stationary point of D is exactly a multiplier vector for which the
reconstructed density reproduces the target moments.  The Hessian is the
negative of a Gram matrix weighted by (f*)'' and comes almost for free
alongside the gradient quadrature, which is why Newton is the natural
choice here.

The solver stops on the infinity norm of the gradient (the violation of
the stationarity system itself) rather than on step size.  Backtracking
halves the step until the dual value does not decrease and every node
stays inside the conjugate domain; conjugate-domain violations and
non-finite derivatives surface as exceptions from the evaluation layer and
are treated as ordinary line-search rejections.

Near the optimum the predicted ascent g.d of a Newton step falls to the
rounding level of D itself (a few eps times max(1, |D|)).  There, whether
the computed D rises or falls is decided by rounding, and accepting on
"does not decrease" lets the search settle on steps too short to move
the residual.  In that regime a step is accepted instead when it
strictly lowers the residual, the infinity norm of the gradient at the
candidate; the dual values along the trace are then nondecreasing only up
to rounding.

One oracle computes D, its gradient and its Hessian from one dual field on
the instance's design, whose conjugate-domain check is the only one made:
f* and its derivatives are called unchecked, as the instance resolved them.
A line-search trial builds the field and D; an accepted trial reuses that
field for the gradient and the Hessian, and in the rounding regime every
trial computes all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolationError, NonFiniteIntegrandError, ValidationError
from .moments import ProblemInstance, weighted_gram
from .quadrature import finite_at_nodes, integrate_values

__all__ = ["DualSolution", "IterationRecord", "dual_value", "dual_gradient",
           "dual_hessian", "solve_dual", "default_start"]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100

_MIN_STEP = 2.0 ** -60          # give up on the line search below this
_REG_START = 1e-12              # Hessian shift ladder, relative to ||H||
_REG_LIMIT = 1e-4
_ROUNDING = 8 * np.finfo(float).eps  # predicted ascent below this x max(1, |D|) is noise


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    residual_inf: float
    step: float
    dual_value: float


@dataclass
class DualSolution:
    """Result of a dual solve, converged or not.

    `residual_inf` is the infinity norm of the dual gradient at
    `multipliers`, i.e. the worst violation of the stationarity system.
    The trace records one row per accepted iterate; the dual values along
    it are nondecreasing up to rounding (see the module note).
    """

    multipliers: np.ndarray
    residual_inf: float
    dual_value: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)
    message: str = ""


def _field(instance: ProblemInstance, phi: np.ndarray):
    """The dual field v = sum_k phi_k a_k at the nodes, and D(phi).

    v is checked against the conjugate domain here, once, so f* and its
    derivatives are evaluated from it unchecked.
    """
    entropy, rule = instance.entropy, instance.rule
    v = instance.design.T @ phi
    ok = entropy.f_star_domain.contains(v)
    if not ok.all():
        idx = int(np.argmin(ok))
        raise DomainViolationError(
            f"dual field {v[idx]!r} at node s={rule.nodes[idx]!r} is outside "
            f"the conjugate domain {entropy.f_star_domain} of {entropy.name}",
            argument="phi",
            value=float(v[idx]),
            node=float(rule.nodes[idx]),
        )
    conjugate = instance._unchecked[0](v)
    return v, float(phi @ instance.target_moments - integrate_values(rule, conjugate))


def _derivatives(instance: ProblemInstance, v: np.ndarray, order: int):
    """(grad D, Hess D) from a checked dual field v, those above `order` None."""
    rule, design, unchecked = instance.rule, instance.design, instance._unchecked
    grad = hess = None
    if order >= 1:
        density = finite_at_nodes(rule, unchecked[1](v), "(f*)'")
        grad = instance.target_moments - design @ (rule.weights * density)
    if order >= 2:
        curvature = finite_at_nodes(rule, unchecked[2](v), "(f*)''")
        hess = -weighted_gram(design, rule.weights * curvature)
    return grad, hess


def _oracle(instance: ProblemInstance, phi: np.ndarray, order: int):
    """(D, grad D, Hess D) at phi, with the derivatives above `order` None,
    all from one dual field."""
    v, value = _field(instance, phi)
    return (value, *_derivatives(instance, v, order))


def dual_value(instance: ProblemInstance, phi) -> float:
    """<phi, b> minus the integral of f* composed with the dual field."""
    return _field(instance, np.asarray(phi, dtype=float))[1]


def dual_gradient(instance: ProblemInstance, phi) -> np.ndarray:
    """Componentwise b_k minus the moments of the reconstructed density."""
    return _oracle(instance, np.asarray(phi, dtype=float), 1)[1]


def dual_hessian(instance: ProblemInstance, phi) -> np.ndarray:
    """Negative (f*)''-weighted Gram matrix of the moment functions."""
    return _oracle(instance, np.asarray(phi, dtype=float), 2)[2]


def default_start(instance: ProblemInstance) -> np.ndarray:
    """Feasible initial multipliers.

    Zero works whenever 0 lies in the conjugate domain (every built-in
    entropy except Burg).  For a conjugate domain of negative reals the
    start is chosen so the dual field is identically -1, which requires
    the first moment function to be the constant 1.
    """
    n = instance.n
    if instance.entropy.f_star_domain.contains(0.0):
        return np.zeros(n)
    first_row = instance.design[0]
    if np.max(np.abs(first_row - 1.0)) <= 1e-12 and instance.entropy.f_star_domain.contains(-1.0):
        phi = np.zeros(n)
        phi[0] = -1.0
        return phi
    raise ValidationError(
        f"no automatic start for entropy {instance.entropy.name!r}: 0 is outside the "
        f"conjugate domain and the first moment function is not identically 1; "
        f"pass phi0 explicitly"
    )


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for symmetric positive definite a; raises LinAlgError otherwise."""
    low = np.linalg.cholesky(a)
    return np.linalg.solve(low.T, np.linalg.solve(low, b))


def _newton_direction(hess: np.ndarray, grad: np.ndarray):
    """Solve H d = -g for the ascent direction, shifting H if needed.

    Returns (direction, shift_used).  Falls back to the gradient direction
    when the shift ladder exhausts without a usable factorization.
    """
    neg = -hess
    try:
        return _cholesky_solve(neg, grad), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.linalg.norm(hess, np.inf)) or 1.0
    shift = _REG_START * scale
    eye = np.eye(hess.shape[0])
    while shift <= _REG_LIMIT * scale:
        try:
            return _cholesky_solve(neg + shift * eye, grad), shift
        except np.linalg.LinAlgError:
            shift *= 10.0
    return grad.copy(), -1.0  # gradient ascent for this iteration


def solve_dual(instance: ProblemInstance, phi0=None, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> DualSolution:
    """Maximize the dual by damped Newton ascent.

    Stops when the gradient infinity norm drops to `tol`.  An exhausted
    iteration budget returns a non-converged solution with diagnostics
    rather than raising; an infeasible `phi0` raises a domain error.
    """
    if not 0.0 < tol < np.inf:  # also rejects nan
        raise ValidationError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValidationError(f"max_iter must be nonnegative, got {max_iter}")
    phi = np.array(phi0, dtype=float) if phi0 is not None else default_start(instance)
    if phi.shape != (instance.n,):
        raise ValidationError(f"phi0 has shape {phi.shape}, expected ({instance.n},)")

    value, grad, hess = _oracle(instance, phi, 2)  # raises if phi0 infeasible
    residual = float(np.max(np.abs(grad)))
    trace = [IterationRecord(0, residual, 0.0, value)]
    iterations = 0
    message = ""

    while residual > tol:
        if iterations >= max_iter:
            message = f"iteration budget {max_iter} exhausted with residual {residual:.3e}"
            break
        direction, _shift = _newton_direction(hess, grad)
        by_residual = abs(float(grad @ direction)) <= _ROUNDING * max(1.0, abs(value))
        step = 1.0
        accepted = None
        while step >= _MIN_STEP:
            candidate = phi + step * direction
            try:
                v, trial_value = _field(instance, candidate)
                if by_residual:
                    point = (trial_value, *_derivatives(instance, v, 2))
                    if np.max(np.abs(point[1])) < residual:
                        accepted = point
                elif trial_value >= value:
                    accepted = (trial_value, *_derivatives(instance, v, 2))
            except (DomainViolationError, NonFiniteIntegrandError):
                pass
            if accepted is not None:
                break
            step *= 0.5
        if accepted is None:
            message = f"line search stalled at residual {residual:.3e}"
            break
        phi = candidate
        value, grad, hess = accepted
        iterations += 1
        residual = float(np.max(np.abs(grad)))
        trace.append(IterationRecord(iterations, residual, step, value))

    return DualSolution(
        multipliers=phi,
        residual_inf=residual,
        dual_value=value,
        iterations=iterations,
        converged=bool(residual <= tol),
        trace=trace,
        message=message,
    )
