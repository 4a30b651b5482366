"""Entropy minimization under finitely many moment constraints.

The package solves problems of the form

    minimize  integral of f(x(s)) ds   subject to   <a_k, x> = b_k,

for a convex entropy f, by maximizing the finite concave dual, recovering
the primal density from the optimal multipliers, and constructively
certifying that strong duality was legitimate to invoke: either through a
direction-by-direction core certificate or through a clip-and-correct
quasi-relative-interior witness.  Both certificates need the moment
functions to be linearly independent only on a single margin interval,
which admits piecewise-defined moment families that flatten elsewhere and,
empirically, tame the Gibbs overshoot when reconstructing discontinuous
densities.
"""

from .certificates import (
    CertificateVerification,
    CoreCertificate,
    DirectionFunctions,
    MarginInterval,
    QriCertificate,
    build_core_certificate,
    build_direction_functions,
    build_qri_certificate,
    direction_inner_products,
    find_margin_interval,
    verify_core_certificate,
    within_bounds,
)
from .densities import Density, constant_density, pulse_density, tabulated_density
from .dual import (
    DualSolution,
    dual_gradient,
    dual_hessian,
    dual_value,
    solve_dual,
)
from .entropies import (
    EntropySpec,
    Interval,
    available_entropies,
    builtin_entropy,
    fenchel_young_gap,
)
from .errors import (
    CertificateError,
    DependentBasisError,
    DomainViolationError,
    EntrominError,
    NoMarginIntervalError,
    NonFiniteIntegrandError,
    ValidationError,
)
from .moments import (
    IndependenceReport,
    MomentBasis,
    ProblemInstance,
    gram_matrix,
    instance_from_density,
    linearly_independent_on,
    moment_vector,
    monomial_basis,
    piecewise_flat_basis,
    tabulated_basis,
)
from .primal import PrimalSolution, gibbs_overshoot, reconstruct, sample_solution
from .quadrature import QuadratureRule, build_rule, integrate

__version__ = "0.1.0"
