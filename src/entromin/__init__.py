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

from .certificates import *
from .densities import *
from .dual import *
from .entropies import *
from .errors import *
from .moments import *
from .primal import *
from .quadrature import *

__version__ = "0.1.0"
