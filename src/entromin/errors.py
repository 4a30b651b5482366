"""Exception types shared across the package.

The solver distinguishes three failure families: bad inputs
(:class:`ValidationError`), evaluation outside a function's domain
(:class:`DomainViolationError`, :class:`NonFiniteIntegrandError`), and a
certificate hypothesis that does not hold (:class:`CertificateError` and
subclasses).  Domain violations are ordinary control flow during the Newton
line search, so they carry enough context (offending value, node location)
for the caller to react without string parsing.
"""

from __future__ import annotations

__all__ = ["EntrominError", "ValidationError", "DomainViolationError",
           "NonFiniteIntegrandError", "CertificateError", "NoMarginIntervalError",
           "DependentBasisError"]


class EntrominError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EntrominError, ValueError):
    """Malformed input: bad configuration, bad breakpoints, bad sizes."""


class DomainViolationError(EntrominError, ValueError):
    """A scalar map was evaluated outside its domain.

    Attributes
    ----------
    argument : str
        Name of the offending argument ("u", "v", "phi0", ...).
    value : float
        The offending value.
    node : float or None
        Quadrature node at which the violation occurred, when known.
    """

    def __init__(self, message, argument="", value=float("nan"), node=None):
        super().__init__(message)
        self.argument = argument
        self.value = value
        self.node = node


class NonFiniteIntegrandError(EntrominError, ValueError):
    """An integrand evaluated to NaN or +/-inf at a quadrature node."""

    def __init__(self, message, node=float("nan"), value=float("nan")):
        super().__init__(message)
        self.node = node
        self.value = value


class CertificateError(EntrominError, RuntimeError):
    """A hypothesis required by a strong-duality certificate failed.

    `hypothesis` names the failed requirement so command-line users and
    tests can react to the specific failure rather than the message text.
    """

    def __init__(self, message, hypothesis=""):
        super().__init__(message)
        self.hypothesis = hypothesis


class NoMarginIntervalError(CertificateError):
    """No subinterval keeps the density strictly inside its value bounds."""

    def __init__(self, message):
        super().__init__(message, hypothesis="margin interval")


class DependentBasisError(CertificateError):
    """Moment functions are numerically dependent on the working interval."""

    def __init__(self, message):
        super().__init__(message, hypothesis="linear independence")
