"""Exception types shared across the package.

Every failure is one of three families, one class each under
:class:`EntrominError`: bad input (:class:`ValidationError`), an evaluation
outside a function's domain or non-finite at a quadrature node
(:class:`DomainViolationError`), and a certificate hypothesis that does not
hold (:class:`CertificateError`, which names it in `hypothesis`).  Domain
violations are ordinary control flow during the Newton line search, so they
carry enough context (offending value, node location) for the caller to
react without string parsing.
"""

from __future__ import annotations

__all__ = ["EntrominError", "ValidationError", "DomainViolationError", "CertificateError"]


class EntrominError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(EntrominError, ValueError):
    """Malformed input: bad configuration, bad breakpoints, bad sizes."""


class DomainViolationError(EntrominError, ValueError):
    """A scalar map was evaluated outside its domain, or an integrand is
    NaN or +/-inf at a quadrature node.

    Attributes
    ----------
    argument : str
        Name of the offending argument ("u", "v", "phi0", ...), when known.
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


class CertificateError(EntrominError, RuntimeError):
    """A hypothesis required by a strong-duality certificate failed.

    `hypothesis` names the failed requirement ("admissible band", "margin
    interval", "linear independence", "witness acceptance" or "moment
    match"), so command-line users and tests can react to the specific
    failure rather than the message text.
    """

    def __init__(self, message, hypothesis=""):
        super().__init__(message)
        self.hypothesis = hypothesis
