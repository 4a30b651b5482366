"""Convex entropy integrands, their conjugates, and conjugate derivatives.

Each entropy is a proper closed convex function ``f`` on an interval of the
real line, packaged together with its convex conjugate ``f*`` and the first
two derivatives of ``f*``.  The conjugate derivative is the map that turns
dual variables into primal density values, so all four maps must be cheap,
vectorized, and free of hidden state: the dual solver evaluates them at
every quadrature node on every iteration.

Conventions:

* ``f`` is extended-valued: evaluating outside its domain returns ``+inf``
  (infeasibility is a value, not an error).  At finite closed endpoints the
  limit value is used, e.g. ``0*log(0) = 0``.
* ``f_star``, ``f_star_d1`` and ``f_star_d2`` raise
  :class:`~entromin.errors.DomainViolationError` outside the conjugate
  domain.  For Burg's entropy the conjugate lives on ``v < 0`` and a hard
  error (rather than ``+inf``) is what lets the Newton line search detect
  violations explicitly.  Each of the three exposes its unchecked map as
  ``__wrapped__`` (``inspect.unwrap``), which a problem instance looks up
  once for the dual solver to call on the dual fields it checked itself.

The cosh conjugate deserves a note: it is frequently misquoted as
``arcsinh(v) - sqrt(1+v^2)``.  The correct closed form, recovered by
maximizing ``u*v - cosh(u)`` directly (see the brute-force check in the
test suite), is ``v*arcsinh(v) - sqrt(1+v^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainViolationError, ValidationError

__all__ = [
    "Interval",
    "EntropySpec",
    "builtin_entropy",
    "available_entropies",
    "fenchel_young_gap",
]

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A real interval with individually open or closed finite endpoints."""

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v):
        """Vectorized membership test; infinite endpoints count as open."""
        v = np.asarray(v, dtype=float)
        lo_ok = (v >= self.lo) if (self.closed_lo and math.isfinite(self.lo)) else (v > self.lo)
        hi_ok = (v <= self.hi) if (self.closed_hi and math.isfinite(self.hi)) else (v < self.hi)
        return lo_ok & hi_ok

    def contains_interval(self, lo: float, hi: float) -> bool:
        """True when [lo, hi] (hi may be +inf) sits inside this interval."""
        if lo > hi:
            return False
        lo_ok = lo > self.lo or (lo == self.lo and (self.closed_lo or not np.isfinite(lo)))
        hi_ok = hi < self.hi or (hi == self.hi and (self.closed_hi or not np.isfinite(hi)))
        return bool(lo_ok and hi_ok)

    def __str__(self):
        left = "[" if self.closed_lo and np.isfinite(self.lo) else "("
        right = "]" if self.closed_hi and np.isfinite(self.hi) else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _guard(interval: Interval, name: str, owner: str, fn):
    """Wrap fn so evaluation outside `interval` raises a domain error."""

    def guarded(v):
        arr = np.asarray(v, dtype=float)
        ok = interval.contains(arr)
        if not np.all(ok):
            bad = arr[~ok] if arr.ndim else arr
            offender = float(np.ravel(bad)[0])
            raise DomainViolationError(
                f"{name} of {owner}: argument {offender!r} outside domain {interval}",
                argument=name,
                value=offender,
            )
        out = fn(arr)
        return float(out) if arr.ndim == 0 else out

    guarded.__wrapped__ = fn  # for callers that check the domain themselves
    return guarded


def _extended(interval: Interval, fn):
    """Wrap fn to return +inf outside `interval` (extended-valued f)."""

    def ext(u):
        arr = np.asarray(u, dtype=float)
        ok = interval.contains(arr)
        out = np.full(arr.shape, _INF)
        if np.any(ok):
            out[ok] = fn(arr[ok]) if arr.ndim else fn(arr)
        return float(out) if arr.ndim == 0 else out

    return ext


@dataclass(frozen=True)
class EntropySpec:
    """A convex entropy with conjugate data, immutable after construction.

    ``f`` is extended-valued on all of R; the three conjugate maps are
    domain-checked and raise outside ``f_star_domain``.
    """

    name: str
    f_domain: Interval
    f: Callable = field(repr=False)
    f_star_domain: Interval = field(repr=False, default=None)
    f_star: Callable = field(repr=False, default=None)
    f_star_d1: Callable = field(repr=False, default=None)
    f_star_d2: Callable = field(repr=False, default=None)


def _make(name, f_domain, f_raw, f_star_domain, fs_raw, d1_raw, d2_raw) -> EntropySpec:
    return EntropySpec(
        name=name,
        f_domain=f_domain,
        f=_extended(f_domain, f_raw),
        f_star_domain=f_star_domain,
        f_star=_guard(f_star_domain, "f_star", name, fs_raw),
        f_star_d1=_guard(f_star_domain, "f_star_d1", name, d1_raw),
        f_star_d2=_guard(f_star_domain, "f_star_d2", name, d2_raw),
    )


def _exp(v):
    # overflow to +inf silently; the quadrature layer turns that into a
    # NonFiniteIntegrandError, which the line search treats as infeasible
    with np.errstate(over="ignore"):
        return np.exp(v)


def _xlogx(u):
    # u*log(u) with the limit value 0 at u == 0 (0*-inf is nan before np.where)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u == 0.0, 0.0, u * np.log(u))


def _expit(v):
    # 1/(1+e^-v); e^-v overflowing to +inf gives exactly 0
    return 1.0 / (1.0 + _exp(-v))


def _cosh(u):
    with np.errstate(over="ignore"):
        return np.cosh(u)


_REAL = Interval(-_INF, _INF, False, False)


def _l2_norm():
    return _make(
        "l2_norm",
        _REAL,
        lambda u: 0.5 * u * u,
        _REAL,
        lambda v: 0.5 * v * v,
        lambda v: np.asarray(v, dtype=float) + 0.0,
        lambda v: np.ones_like(np.asarray(v, dtype=float)),
    )


def _boltzmann_shannon():
    return _make(
        "boltzmann_shannon",
        Interval(0.0, _INF, True, False),
        _xlogx,
        _REAL,
        lambda v: _exp(v - 1.0),
        lambda v: _exp(v - 1.0),
        lambda v: _exp(v - 1.0),
    )


def _translated_boltzmann_shannon():
    return _make(
        "translated_boltzmann_shannon",
        Interval(0.0, _INF, True, False),
        lambda u: _xlogx(u) - u,
        _REAL,
        _exp,
        _exp,
        _exp,
    )


def _burg():
    return _make(
        "burg",
        Interval(0.0, _INF, False, False),
        lambda u: -np.log(u),
        Interval(-_INF, 0.0, False, False),
        lambda v: -1.0 - np.log(-v),
        lambda v: -1.0 / v,
        lambda v: 1.0 / (v * v),
    )


def _cosh_entropy():
    return _make(
        "cosh",
        _REAL,
        _cosh,
        _REAL,
        lambda v: v * np.arcsinh(v) - np.sqrt(1.0 + v * v),
        np.arcsinh,
        lambda v: 1.0 / np.sqrt(1.0 + v * v),
    )


def _fermi_dirac():
    return _make(
        "fermi_dirac",
        Interval(0.0, 1.0, True, True),
        lambda u: _xlogx(u) + _xlogx(1.0 - u),
        _REAL,
        lambda v: np.logaddexp(0.0, v),
        _expit,
        lambda v: _expit(v) * _expit(-v),
    )


_BUILTINS = {
    "l2_norm": _l2_norm,
    "boltzmann_shannon": _boltzmann_shannon,
    "translated_boltzmann_shannon": _translated_boltzmann_shannon,
    "burg": _burg,
    "cosh": _cosh_entropy,
    "fermi_dirac": _fermi_dirac,
}


def available_entropies() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin_entropy(name: str) -> EntropySpec:
    """Return the built-in entropy with the given name.

    Raises
    ------
    ValidationError (a ValueError) listing the available names when `name`
    is unknown.
    """
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown entropy {name!r}; available: {', '.join(available_entropies())}"
        ) from None
    return builder()


def fenchel_young_gap(spec: EntropySpec, u, v):
    """f(u) + f*(v) - u*v, nonnegative for all admissible (u, v).

    The gap vanishes exactly when v is a subgradient of f at u, which is
    the pointwise optimality condition the duality-gap audit relies on.
    Out-of-domain arguments raise, naming the offender.
    """
    u_arr = np.asarray(u, dtype=float)
    ok = spec.f_domain.contains(u_arr)
    if not np.all(ok):
        bad = float(np.ravel(u_arr[~ok] if u_arr.ndim else u_arr)[0])
        raise DomainViolationError(
            f"fenchel_young_gap: u={bad!r} outside domain {spec.f_domain} of {spec.name}",
            argument="u",
            value=bad,
        )
    return spec.f(u) + spec.f_star(v) - u_arr * np.asarray(v, dtype=float)
