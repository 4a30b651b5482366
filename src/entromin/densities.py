"""Reference densities used to generate target moments.

A density is just a bounded scalar map on the problem interval plus the
list of points where it jumps, so the quadrature rule can resolve it
exactly.  The pulse (indicator of the left half-interval) is the standard
discontinuous benchmark; tabulated densities let users bring their own
data as piecewise-linear interpolants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError

__all__ = ["Density", "pulse_density", "constant_density", "tabulated_density"]


@dataclass(frozen=True)
class Density:
    kind: str
    fn: Callable = field(repr=False)
    breakpoints: tuple = ()

    def __call__(self, s):
        return self.fn(s)


def pulse_density(split: float = 0.5) -> Density:
    """Indicator of [0, split]: 1 up to and including the split, 0 after."""

    def fn(s):
        s = np.asarray(s)
        return np.where(s <= split, 1.0, 0.0)

    return Density(kind="pulse", fn=fn, breakpoints=(float(split),))


def constant_density(c: float) -> Density:
    c = float(c)

    def fn(s):
        return np.full_like(np.asarray(s, dtype=float), c)

    return Density(kind="constant", fn=fn)


def tabulated_density(path) -> Density:
    """Piecewise-linear density from a two-column text file (s, value).

    Lines starting with '#' are comments; an optional header line
    ``# breakpoints: b1 b2 ...`` declares jump locations.
    """
    breakpoints, data = _load_table(path, "need at least two columns (s, value)")
    s, vals = data[:, 0], data[:, 1]

    def fn(q):
        return np.interp(np.asarray(q, dtype=float), s, vals)

    return Density(kind="tabulated", fn=fn, breakpoints=breakpoints)


def _load_table(path, too_few_columns: str):
    """(breakpoints, samples) of a tabulated file, checked for both loaders.

    The breakpoints come from an optional leading comment line
    ``# breakpoints: ...``.  The samples must have at least two columns
    (else `too_few_columns` is the message), finite entries and a strictly
    increasing first column.
    """
    breakpoints = ()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped.startswith("#"):
                break
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("breakpoints:"):
                tail = body.split(":", 1)[1].replace(",", " ").split()
                breakpoints = tuple(float(tok) for tok in tail)
                break
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] < 2:
        raise ValidationError(f"{path}: {too_few_columns}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: every entry must be finite (found nan or inf)")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise ValidationError(f"{path}: first column must be strictly increasing")
    return breakpoints, data
