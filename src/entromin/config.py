"""Run configuration: INI parsing, defaults, and instance assembly.

A run is described by a single INI file with sections [problem], [basis]
(or [basis_a]/[basis_b] for comparisons), [rho], [quad], [solver],
[output], [certify], and [compare].  Every field has a default except the
entropy and the basis; the full schema with defaults is documented in the
README.  Floats, integers, and small vectors are plain whitespace- or
comma-separated text.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .certificates import DEFAULT_M_MAX
from .densities import Density, constant_density, pulse_density, tabulated_density
from .dual import DEFAULT_MAX_ITER, DEFAULT_TOL
from .entropies import EntropySpec, builtin_entropy
from .errors import ValidationError
from .moments import (
    MomentBasis,
    instance_from_density,
    monomial_basis,
    piecewise_flat_basis,
    tabulated_basis,
)
from .quadrature import (
    DEFAULT_NODES_PER_PANEL,
    DEFAULT_PANELS_PER_SEGMENT,
    build_rule,
)

__all__ = ["BasisSpec", "RhoSpec", "CertifyOptions", "RunConfig", "load_config",
           "build_problem"]


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _increasing_pair(name: str, text: str) -> tuple:
    vals = _floats(text)
    if len(vals) != 2 or not vals[0] < vals[1]:
        raise ValidationError(f"{name} must be two increasing numbers, got {vals}")
    return vals[0], vals[1]


def _existing_file(what: str, path: Optional[str]) -> str:
    """The file of a tabulated basis or density, which must exist."""
    if not path:
        raise ValidationError(f"tabulated {what} requires a file")
    if not os.path.exists(path):
        raise ValidationError(f"{what} file not found: {path}")
    return path


def _read(section, **parsers) -> dict:
    """The keys of `section` (a mapping, {} when absent) that `parsers`
    names, each parsed; a key it lacks keeps its field's default."""
    return {key: parse(section[key]) for key, parse in parsers.items() if key in section}


@dataclass(frozen=True)
class BasisSpec:
    kind: str
    n: int
    split: Optional[float] = None
    file: Optional[str] = None

    def to_basis(self, interval) -> MomentBasis:
        if self.kind == "monomial":
            return monomial_basis(self.n, interval)
        if self.kind == "piecewise_flat":
            if self.split is None:
                raise ValidationError("piecewise_flat basis requires a split point")
            return piecewise_flat_basis(self.n, self.split, interval)
        if self.kind == "tabulated":
            basis = tabulated_basis(_existing_file("basis", self.file), interval)
            if basis.n != self.n:
                raise ValidationError(
                    f"basis file {self.file} provides {basis.n} functions, config says n={self.n}"
                )
            return basis
        raise ValidationError(
            f"unknown basis kind {self.kind!r}; expected monomial, piecewise_flat or tabulated"
        )


@dataclass(frozen=True)
class RhoSpec:
    kind: str = "pulse"
    split: float = 0.5
    c: float = 0.5
    file: Optional[str] = None

    def to_density(self) -> Density:
        if self.kind == "pulse":
            return pulse_density(self.split)
        if self.kind == "constant":
            return constant_density(self.c)
        if self.kind == "tabulated":
            return tabulated_density(_existing_file("density", self.file))
        raise ValidationError(
            f"unknown density kind {self.kind!r}; expected pulse, constant or tabulated"
        )


@dataclass(frozen=True)
class CertifyOptions:
    alpha: Optional[float] = None   # defaults to the entropy domain endpoints
    beta: Optional[float] = None
    trials: int = 100
    seed: int = 0
    m_max: int = DEFAULT_M_MAX
    min_width: Optional[float] = None

    def band_for(self, entropy: EntropySpec) -> tuple:
        domain = entropy.f_domain
        lower = float(self.alpha if self.alpha is not None else domain.lo)
        upper = float(self.beta if self.beta is not None else domain.hi)
        if not math.isfinite(lower):
            raise ValidationError(
                f"certificates need a finite lower bound; entropy {entropy.name} has "
                f"domain {domain}, set certify.alpha explicitly"
            )
        if self.alpha is None and not domain.closed_lo:  # Burg's 0: no built-in upper end is open
            raise ValidationError(f"band [{lower}, {upper}] is not contained in the domain "
                                  f"{domain} of {entropy.name}, which leaves its end {lower} "
                                  f"open; set certify.alpha explicitly")
        return lower, upper


@dataclass
class RunConfig:
    entropy: str
    interval: tuple = (0.0, 1.0)
    basis: Optional[BasisSpec] = None
    basis_a: Optional[BasisSpec] = None
    basis_b: Optional[BasisSpec] = None
    rho: RhoSpec = field(default_factory=RhoSpec)
    quad_order: int = DEFAULT_NODES_PER_PANEL
    quad_panels: int = DEFAULT_PANELS_PER_SEGMENT
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    phi0: Optional[np.ndarray] = None
    out_dir: str = "out"
    sample_points: int = 1001
    certify: CertifyOptions = field(default_factory=CertifyOptions)
    window: Optional[tuple] = None

    def entropy_spec(self) -> EntropySpec:
        return builtin_entropy(self.entropy)

    def default_window(self) -> tuple:
        """Comparison window: split +- 0.1, falling back to the midpoint."""
        if self.window is not None:
            return self.window
        split = None
        if self.rho.kind == "pulse":
            split = self.rho.split
        elif self.basis_a is not None and self.basis_a.split is not None:
            split = self.basis_a.split
        elif self.basis is not None and self.basis.split is not None:
            split = self.basis.split
        if split is None:
            split = 0.5 * (self.interval[0] + self.interval[1])
        return (split - 0.1, split + 0.1)


def load_config(path) -> RunConfig:
    """Parse a run configuration file, applying documented defaults."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse {path}: {exc}") from None

    if "problem" not in parser or "entropy" not in parser["problem"]:
        raise ValidationError(f"{path}: section [problem] with 'entropy' is required")
    sections = {name: parser[name] for name in parser.sections()}
    problem = sections["problem"]

    try:
        cfg = RunConfig(entropy=problem.get("entropy").strip())
        if "interval" in problem:
            cfg.interval = _increasing_pair("interval", problem["interval"])
        for name in ("basis", "basis_a", "basis_b"):
            if name in sections:
                if "kind" not in sections[name] or "n" not in sections[name]:
                    raise ValidationError("basis section requires 'kind' and 'n'")
                setattr(cfg, name, BasisSpec(**_read(sections[name], kind=str.strip, n=int,
                                                     split=float, file=str)))
        cfg.rho = RhoSpec(**_read(sections.get("rho", {}), kind=str.strip, split=float,
                                  c=float, file=str))

        quad = sections.get("quad", {})
        cfg.quad_order = int(quad.get("order", cfg.quad_order))
        cfg.quad_panels = int(quad.get("panels", cfg.quad_panels))
        solver = sections.get("solver", {})
        cfg.tol = float(solver.get("tol", cfg.tol))
        cfg.max_iter = int(solver.get("max_iter", cfg.max_iter))
        if "phi0" in solver:
            cfg.phi0 = np.array(_floats(solver["phi0"]))
        output = sections.get("output", {})
        cfg.out_dir = output.get("dir", cfg.out_dir)
        cfg.sample_points = int(output.get("sample_points", cfg.sample_points))
        if cfg.sample_points < 0:
            raise ValidationError(f"output.sample_points must be >= 0, got {cfg.sample_points}")

        cfg.certify = CertifyOptions(**_read(sections.get("certify", {}), alpha=float, beta=float,
                                             trials=int, seed=int, m_max=int, min_width=float))
        for key, least in (("trials", 1), ("m_max", 3), ("seed", 0)):
            if getattr(cfg.certify, key) < least:
                raise ValidationError(
                    f"certify.{key} must be >= {least}, got {getattr(cfg.certify, key)}")
        if "window" in sections.get("compare", {}):
            cfg.window = _increasing_pair("compare window", sections["compare"]["window"])
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"{path}: {exc}") from None

    return cfg


def build_problem(cfg: RunConfig, basis_spec: BasisSpec) -> tuple:
    """Assemble (instance, density) for one basis choice.

    The quadrature rule carries the union of the basis and density
    breakpoints, so the target moments are integrated exactly.
    """
    entropy = cfg.entropy_spec()
    basis = basis_spec.to_basis(cfg.interval)
    rho = cfg.rho.to_density()
    lo, hi = cfg.interval
    bps = sorted({b for b in (*basis.breakpoints, *rho.breakpoints) if lo < b < hi})
    merged = []
    for b in bps:  # collapse near-duplicates from the two sources
        if not merged or b - merged[-1] > 1e-12:
            merged.append(b)
    rule = build_rule(cfg.interval, tuple(merged), cfg.quad_order, cfg.quad_panels)
    return instance_from_density(entropy, basis, rule, rho), rho
