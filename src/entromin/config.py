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
            if not self.file:
                raise ValidationError("tabulated basis requires a file")
            if not os.path.exists(self.file):
                raise ValidationError(f"basis file not found: {self.file}")
            basis = tabulated_basis(self.file, interval)
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
    kind: str
    split: float = 0.5
    c: float = 0.5
    file: Optional[str] = None

    def to_density(self) -> Density:
        if self.kind == "pulse":
            return pulse_density(self.split)
        if self.kind == "constant":
            return constant_density(self.c)
        if self.kind == "tabulated":
            if not self.file:
                raise ValidationError("tabulated density requires a file")
            if not os.path.exists(self.file):
                raise ValidationError(f"density file not found: {self.file}")
            return tabulated_density(self.file)
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
        lower = self.alpha if self.alpha is not None else entropy.f_domain.lo
        upper = self.beta if self.beta is not None else entropy.f_domain.hi
        if not math.isfinite(lower):
            raise ValidationError(
                f"certificates need a finite lower bound; entropy {entropy.name} has "
                f"domain {entropy.f_domain}, set certify.alpha explicitly"
            )
        return float(lower), float(upper)


@dataclass
class RunConfig:
    entropy: str
    interval: tuple = (0.0, 1.0)
    basis: Optional[BasisSpec] = None
    basis_a: Optional[BasisSpec] = None
    basis_b: Optional[BasisSpec] = None
    rho: RhoSpec = field(default_factory=lambda: RhoSpec(kind="pulse"))
    quad_order: int = DEFAULT_NODES_PER_PANEL
    quad_panels: int = DEFAULT_PANELS_PER_SEGMENT
    tol: float = 1e-10
    max_iter: int = 100
    phi0: Optional[np.ndarray] = None
    out_dir: str = "out"
    sample_points: int = 1001
    certify: CertifyOptions = field(default_factory=CertifyOptions)
    window: Optional[tuple] = None

    def entropy_spec(self) -> EntropySpec:
        try:
            return builtin_entropy(self.entropy)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None

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


def _parse_basis(section) -> BasisSpec:
    if "kind" not in section or "n" not in section:
        raise ValidationError("basis section requires 'kind' and 'n'")
    return BasisSpec(
        kind=section.get("kind").strip(),
        n=int(section.get("n")),
        split=float(section["split"]) if "split" in section else None,
        file=section.get("file", None),
    )


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
    problem = parser["problem"]

    try:
        cfg = RunConfig(entropy=problem.get("entropy").strip())
        if "interval" in problem:
            vals = _floats(problem["interval"])
            if len(vals) != 2 or not vals[0] < vals[1]:
                raise ValidationError(f"interval must be two increasing numbers, got {vals}")
            cfg.interval = (vals[0], vals[1])

        if "basis" in parser:
            cfg.basis = _parse_basis(parser["basis"])
        if "basis_a" in parser:
            cfg.basis_a = _parse_basis(parser["basis_a"])
        if "basis_b" in parser:
            cfg.basis_b = _parse_basis(parser["basis_b"])

        if "rho" in parser:
            rho = parser["rho"]
            cfg.rho = RhoSpec(
                kind=rho.get("kind", "pulse").strip(),
                split=float(rho.get("split", 0.5)),
                c=float(rho.get("c", 0.5)),
                file=rho.get("file", None),
            )

        if "quad" in parser:
            quad = parser["quad"]
            cfg.quad_order = int(quad.get("order", DEFAULT_NODES_PER_PANEL))
            cfg.quad_panels = int(quad.get("panels", DEFAULT_PANELS_PER_SEGMENT))

        if "solver" in parser:
            solver = parser["solver"]
            cfg.tol = float(solver.get("tol", 1e-10))
            cfg.max_iter = int(solver.get("max_iter", 100))
            if "phi0" in solver:
                cfg.phi0 = np.array(_floats(solver["phi0"]))

        if "output" in parser:
            output = parser["output"]
            cfg.out_dir = output.get("dir", "out")
            cfg.sample_points = int(output.get("sample_points", 1001))
            if cfg.sample_points < 0:
                raise ValidationError(
                    f"output.sample_points must be >= 0, got {cfg.sample_points}")

        if "certify" in parser:
            cert = parser["certify"]
            cfg.certify = CertifyOptions(
                alpha=float(cert["alpha"]) if "alpha" in cert else None,
                beta=float(cert["beta"]) if "beta" in cert else None,
                trials=int(cert.get("trials", 100)),
                seed=int(cert.get("seed", 0)),
                m_max=int(cert.get("m_max", DEFAULT_M_MAX)),
                min_width=float(cert["min_width"]) if "min_width" in cert else None,
            )
            if cfg.certify.trials < 1:
                raise ValidationError(f"certify.trials must be >= 1, got {cfg.certify.trials}")
            if cfg.certify.m_max < 3:
                raise ValidationError(f"certify.m_max must be >= 3, got {cfg.certify.m_max}")
            if cfg.certify.seed < 0:
                raise ValidationError(f"certify.seed must be >= 0, got {cfg.certify.seed}")

        if "compare" in parser and "window" in parser["compare"]:
            vals = _floats(parser["compare"]["window"])
            if len(vals) != 2 or not vals[0] < vals[1]:
                raise ValidationError(f"compare window must be two increasing numbers, got {vals}")
            cfg.window = (vals[0], vals[1])
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
