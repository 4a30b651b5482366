"""Run configuration: INI parsing, defaults, and instance assembly.

A run is described by a single INI file with sections [problem], [basis]
(or [basis_a]/[basis_b] for comparisons), [rho], [quad], [solver],
[output], [certify], and [compare].  Every field has a default except the
entropy and the basis; the full schema with defaults is documented in the
README.  Floats, integers, and small vectors are plain whitespace- or
comma-separated text.

Each setting is declared once: `load_config`'s `_read` calls list every key a
file may hold, and the frozen dataclass holding a value checks its bounds, so
a flag applied with `dataclasses.replace` meets its INI key's check.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .certificates import DEFAULT_M_MAX, DEFAULT_SEED, DEFAULT_TRIALS
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
    merge_breakpoints,
)

__all__ = ["BasisSpec", "RhoSpec", "CertifyOptions", "RunConfig", "load_config",
           "build_problem"]


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _at_least(*bounds) -> None:
    """Raise on the first (key, value, least) whose value is below least."""
    for key, value, least in bounds:
        if value < least:
            raise ValidationError(f"{key} must be >= {least}, got {value}")


def _existing_file(what: str, path: Optional[str]) -> str:
    """The file of a tabulated basis or density, which must exist."""
    if not path:
        raise ValidationError(f"tabulated {what} requires a file")
    if not os.path.exists(path):
        raise ValidationError(f"{what} file not found: {path}")
    return path


def _read(path, sections: dict, name: str, **parsers) -> dict:
    """Fields from section [name], taken out of `sections`: `parsers[key]` parses
    key's value into the field of its name, or is a (field, parser) pair.  A key
    it does not name, or a value its parser rejects, is an error naming name.key."""
    fields = {}
    for key, text in sections.pop(name, {}).items():
        if key not in parsers:
            raise ValidationError(f"{path}: unknown key {name}.{key}")
        target, parse = parsers[key] if isinstance(parsers[key], tuple) else (key, parsers[key])
        try:
            fields[target] = parse(text)
        except ValueError as exc:
            raise ValidationError(f"{path}: {name}.{key}: {exc}") from None
    return fields


@dataclass(frozen=True)
class BasisSpec:
    kind: str
    n: int
    split: Optional[float] = None
    file: Optional[str] = None

    def to_basis(self, interval) -> MomentBasis:
        if self.kind == "monomial":
            return monomial_basis(self.n)
        if self.kind == "piecewise_flat":
            if self.split is None:
                raise ValidationError("piecewise_flat basis requires a split point")
            return piecewise_flat_basis(self.n, self.split, interval)
        if self.kind == "tabulated":
            basis = tabulated_basis(_existing_file("basis", self.file))
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
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    m_max: int = DEFAULT_M_MAX
    min_width: Optional[float] = None

    def __post_init__(self):
        _at_least(("certify.trials", self.trials, 1), ("certify.m_max", self.m_max, 3),
                  ("certify.seed", self.seed, 0))
        if self.min_width is not None and not 0.0 < self.min_width < math.inf:  # nan too
            raise ValidationError(
                f"certify.min_width must be positive and finite, got {self.min_width}")

    def band_for(self, entropy: EntropySpec) -> tuple:
        domain = entropy.f_domain
        lower = float(self.alpha if self.alpha is not None else domain.lo)
        upper = float(self.beta if self.beta is not None else domain.hi)
        if not math.isfinite(lower):
            raise ValidationError(
                f"certificates need a finite lower bound; entropy {entropy.name} has "
                f"domain {domain}, set certify.alpha explicitly"
            )
        if lower >= upper:   # no interior for a margin's range to clear
            raise ValidationError(f"band [{lower}, {upper}] is empty; set certify.alpha "
                                  f"below certify.beta")
        if self.alpha is None and not domain.closed_lo:  # Burg's 0: no built-in upper end is open
            raise ValidationError(f"band [{lower}, {upper}] is not contained in the domain "
                                  f"{domain} of {entropy.name}, which leaves its end {lower} "
                                  f"open; set certify.alpha explicitly")
        return lower, upper


@dataclass(frozen=True)
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
    phi0: Optional[tuple] = None
    out_dir: str = "out"
    sample_points: int = 1001
    certify: CertifyOptions = field(default_factory=CertifyOptions)
    window: Optional[tuple] = None

    def __post_init__(self):
        for name, pair in (("interval", self.interval), ("compare window", self.window)):
            if pair is not None and (len(pair) != 2 or not pair[0] < pair[1]):
                raise ValidationError(f"{name} must be two increasing numbers, got {list(pair)}")
        if self.window is not None and not (self.interval[0] <= self.window[0]
                                            and self.window[1] <= self.interval[1]):
            raise ValidationError(f"compare.window {list(self.window)} must lie inside the "
                                  f"interval {list(self.interval)}")
        min_width = self.certify.min_width
        if min_width is not None and min_width >= self.interval[1] - self.interval[0]:
            raise ValidationError(f"certify.min_width {min_width} must be shorter than the "
                                  f"interval {list(self.interval)}")
        split = self.rho.split   # a nan or infinite split is the pulse's own error
        if (self.rho.kind == "pulse" and math.isfinite(split)
                and not self.interval[0] < split < self.interval[1]):
            raise ValidationError(f"rho.split {split} must lie strictly inside the interval "
                                  f"{list(self.interval)}")
        for name in ("basis", "basis_a", "basis_b"):
            spec = getattr(self, name)
            if self.phi0 is not None and spec is not None and len(self.phi0) != spec.n:
                raise ValidationError(f"solver.phi0 needs one value per function of [{name}] "
                                      f"(n = {spec.n}), got {len(self.phi0)}")
        _at_least(("quad.order", self.quad_order, 1), ("quad.panels", self.quad_panels, 1),
                  ("solver.max_iter", self.max_iter, 0),
                  ("output.sample_points", self.sample_points, 0))
        if not 0.0 < self.tol < math.inf:  # also rejects nan
            raise ValidationError(
                f"solver.tol: tolerance must be positive and finite, got {self.tol}")
        if not self.out_dir:
            raise ValidationError("output.dir must not be empty")

    def default_window(self) -> tuple:
        """Comparison window: split +- 0.1, falling back to the midpoint, clipped
        to the interval; a split whose window misses the interval is an error."""
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
        lo, hi = max(split - 0.1, self.interval[0]), min(split + 0.1, self.interval[1])
        if not lo < hi:
            raise ValidationError(f"compare.window: split {split} +- 0.1 misses the interval "
                                  f"{list(self.interval)}; set compare.window")
        return (lo, hi)


def load_config(path) -> RunConfig:
    """Parse a run configuration file, applying documented defaults."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:  # its text spans lines; keep it on one
        raise ValidationError(f"cannot parse {path}: {' '.join(str(exc).split())}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes not UTF-8
        raise ValidationError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from None

    if parser.defaults():  # configparser would copy its keys into every section
        raise ValidationError(f"{path}: unknown section [{parser.default_section}]")
    sections = {name: parser[name] for name in parser.sections()}
    if "entropy" not in sections.get("problem", {}):
        raise ValidationError(f"{path}: section [problem] with 'entropy' is required")
    bases = {name: _read(path, sections, name, kind=str.strip, n=int, split=float, file=str)
             for name in ("basis", "basis_a", "basis_b") if name in sections}
    if any("kind" not in spec or "n" not in spec for spec in bases.values()):
        raise ValidationError("basis section requires 'kind' and 'n'")
    fields = {
        **_read(path, sections, "problem", entropy=str.strip, interval=_floats),
        **_read(path, sections, "quad", order=("quad_order", int), panels=("quad_panels", int)),
        **_read(path, sections, "solver", tol=float, max_iter=int, phi0=_floats),
        **_read(path, sections, "output", dir=("out_dir", str), sample_points=int),
        **_read(path, sections, "compare", window=_floats),
        "rho": RhoSpec(**_read(path, sections, "rho", kind=str.strip, split=float, c=float,
                               file=str)),
        "certify": CertifyOptions(**_read(path, sections, "certify", alpha=float, beta=float,
                                          trials=int, seed=int, m_max=int, min_width=float)),
    }
    if sections:
        raise ValidationError(f"{path}: unknown section [{next(iter(sections))}]")
    return RunConfig(**{name: BasisSpec(**spec) for name, spec in bases.items()}, **fields)


def build_problem(cfg: RunConfig, basis_spec: BasisSpec) -> tuple:
    """Assemble (instance, density) for one basis choice.

    The quadrature rule carries the union of the basis and density
    breakpoints, so the target moments are integrated exactly.
    """
    entropy = builtin_entropy(cfg.entropy)
    basis = basis_spec.to_basis(cfg.interval)
    rho = cfg.rho.to_density()
    bps = merge_breakpoints(cfg.interval, (), (*basis.breakpoints, *rho.breakpoints))
    rule = build_rule(cfg.interval, bps, cfg.quad_order, cfg.quad_panels)
    return instance_from_density(entropy, basis, rule, rho), rho
