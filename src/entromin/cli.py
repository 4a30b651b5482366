"""Command-line front end: solve, certify, and compare pipelines.

Every run is driven by a config file (see the README for the schema) plus
a handful of overriding flags.  Outputs are CSV and JSON only, written
with 17 significant digits, LF line endings, and sorted JSON keys, so two
runs with identical inputs produce byte-identical artifacts.  Plotting is
intentionally left to the user's tool of choice.

Exit codes: 0 success, 1 configuration error, 2 solver did not converge,
3 a certificate hypothesis failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .certificates import (
    build_core_certificate,
    build_qri_certificate,
    verify_core_certificate,
)
from .config import RunConfig, build_problem, load_config
from .dual import solve_dual
from .errors import CertificateError, EntrominError
from .primal import gibbs_overshoot, reconstruct, sample_solution

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_FAILED_HYPOTHESIS = 3


def _fmt(value) -> str:
    """One float at 17 significant digits (full double precision); nan, inf, -inf."""
    return format(float(value), ".17g")


def _json_dumps(obj, indent=0) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, LF endings."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}"{key}": {_json_dumps(obj[key], indent + 1)}'
                 for key in sorted(obj))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = (f"{inner}{_json_dumps(v, indent + 1)}" for v in seq)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isfinite(value):
            return _fmt(value)
        return f'"{_fmt(value)}"'
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(obj) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trace(path, solution) -> None:
    _write_csv(path, ("iter", "residual_inf", "step", "dual_value"),
               [(r.iteration, r.residual_inf, r.step, r.dual_value) for r in solution.trace])


def _solve_one(cfg: RunConfig, basis_spec):
    instance, rho = build_problem(cfg, basis_spec)
    solution = solve_dual(instance, phi0=cfg.phi0, tol=cfg.tol, max_iter=cfg.max_iter)
    primal = reconstruct(instance, solution.multipliers)
    return instance, rho, solution, primal


def _summary(solution, primal) -> dict:
    return {
        "mu": list(solution.multipliers),
        "residual_inf": solution.residual_inf,
        "dual_value": solution.dual_value,
        "primal_value": primal.primal_value,
        "duality_gap": primal.duality_gap,
        "iterations": solution.iterations,
        "converged": solution.converged,
    }


def cmd_solve(cfg: RunConfig, args) -> int:
    if cfg.basis is None:
        raise EntrominError("solve requires a [basis] section") from None
    instance, rho, solution, primal = _solve_one(cfg, cfg.basis)
    table = sample_solution(primal, np.linspace(*cfg.interval, cfg.sample_points))
    os.makedirs(cfg.out_dir, exist_ok=True)  # only after tabulating, which may raise
    _write_csv(os.path.join(cfg.out_dir, "solution.csv"), ("s", "x"), table)
    _write_json(os.path.join(cfg.out_dir, "summary.json"), _summary(solution, primal))
    if args.trace:
        _write_trace(os.path.join(cfg.out_dir, "trace.csv"), solution)
    if not solution.converged:
        print(f"solve: not converged: {solution.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"solve: converged in {solution.iterations} iterations, "
          f"residual {_fmt(solution.residual_inf)}, duality gap {_fmt(primal.duality_gap)}")
    return EXIT_OK


def cmd_certify(cfg: RunConfig, args) -> int:
    if cfg.basis is None:
        raise EntrominError("certify requires a [basis] section") from None
    instance, rho = build_problem(cfg, cfg.basis)
    opts = cfg.certify
    lower, upper = opts.band_for(instance.entropy)
    if args.type == "core":
        cert = build_core_certificate(instance, rho, lower, upper, min_width=opts.min_width)
        report = verify_core_certificate(instance, rho, cert, trials=opts.trials,
                                         seed=args.seed if args.seed is not None else opts.seed)
        fields = {"delta": cert.delta, "t_unit": cert.t_unit, "trials": report.trials,
                  "trials_passed": min(report.p1_passes, report.p2_passes),
                  "residuals": {"p2_worst": report.worst_p2_residual,
                                "p1_worst_violation": report.worst_p1_violation}}
    else:
        cert = build_qri_certificate(instance, rho, lower, upper, m_max=opts.m_max,
                                     min_width=opts.min_width)
        fields = {"m": cert.m, "eps": cert.eps, "upper_clearance": cert.upper_clearance,
                  "residuals": {"moment_match": cert.moment_match_residual}}
    margin = cert.margin
    payload = {"type": args.type, "zeta1": margin.lo, "zeta2": margin.hi,
               "eps1": margin.val_lo, "eps2": margin.val_hi,
               "delta": None, "t_unit": None, "m": None, "trials_passed": None, **fields}
    os.makedirs(cfg.out_dir, exist_ok=True)  # the directory appears only with the certificate
    _write_json(os.path.join(cfg.out_dir, "certificate.json"), payload)

    note = "(note: numerical evidence on dense samples, not an a.e. proof)"
    if args.type == "qri":
        print(f"certify: qri witness accepted at m={cert.m}, clearance {_fmt(cert.eps)}, "
              f"moment residual {_fmt(cert.moment_match_residual)} {note}")
        return EXIT_OK
    if not report.all_passed:
        print(f"certify: verification failed ({report.p1_passes}/{report.trials} P1, "
              f"{report.p2_passes}/{report.trials} P2)", file=sys.stderr)
        return EXIT_FAILED_HYPOTHESIS
    print(f"certify: core certificate verified, {report.trials}/{report.trials} "
          f"directions passed {note}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, args) -> int:
    if cfg.basis_a is None or cfg.basis_b is None:
        raise EntrominError("compare requires [basis_a] and [basis_b] sections") from None
    if cfg.basis_a.n != cfg.basis_b.n:
        raise EntrominError(
            f"compare needs equal basis sizes, got {cfg.basis_a.n} and {cfg.basis_b.n}"
        ) from None
    window = cfg.default_window()
    grid = np.linspace(*cfg.interval, cfg.sample_points)
    results, solved = {}, {}
    for label, spec in (("a", cfg.basis_a), ("b", cfg.basis_b)):
        instance, rho, solution, primal = _solve_one(cfg, spec)
        overshoot = gibbs_overshoot(primal, rho, window)
        solved[label] = solution, sample_solution(primal, grid)
        results[label] = {
            "basis": spec.kind,
            "n": spec.n,
            "residual": solution.residual_inf,
            "gap": primal.duality_gap,
            "overshoot": overshoot,
            "converged": solution.converged,
            "mu": list(solution.multipliers),
        }

    payload = {
        "basis_a": results["a"],
        "basis_b": results["b"],
        "overshoot_a": results["a"]["overshoot"],
        "overshoot_b": results["b"]["overshoot"],
        "residuals": [results["a"]["residual"], results["b"]["residual"]],
        "gaps": [results["a"]["gap"], results["b"]["gap"]],
        "window": list(window),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)  # only once both solves are tabulated
    for label, (solution, table) in solved.items():
        _write_csv(os.path.join(cfg.out_dir, f"solution_{label}.csv"), ("s", "x"), table)
        if args.trace:
            _write_trace(os.path.join(cfg.out_dir, f"trace_{label}.csv"), solution)
    _write_json(os.path.join(cfg.out_dir, "comparison.json"), payload)

    if not (results["a"]["converged"] and results["b"]["converged"]):
        print("compare: at least one solve did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"compare: overshoot_a={_fmt(results['a']['overshoot'])} "
          f"overshoot_b={_fmt(results['b']['overshoot'])} on window "
          f"[{_fmt(window[0])}, {_fmt(window[1])}]")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entromin",
        description="Entropy minimization under moment constraints: dual solve, "
                    "strong-duality certificates, and basis comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the run config (INI)")
        p.add_argument("--out", help="output directory (overrides [output] dir)")
        p.add_argument("--trace", action="store_true", help="write the iteration trace CSV")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
        p.add_argument("--quad-order", type=int, default=None,
                       help="Gauss-Legendre nodes per panel (overrides [quad] order)")
        p.add_argument("--quad-panels", type=int, default=None,
                       help="panels per smooth segment (overrides [quad] panels)")

    common(sub.add_parser("solve", help="solve one instance and write solution + summary"))
    certify = sub.add_parser("certify", help="build and verify a strong-duality certificate")
    common(certify)
    certify.add_argument("--type", choices=("core", "qri"), required=True)
    common(sub.add_parser("compare", help="solve two bases and compare overshoot"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = args.out
        if args.quad_order is not None:
            cfg.quad_order = args.quad_order
        if args.quad_panels is not None:
            cfg.quad_panels = args.quad_panels
        handler = {"solve": cmd_solve, "certify": cmd_certify, "compare": cmd_compare}
        return handler[args.command](cfg, args)
    except CertificateError as exc:
        print(f"{args.command}: failed hypothesis [{exc.hypothesis}]: {exc}", file=sys.stderr)
        return EXIT_FAILED_HYPOTHESIS
    except EntrominError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
