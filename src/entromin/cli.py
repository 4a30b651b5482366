"""Command-line front end: solve, certify, and compare pipelines.

Every run is driven by a config file (see the README for the schema); only
`--out` and `--seed` override its `output.dir` and `certify.seed`.  Outputs
are CSV and JSON only, written with 17 significant digits, LF line endings,
and sorted JSON keys, so two runs with identical inputs produce
byte-identical artifacts.  Plotting is intentionally left to the user's
tool of choice.

Exit codes: 0 success, 1 configuration error (a usage error too), 2 solver
did not converge, 3 a certificate hypothesis failed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .certificates import build_core_certificate, build_qri_certificate, verify_core_certificate
from .config import RunConfig, build_problem, load_config
from .dual import solve_dual
from .errors import CertificateError, DomainViolationError, EntrominError, ValidationError
from .primal import gibbs_overshoot, reconstruct, sample_solution

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_FAILED_HYPOTHESIS = 3


_FLOAT = "%.17g"  # 17 significant digits (full double precision); nan, inf, -inf


def _fmt(value) -> str:
    return _FLOAT % float(value)


def _json_dumps(obj, indent=0) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, LF endings (no
    artifact holds an empty object or list, so none is written as one)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        items = (f'{inner}"{key}": {_json_dumps(obj[key], indent + 1)}'
                 for key in sorted(obj))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = (f"{inner}{_json_dumps(v, indent + 1)}" for v in obj)
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
    """The header, then each row as `_fmt` writes values, in one formatting pass."""
    values = tuple(np.asarray(rows, dtype=float).ravel().tolist())
    line = ",".join([_FLOAT] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + (line * (len(values) // len(header))) % values)


def _write_trace(path, solution) -> None:
    _write_csv(path, ("iter", "residual_inf", "step", "dual_value"),
               [(r.iteration, r.residual_inf, r.step, r.dual_value) for r in solution.trace])


def _solve(cfg: RunConfig, instance, *measures):
    """Solve and reconstruct, then apply each measure to the primal solution,
    in order.  A measure whose x leaves the conjugate domain re-raises for a
    converged solve; for one that did not converge it gives None, and the
    run reports the solve without it."""
    solution = solve_dual(instance, phi0=cfg.phi0, tol=cfg.tol, max_iter=cfg.max_iter)
    primal = reconstruct(instance, solution.multipliers)
    measured = []
    for measure in measures:
        try:
            measured.append(measure(primal))
        except DomainViolationError:
            if solution.converged:
                raise
            measured.append(None)
    return (solution, primal, *measured)


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
        raise ValidationError("solve requires a [basis] section")
    solution, primal, table = _solve(
        cfg, build_problem(cfg, cfg.basis)[0],
        lambda primal: sample_solution(primal, np.linspace(*cfg.interval, cfg.sample_points)))
    os.makedirs(cfg.out_dir, exist_ok=True)  # only after tabulating, which may raise
    if table is not None:
        _write_csv(os.path.join(cfg.out_dir, "solution.csv"), ("s", "x"), table)
    _write_json(os.path.join(cfg.out_dir, "summary.json"), _summary(solution, primal))
    _write_trace(os.path.join(cfg.out_dir, "trace.csv"), solution)
    if not solution.converged:
        print(f"solve: not converged: {solution.message}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"solve: converged in {solution.iterations} iterations, "
          f"residual {_fmt(solution.residual_inf)}, duality gap {_fmt(primal.duality_gap)}")
    return EXIT_OK


def cmd_certify(cfg: RunConfig, args) -> int:
    if cfg.basis is None:
        raise ValidationError("certify requires a [basis] section")
    instance, rho = build_problem(cfg, cfg.basis)
    opts = cfg.certify
    lower, upper = opts.band_for(instance.entropy)
    if args.type == "core":
        cert = build_core_certificate(instance, rho, lower, upper, min_width=opts.min_width)
        report = verify_core_certificate(instance, rho, cert, trials=opts.trials, seed=opts.seed)
        fields = {"delta": cert.delta, "t_unit": cert.t_unit, "trials": report.trials,
                  "trials_passed": min(report.p1_passes, report.p2_passes),
                  "residuals": {"p2_worst": report.worst_p2_residual,
                                "p1_worst_violation": report.worst_p1_violation,
                                "orthogonality": report.orthogonality,
                                "target": report.target}}
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
        failed = f"; failed: {', '.join(report.failures)}" if report.failures else ""
        print(f"certify: verification failed ({report.p1_passes}/{report.trials} P1, "
              f"{report.p2_passes}/{report.trials} P2{failed})", file=sys.stderr)
        return EXIT_FAILED_HYPOTHESIS
    print(f"certify: core certificate verified, {report.trials}/{report.trials} "
          f"directions passed {note}")
    return EXIT_OK


def cmd_compare(cfg: RunConfig, args) -> int:
    if cfg.basis_a is None or cfg.basis_b is None:
        raise ValidationError("compare requires [basis_a] and [basis_b] sections")
    if cfg.basis_a.n != cfg.basis_b.n:
        raise ValidationError(
            f"compare needs equal basis sizes, got {cfg.basis_a.n} and {cfg.basis_b.n}"
        )
    window = cfg.default_window()
    grid = np.linspace(*cfg.interval, cfg.sample_points)
    problems = {label: (spec, *build_problem(cfg, spec))  # both built before either solves
                for label, spec in (("a", cfg.basis_a), ("b", cfg.basis_b))}
    results, solved = {}, {}
    for label, (spec, instance, rho) in problems.items():
        solution, primal, overshoot, table = _solve(
            cfg, instance, lambda primal: gibbs_overshoot(primal, rho, window),
            lambda primal: sample_solution(primal, grid))
        solved[label] = solution, table
        results[label] = {
            "basis": spec.kind,
            "n": spec.n,
            "residual": solution.residual_inf,
            "gap": primal.duality_gap,
            "overshoot": math.nan if overshoot is None else overshoot,
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
    os.makedirs(cfg.out_dir, exist_ok=True)  # only once both solves are measured
    for label, (solution, table) in solved.items():
        if table is not None:
            _write_csv(os.path.join(cfg.out_dir, f"solution_{label}.csv"), ("s", "x"), table)
        _write_trace(os.path.join(cfg.out_dir, f"trace_{label}.csv"), solution)
    _write_json(os.path.join(cfg.out_dir, "comparison.json"), payload)

    unconverged = [f"compare: basis {label} not converged: {solution.message}"
                   for label, (solution, _) in solved.items() if not solution.converged]
    if unconverged:
        print("\n".join(unconverged), file=sys.stderr)
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

    solve = sub.add_parser("solve", help="solve one instance and write solution + summary")
    certify = sub.add_parser("certify", help="build and verify a strong-duality certificate")
    compare = sub.add_parser("compare", help="solve two bases and compare overshoot")
    for p in (solve, certify, compare):
        p.add_argument("--config", required=True, help="path to the run config (INI)")
        p.add_argument("--out", help="output directory (overrides [output] dir)")
    certify.add_argument("--type", choices=("core", "qri"), required=True)
    certify.add_argument("--seed", type=int, default=None, help="certify.seed (>= 0), checked; drives nothing")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        # each flag meets its INI key's check before any rule is built; --seed is certify's
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, certify=replace(cfg.certify, seed=args.seed))
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        handler = {"solve": cmd_solve, "certify": cmd_certify, "compare": cmd_compare}
        return handler[args.command](cfg, args)
    except CertificateError as exc:
        print(f"{args.command}: failed hypothesis [{exc.hypothesis}]: {exc}", file=sys.stderr)
        return EXIT_FAILED_HYPOTHESIS
    except (EntrominError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
