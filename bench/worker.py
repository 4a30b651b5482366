"""In-process half of the benchmark: warm op timings, output checks, spans.

Started by `run.py` as `python3 bench/worker.py <run dir>` in a fresh
interpreter whose BLAS/OpenMP pools are pinned to one thread.  It reads
`plan.json` from the run directory, imports entromin from the checkout's
`src/` and answers one JSON line per command on stdin:
{"cmd": "ops", "start": i, "stop": j} runs ops i..j-1 of the cycle over
the workload's ops; {"cmd": "finish"} checks, writes `worker.json` (and,
when traced, `spans.jsonl`) next to the plan and exits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

from tracing import Tracer

GAP_TOL = 1e-8              # |duality gap| of a converged solve
QRI_RESIDUAL_TOL = 1e-8     # moment-match residual of a qri witness

EXIT_OK, EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_FAILED_HYPOTHESIS = 0, 1, 2, 3


def import_entromin(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import entromin
    from entromin import certificates, cli, config, dual, errors, primal  # noqa: F401
    if not os.path.abspath(entromin.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"entromin imported from {entromin.__file__}, not from {src}")
    return entromin


class Ops:
    """The three op kinds.  Layer functions are looked up on their modules
    at call time, so the tracer's wrappers are the ones called."""

    def __init__(self, em):
        self.em = em

    def outcome(self, fn, *args):
        """(exit code, reason, values, solver state), exceptions mapped to
        exit codes as the CLI maps them."""
        errors = self.em.errors
        try:
            return fn(*args)
        except errors.CertificateError as exc:
            return (EXIT_FAILED_HYPOTHESIS,
                    f"failed hypothesis [{exc.hypothesis}]: {str(exc).split(' (')[0]}", {}, None)
        except errors.EntrominError as exc:
            return EXIT_CONFIG, f"{type(exc).__name__}: {exc}", {}, None
        except Exception as exc:  # a crash is a counted failure, not a benchmark abort
            return None, f"raised {type(exc).__name__}: {exc}", {}, None

    def solve_one(self, cfg, spec):
        em = self.em
        instance, rho = em.config.build_problem(cfg, spec)
        sol = em.dual.solve_dual(instance, phi0=cfg.phi0, tol=cfg.tol, max_iter=cfg.max_iter)
        primal = em.primal.reconstruct(instance, sol.multipliers)
        overshoot = em.primal.gibbs_overshoot(primal, rho, cfg.default_window())
        # the CLI tabulates every solution on its output grid; a dual field that
        # leaves the conjugate domain between quadrature nodes fails only here
        em.primal.sample_solution(primal, np.linspace(*cfg.interval, cfg.sample_points))
        values = {"iterations": sol.iterations, "converged": bool(sol.converged),
                  "residual_inf": sol.residual_inf, "duality_gap": primal.duality_gap,
                  "overshoot": overshoot, "nodes": int(instance.rule.nodes.size),
                  "n": instance.n, "tol": cfg.tol}
        return values, (instance, sol.multipliers)

    def solve(self, cfg, _problem):
        values, state = self.solve_one(cfg, cfg.basis)
        if values["converged"]:
            return EXIT_OK, "", values, state
        return EXIT_NO_CONVERGENCE, f"not converged after {values['iterations']} iterations " \
            f"(residual {values['residual_inf']:.3e})", values, state

    def compare(self, cfg):
        values = {label: self.solve_one(cfg, spec)[0]
                  for label, spec in (("a", cfg.basis_a), ("b", cfg.basis_b))}
        if values["a"]["converged"] and values["b"]["converged"]:
            return EXIT_OK, "", values, None
        return EXIT_NO_CONVERGENCE, "at least one solve did not converge", values, None

    def core(self, cfg, problem):
        instance, rho = problem
        lower, upper = cfg.certify.band_for(instance.entropy)
        cert = self.em.certificates.build_core_certificate(
            instance, rho, lower, upper, min_width=cfg.certify.min_width)
        report = self.em.certificates.verify_core_certificate(
            instance, rho, cert, trials=cfg.certify.trials, seed=cfg.certify.seed)
        values = {"delta": cert.delta, "t_unit": cert.t_unit, "trials": report.trials,
                  "trials_passed": min(report.p1_passes, report.p2_passes),
                  "all_passed": bool(report.all_passed), "nodes": int(instance.rule.nodes.size),
                  "n": instance.n}
        if report.all_passed:
            return EXIT_OK, "", values, None
        return EXIT_FAILED_HYPOTHESIS, f"core verification failed ({values['trials_passed']}/" \
            f"{report.trials} trials)", values, None

    def qri(self, cfg, problem):
        instance, rho = problem
        lower, upper = cfg.certify.band_for(instance.entropy)
        cert = self.em.certificates.build_qri_certificate(
            instance, rho, lower, upper, m_max=cfg.certify.m_max, min_width=cfg.certify.min_width)
        values = {"m": cert.m, "eps": cert.eps, "moment_match_residual": cert.moment_match_residual,
                  "upper_clearance": cert.upper_clearance,
                  "nodes": int(instance.rule.nodes.size), "n": instance.n}
        return EXIT_OK, "", values, None

    def run(self, kind, cfg, problem):
        """One op; returns (exit, reason, values, solver state)."""
        return self.outcome(getattr(self, kind), cfg, problem)


def check(kind, exit_code, values) -> str:
    """The output check of one finished op; '' when it passes."""
    if kind == "solve" and values.get("converged"):
        if not values["residual_inf"] <= values["tol"]:
            return f"residual audit: {values['residual_inf']:.3e} > tol {values['tol']:.0e}"
        if not abs(values["duality_gap"]) <= GAP_TOL:
            return f"gap audit: |duality_gap| = {abs(values['duality_gap']):.3e} > {GAP_TOL:.0e}"
    if kind == "core" and exit_code == EXIT_OK and not values["all_passed"]:
        return "core verification reported success without all trials passing"
    if kind == "qri" and exit_code == EXIT_OK:
        if not values["eps"] > 0:
            return f"qri clearance eps = {values['eps']:.3e} is not positive"
        if not values["moment_match_residual"] <= QRI_RESIDUAL_TOL:
            return f"qri moment residual {values['moment_match_residual']:.3e} > {QRI_RESIDUAL_TOL:.0e}"
    return ""


class Passes:
    """Passes over a workload's ops, run in chunks.  Every run of an op,
    traced or not, must reproduce the outcome of its first run exactly."""

    def __init__(self, ops, kind, n_items, keep_state):
        self.ops, self.kind, self.keep_state = ops, kind, keep_state
        self.records = [None] * n_items
        self.integrity = []

    def run(self, items, times, start, stop, tracer=None) -> float:
        """Ops start..stop-1 of the endless cycle over `items`; appends each
        op's time to `times` and returns the wall time of the chunk."""
        begin = time.perf_counter()
        for j in range(start, stop):
            i = j % len(items)
            item, cfg, problem = items[i]
            if tracer is not None:
                tracer.op_id = len(times)
            t0 = time.perf_counter()
            exit_code, reason, values, state = self.ops.run(self.kind, cfg, problem)
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            rec = self.records[i]
            if rec is None:
                self.records[i] = rec = {
                    "label": item["label"], "exit": exit_code, "values": values, "runs": 0,
                    "failure": reason or check(self.kind, exit_code, values), "times": [],
                    "state": None}
            elif (rec["exit"], rec["values"]) != (exit_code, values):
                self.integrity.append(f"{item['label']}: outcome changed between passes")
            rec["runs"] += 1
            if self.keep_state:  # solved instances, for the oracle timings of a traced run
                rec["state"] = state
            if tracer is None:
                rec["times"].append(elapsed)
        return time.perf_counter() - begin


def oracle_timings(em, states, repeats=3) -> tuple:
    """Per solved instance: one dual oracle evaluation (value, gradient,
    Hessian) and one conjugate sweep (f*, f*', f*'') at the returned
    multipliers; the best of `repeats` of each, medians over instances."""
    oracle, sweep = [], []
    for instance, mu in states:
        try:
            best_o = best_s = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                em.dual.dual_value(instance, mu)
                em.dual.dual_gradient(instance, mu)
                em.dual.dual_hessian(instance, mu)
                t1 = time.perf_counter()
                v = instance.design.T @ mu
                entropy = instance.entropy
                entropy.f_star(v)
                entropy.f_star_d1(v)
                entropy.f_star_d2(v)
                t2 = time.perf_counter()
                best_o, best_s = min(best_o, t1 - t0), min(best_s, t2 - t1)
        except em.errors.EntrominError:
            continue  # the returned multipliers can sit where an oracle part is non-finite
        oracle.append(best_o)
        sweep.append(best_s)
    return float(np.median(oracle)), float(np.median(sweep))


def run_main(em, args, out_dir) -> dict:
    """cli.main in-process, output silenced; exit code, artifact bytes and digests."""
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = em.cli.main([*args, "--out", out_dir])
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return {"exit": code, "bytes": size, "sha256": digests}


def median_of(values):
    return float(np.median(values)) if len(values) else float("nan")


def layer_metrics(tracer, main_results, oracle_s, sweep_s) -> dict:
    spans = tracer.by_name
    selfs = tracer.self_times()

    def med(name):
        return median_of([s[3] - s[2] for s in spans(name)])

    solves = [s for s in spans("dual.solve_dual") if "iterations" in s[6]]
    verifies = spans("certificates.verify_core_certificate")
    qris = spans("certificates.build_qri_certificate")
    metrics = {
        "config.load_config_s": med("config.load_config"),
        "config.build_problem_s": med("config.build_problem"),
        "cli.main_s": med("cli.main"),
        "quadrature.build_rule_s": med("quadrature.build_rule"),
        "quadrature.nodes": median_of([s[6]["nodes"] for s in spans("moments.instance_from_density")
                                       if "nodes" in s[6]]),
        "moments.instance_from_density_s": med("moments.instance_from_density"),
        "moments.linearly_independent_on_s": med("moments.linearly_independent_on"),
        "dual.solve_dual_s": med("dual.solve_dual"),
        "dual.newton_iterations": median_of([s[6]["iterations"] for s in solves]),
        "dual.iteration_s": median_of([(s[3] - s[2]) / max(s[6]["iterations"], 1) for s in solves]),
        "dual.oracle_s": oracle_s,
        "dual.converged_ratio": sum(s[6]["converged"] for s in solves) / max(len(solves), 1),
        "dual.design_bytes": median_of([s[6]["design_bytes"] for s in solves]),
        "entropies.conjugate_sweep_s": sweep_s,
        "primal.reconstruct_s": med("primal.reconstruct"),
        "primal.gibbs_overshoot_s": med("primal.gibbs_overshoot"),
        "primal.sample_solution_s": med("primal.sample_solution"),
        "certificates.find_margin_interval_s": med("certificates.find_margin_interval"),
        "certificates.build_direction_functions_s": med("certificates.build_direction_functions"),
        "certificates.build_core_certificate_s": med("certificates.build_core_certificate"),
        "certificates.verify_core_certificate_s": med("certificates.verify_core_certificate"),
        "certificates.verify_trial_s": median_of([(s[3] - s[2]) / s[6]["trials"] for s in verifies]),
        "certificates.verify_design_bytes": median_of([s[6]["design_bytes"] for s in verifies]),
        "certificates.build_qri_certificate_s": med("certificates.build_qri_certificate"),
        "certificates.qri_levels": median_of([s[6]["levels"] for s in qris]),
        "certificates.qri_level_s": median_of([selfs[s[0]] / s[6]["levels"] for s in qris]),
        "certificates.qri_accept_ratio": sum(s[6]["accepted"] for s in qris) / max(len(qris), 1),
        "cli.artifact_bytes": median_of([m["bytes"] for m in main_results]),
    }
    return metrics


def reply(message) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(argv):
    run_dir = argv[0]
    with open(os.path.join(run_dir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    em = import_entromin(plan["root"])
    ops = Ops(em)
    kind = plan["kind"]

    def load(items):
        """Configs, and for certificate ops the problem built once per config."""
        loaded = []
        for item in items:
            cfg = em.config.load_config(item["ini"])
            problem = em.config.build_problem(cfg, cfg.basis) if kind != "solve" else None
            loaded.append((item, cfg, problem))
        return loaded

    # warm-up: a few untimed ops, so first-call costs stay out of the timings
    items = load(plan["ops"])
    for _, cfg, problem in items[:3]:
        ops.run(kind, cfg, problem)

    result = {"entromin_file": em.__file__, "passes": plan["passes"], "n_ops": len(items),
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__}}
    passes = Passes(ops, kind, len(items), keep_state=plan["trace"])
    times, wall = [], 0.0
    traced = ttimes = None
    if plan["trace"]:
        traced, ttimes, twall = Tracer(), [], 0.0
        with traced.installed():
            traced.op_id = "load"
            titems = load(plan["ops"])
    reply({"ready": True})
    # the orchestrator interleaves op chunks with CLI calls and setup samples,
    # so every metric samples the same stretch of the machine's time
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "finish":
            break
        wall += passes.run(items, times, command["start"], command["stop"])
        if traced is not None:  # untraced and traced chunks alternate
            with traced.installed():
                twall += passes.run(titems, ttimes, command["start"], command["stop"], traced)
        reply({"done": command["stop"]})
    result.update(op_times=times, wall_s=wall, ops_per_s=len(times) / wall)

    # expected outcome of every CLI config, computed in-process through the library
    expected = {}
    for item in plan["cli_configs"]:
        cfg = em.config.load_config(item["ini"])
        if item["args"][0] == "compare":
            exit_code, reason, values, _ = ops.outcome(ops.compare, cfg)
            failure = reason or "; ".join(filter(None, (check("solve", 0, v)
                                                         for v in values.values())))
        else:
            sub_kind = "solve" if item["args"][0] == "solve" else item["args"][2]
            problem = em.config.build_problem(cfg, cfg.basis) if sub_kind != "solve" else None
            exit_code, reason, values, _ = ops.run(sub_kind, cfg, problem)
            failure = reason or check(sub_kind, exit_code, values)
        expected[item["key"]] = {"exit": exit_code, "failure": failure, "values": values}
    result["expected_cli"] = expected
    integrity = passes.integrity

    if traced is not None:
        main_results, main_check = [], {}
        with traced.installed():
            for item in plan["main_calls"]:
                traced.op_id = f"main:{item['key']}"
                res = run_main(em, item["args"] + ["--config", item["ini"]],
                               os.path.join(run_dir, "main_out"))
                main_results.append(res)
                prev = main_check.setdefault(item["key"], res)
                if prev is not res and prev["sha256"] != res["sha256"]:
                    integrity.append(f"in-process main {item['key']}: artifacts differ between runs")
                exp = expected.get(item["key"])
                if exp is not None and exp["exit"] != res["exit"]:
                    integrity.append(f"in-process main {item['key']}: exit {res['exit']}, "
                                     f"library run says {exp['exit']}")
        states = [r["state"] for r in passes.records if r["state"] is not None]
        if not states:  # certificate workloads: time the oracle on the README solve
            cfg = em.config.load_config(plan["readme_ini"])
            states = [ops.solve(cfg, None)[3]]
        oracle_s, sweep_s = oracle_timings(em, states)
        traced.write(os.path.join(run_dir, "spans.jsonl"))
        result["trace"] = {
            "metrics": layer_metrics(traced, main_results, oracle_s, sweep_s),
            "layers": traced.layer_table(),
            "traced_ops_per_s": len(ttimes) / twall,
            "spans": sum(s is not None for s in traced.spans),
        }

    result["ops"] = [{k: v for k, v in rec.items() if k != "state"} for rec in passes.records]
    result["integrity"] = integrity
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(run_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    reply({"finished": True})


if __name__ == "__main__":
    main(sys.argv[1:])
