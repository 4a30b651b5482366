"""entromin benchmark: CLI wall time and in-process time per op.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-sweep --seed 1 --seconds 8 --trace 0

Load model: closed loop, one client, one process at a time, no thread
pool; BLAS/OpenMP pools of every child are pinned to one thread.  A run

- runs the workload's ops in-process in `worker.py`, a fixed number of
  passes set by --seconds (warm timings, output checks); with --trace 1
  each chunk of ops runs once more under tracing, and in-process
  `cli.main` calls follow (per-layer spans);
- with --trace 0, times CLI_CALLS `python -m entromin.cli` subprocesses on
  the workload's configs and checks their exit codes and artifacts against
  the in-process results and against each other;
- times fresh interpreters that only `import entromin.cli` (setup_s).

The three are interleaved in SLOTS slots (a chunk of ops, a CLI call, now
and then a setup sample), so that each metric samples the whole run: the
speed of a shared 2-core machine drifts by 10-20% over tens of seconds.

It prints a report, writes `bench/out/BENCH_<workload>_seed<seed>[_trace].json`
and ends with one JSON line: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  This file imports
no numpy, so the orchestrator's own start-up and memory stay out of the
measured children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SLOTS = workloads.CLI_CALLS   # op chunks per run; one CLI call follows each chunk
SETUP_EVERY = 4               # one setup sample per this many slots: 6 samples
RUN_DEADLINE_S = 160
CHILD_TIMEOUT_S = 30
TAIL_BEYOND = 10        # the tail percentile keeps this many samples beyond it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import entromin.cli; "
                "print(time.perf_counter() - t); print(entromin.cli.__file__)")


class BenchError(RuntimeError):
    """The benchmark could not run; no result line is printed."""


def child_env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)


def run_child(cmd, env, deadline, cwd):
    """Run one child to completion; wall time from start to exit."""
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise BenchError(f"run deadline of {RUN_DEADLINE_S} s passed")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{' '.join(cmd)} timed out after {timeout:.0f} s") from exc
    return proc, time.perf_counter() - start


def tail(values):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def median_of_medians(pairs):
    """Median over configs of each config's median time, from (config, time)
    pairs.  With few configs, each with a cluster of near-equal times, the
    median of all samples sits on the edge between two clusters and jumps
    from run to run; this one does not."""
    by_config = {}
    for key, value in pairs:
        by_config.setdefault(key, []).append(value)
    return statistics.median(statistics.median(v) for v in by_config.values())


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def write_plan(root, run_dir, workload, seed, seconds, trace):
    """INI files for every op and CLI config, and plan.json for the worker."""
    plan = workloads.plan(workload, seed)
    cfg_dir = os.path.join(run_dir, "cfg")
    os.makedirs(cfg_dir)
    inis = {}

    def ini_for(cfg):
        text = workloads.to_ini(cfg)
        if text not in inis:
            inis[text] = os.path.join(cfg_dir, f"c{len(inis):03d}.ini")
            with open(inis[text], "w", encoding="utf-8") as fh:
                fh.write(text)
        return inis[text]

    def call(args, cfg):
        args = list(args) + (["--seed", str(cfg["trial_seed"])] if args[-1] == "core" else [])
        return {"key": " ".join(args[:3]) + " " + workloads.label(cfg), "args": args,
                "ini": ini_for(cfg), "cfg": cfg}

    cli = [call(args, cfg) for args, cfg in plan["cli"]]
    distinct = list({c["key"]: c for c in cli}.values())
    readme = workloads.config()
    probes = [call(("compare",), workloads.config(compare=True)),
              call(("certify", "--type", "core"), readme),
              call(("certify", "--type", "qri"), workloads.config(basis=("monomial", 4)))]
    # traced run: the workload's own CLI configs twice (artifact check), plus
    # probes so every layer is timed in every workload
    main_calls = distinct * 2 + [p for p in probes if p["key"] not in {c["key"] for c in distinct}]
    doc = {
        "root": root, "kind": plan["kind"], "trace": bool(trace),
        "passes": workloads.passes_for(workload, seconds),
        "ops": [{"label": workloads.label(c), "ini": ini_for(c), "cfg": c} for c in plan["ops"]],
        "cli": cli, "cli_configs": distinct, "main_calls": main_calls,
        "readme_ini": ini_for(readme),
    }
    with open(os.path.join(run_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def setup_sample(root, env, deadline):
    """One fresh interpreter importing entromin.cli: (wall time, in-child import time)."""
    proc, wall = run_child([sys.executable, "-c", IMPORT_PROBE], env, deadline, root)
    if proc.returncode != 0:
        raise BenchError(f"cannot import entromin from {root}/src:\n{proc.stderr.strip()}")
    import_s, path = proc.stdout.split()
    if not os.path.abspath(path).startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"entromin.cli resolved to {path}, outside {root}/src")
    return wall, float(import_s)


class Worker:
    """The in-process worker, driven one JSON command line at a time."""

    def __init__(self, root, env, run_dir, deadline):
        self.deadline = deadline
        self.stderr = open(os.path.join(run_dir, "worker.stderr"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), run_dir], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.stderr_path = self.stderr.name
        self._read()

    def _read(self):
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stderr.flush()
            with open(self.stderr_path, encoding="utf-8") as fh:
                detail = fh.read().strip()[-2000:]
            raise BenchError(f"worker stopped answering (exit {self.proc.poll()}):\n{detail}")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()


def read_artifacts(out_dir):
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            found[name] = fh.read()
    return found


def cli_values(args, files):
    """The fields of a CLI artifact that the in-process run also reports."""
    def load(name):
        return json.loads(files[name]) if name in files else None
    if args[0] == "solve":
        s = load("summary.json")
        return s and {k: s[k] for k in ("iterations", "converged", "residual_inf", "duality_gap")}
    if args[0] == "compare":
        c = load("comparison.json")
        return c and {lab: {"converged": c[f"basis_{lab}"]["converged"],
                            "residual_inf": c[f"basis_{lab}"]["residual"],
                            "duality_gap": c[f"basis_{lab}"]["gap"],
                            "overshoot": c[f"basis_{lab}"]["overshoot"]} for lab in "ab"}
    c = load("certificate.json")
    if c is None:
        return None
    if "core" in args:
        return {"delta": c["delta"], "t_unit": c["t_unit"], "trials": c["trials"],
                "trials_passed": c["trials_passed"]}
    return {"m": c["m"], "eps": c["eps"], "moment_match_residual": c["residuals"]["moment_match"]}


def expected_subset(expected_values, got):
    """Project the in-process values onto the fields the CLI wrote."""
    if got is None or expected_values is None:
        return expected_values
    if all(isinstance(v, dict) for v in got.values()):
        return {k: {f: expected_values.get(k, {}).get(f) for f in got[k]} for k in got}
    return {f: expected_values.get(f) for f in got}


def cli_call(root, env, deadline, out_dir, call):
    """One timed `python -m entromin.cli` subprocess and what it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, "-m", "entromin.cli", *call["args"],
           "--config", call["ini"], "--out", out_dir]
    proc, wall = run_child(cmd, env, deadline, root)
    files = read_artifacts(out_dir) if os.path.isdir(out_dir) else {}
    return {"wall": wall, "exit": proc.returncode, "stderr": proc.stderr, "files": files}


def check_cli(calls, results, expected):
    """Check each CLI call against the in-process run of its config and
    against the other runs of the same config.

    Returns failures (one per failed call), integrity problems and the
    artifact digests per config.
    """
    failures, integrity, digests = [], [], {}
    for call, res in zip(calls, results):
        sha = {name: hashlib.sha256(data).hexdigest() for name, data in res["files"].items()}
        key, exp = call["key"], expected[call["key"]]
        problems = []
        if digests.setdefault(key, sha) != sha:
            problems.append("artifacts differ between two runs")
        if res["exit"] != exp["exit"]:
            problems.append(f"exit {res['exit']}, in-process run says {exp['exit']}")
        got = cli_values(call["args"], res["files"])
        if got is not None and got != expected_subset(exp["values"], got):
            problems.append(f"artifact values {got} differ from in-process "
                            f"{expected_subset(exp['values'], got)}")
        hypothesis = exp["failure"].partition("failed hypothesis ")[2]
        if hypothesis and hypothesis not in res["stderr"]:
            problems.append(f"stderr does not name {hypothesis}")
        integrity += [f"CLI {key}: {msg}" for msg in problems]
        if res["exit"] != 0 or exp["failure"] or problems:
            reason = "; ".join(problems) or exp["failure"] or res["stderr"].strip()[-200:]
            failures.append(("cli", key, res["exit"], reason))
    return failures, integrity, digests


def summarize_failures(failures):
    counts = {}
    for entry in failures:
        counts[entry] = counts.get(entry, 0) + 1
    return [{"where": w, "config": c, "exit": e, "reason": r, "count": n}
            for (w, c, e, r), n in sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entromin", "__init__.py")):
        raise BenchError(f"no entromin sources under {root}/src; run from a checkout root")
    env = child_env(root)
    tag = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    run_dir = os.path.join(HERE, "out", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    plan = write_plan(root, run_dir, args.workload, args.seed, args.seconds, args.trace)

    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_sample(root, env, deadline)  # fills the bytecode cache and checks where entromin loads from
    setup_walls, import_times, cli_results = [], [], []
    total_ops = plan["passes"] * len(plan["ops"])
    worker = Worker(root, env, run_dir, deadline)
    try:
        for i in range(SLOTS):
            worker.ask({"cmd": "ops", "start": total_ops * i // SLOTS,
                        "stop": total_ops * (i + 1) // SLOTS})
            if not args.trace:
                cli_results.append(cli_call(root, env, deadline,
                                            os.path.join(run_dir, "cli_out"), plan["cli"][i]))
            if i % SETUP_EVERY == SETUP_EVERY // 2:
                wall, import_s = setup_sample(root, env, deadline)
                setup_walls.append(wall)
                import_times.append(import_s)
        worker.ask({"cmd": "finish"})
    finally:
        worker.close()
    with open(os.path.join(run_dir, "worker.json"), encoding="utf-8") as fh:
        work = json.load(fh)

    failures = [("in-process", op["label"], op["exit"], op["failure"])
                for op in work["ops"] for _ in range(op["runs"]) if op["failure"]]
    attempted = sum(op["runs"] for op in work["ops"]) + len(cli_results)
    cli_failures, cli_integrity, digests = check_cli(plan["cli"], cli_results,
                                                     work["expected_cli"])
    failures += cli_failures
    integrity = work["integrity"] + cli_integrity
    failed = len(failures)
    cli_walls = [res["wall"] for res in cli_results]

    units = {}
    if args.trace:
        metrics = dict(work["trace"]["metrics"])
        metrics["import.entromin_s"] = statistics.median(import_times)
        metrics["trace.ops_per_s"] = work["trace"]["traced_ops_per_s"]
        metrics["trace.overhead_share"] = 1.0 - work["trace"]["traced_ops_per_s"] / work["ops_per_s"]
        for name in metrics:
            units[name] = ("1/s" if name.endswith("ops_per_s") else "s" if name.endswith("_s")
                           else "bytes" if name.endswith("_bytes")
                           else "ratio" if name.endswith(("_ratio", "_share")) else "count")
    else:
        cli_tail, cli_pct = tail(cli_walls)
        op_tail, op_pct = tail(work["op_times"])
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "cli_p50_s": median_of_medians(zip((c["key"] for c in plan["cli"]), cli_walls)),
            "cli_tail_s": cli_tail,
            "op_p50_s": median_of_medians((op["label"], t) for op in work["ops"] for t in op["times"]),
            "op_tail_s": op_tail,
            "ops_per_s": work["ops_per_s"],
            "peak_rss_mb": work["peak_rss_mb"],
        }
        units = {"setup_s": "s", "cli_p50_s": "s", "cli_tail_s": "s", "op_p50_s": "s",
                 "op_tail_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

    unreached = sorted(name for name, value in metrics.items() if not math.isfinite(value))
    if unreached:
        raise BenchError(f"no measurement for {', '.join(unreached)}: a layer was never reached")
    samples = {"setup_s": len(setup_walls), "cli": len(cli_walls), "op": len(work["op_times"])}
    record = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(), "platform": platform.platform()},
        "versions": work["versions"], "blas_threads": THREAD_ENV,
        "load_model": "closed loop, 1 client, 1 process, sequential, no thread pool",
        "passes": work["passes"], "samples": samples,
        "raw_samples_s": {"setup": setup_walls, "cli": cli_walls},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "tail_percentiles": None if args.trace else {"cli_tail_s": cli_pct, "op_tail_s": op_pct},
        "failed_share": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": summarize_failures(failures),
        "integrity": integrity,
        "ops": [{"config": op["label"], **{k: op["values"].get(k) for k in
                 ("n", "nodes", "iterations", "m")}, "exit": op["exit"], "failure": op["failure"],
                 "median_s": statistics.median(op["times"]), "runs": op["runs"]}
                for op in work["ops"]],
        "cli_artifact_sha256": digests,
    }
    if args.trace:
        record["layers_self_time"] = work["trace"]["layers"]
        record["computed_not_measured"] = ["dual.design_bytes", "certificates.verify_design_bytes"]
        record["spans_file"] = os.path.relpath(os.path.join(run_dir, "spans.jsonl"), root)
    result_path = os.path.join(HERE, "out", f"BENCH_{tag}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"entromin benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={work['passes']}  ({record['machine']['cpu']}, "
          f"nproc={record['machine']['nproc']}, BLAS threads 1)")
    for name, value in metrics.items():
        note = ""
        if name in ("cli_tail_s", "op_tail_s"):
            note = f"  p{record['tail_percentiles'][name]:.1f} of {samples[name.split('_')[0]]} samples"
        elif name == "cli_p50_s":
            note = f"  median of {len(digests)} configs' medians, {samples['cli']} samples"
        elif name == "op_p50_s":
            note = f"  median of {len(work['ops'])} configs' medians, {samples['op']} samples"
        elif name == "setup_s":
            note = f"  median of {samples['setup_s']} fresh interpreters"
        elif name in record.get("computed_not_measured", ()):
            note = "  (computed from shapes, not measured)"
        print(f"  {name:44s} {value:14.6g} {units[name]}{note}")
    print(f"  {'failed_share':44s} {failed / attempted:14.6g} ratio  {failed} failed of {attempted}")
    for f in record["failures"]:
        print(f"    {f['count']:4d} x {f['where']:10s} exit {f['exit']}  {f['config']}: {f['reason']}")
    for msg in integrity:
        print(f"  INTEGRITY: {msg}")
    if args.trace:
        print("  self time per layer (s): " + ", ".join(
            f"{k}={v['self_s']:.4f}" for k, v in sorted(work["trace"]["layers"].items())))
    print(f"  result file: {os.path.relpath(result_path, root)}")
    print(json.dumps({"correct": not integrity, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
