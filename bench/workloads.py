"""Workload definitions: the configs each workload runs, made from a seed.

Stdlib only, so the orchestrator (`run.py`) can build the plan without
importing numpy.  A config is a plain dict that renders to the INI text
the CLI reads; the in-process worker loads the very same INI files through
`entromin.config.load_config`, so both paths see identical inputs.

The seed decides the order of the in-process ops, the subset of the
solve grid that also runs through the CLI, and the seeds of the core
verification trials.  It never resizes a config or drops one.
"""

from __future__ import annotations

import itertools
import random

ENTROPIES = ("boltzmann_shannon", "burg", "cosh", "fermi_dirac", "l2_norm",
             "translated_boltzmann_shannon")
README_ENTROPY = "translated_boltzmann_shannon"
NODES_PER_PANEL = 20
CLI_CALLS = 24            # per run; the CLI tail is then p58.3, 10 samples beyond it

# Whole passes over a workload's ops per second of --seconds.  Fixing the op
# count by the run length (not by the clock) keeps the sample count, and so
# the reported tail percentile, identical on every commit measured with the
# same --seconds.  A pass took ~2 s / ~2 s / ~0.7 s on a 2-vCPU Xeon VM at
# the commit that introduced the benchmark.  The certificate workloads run
# more passes (6 and 18 at --seconds 8): a few configs give each op time a
# cluster of samples, and the tail (10 samples beyond) must fall inside the
# slowest clusters, not on an edge between two, where it jumps between runs.
PASSES_PER_SECOND = {"solve-sweep": 0.5, "certify-core": 0.75, "certify-qri": 2.25}

WORKLOADS = {
    "solve-sweep": "dual, moments and primal layers on a grid of 288 solves, "
                   "1 to 100 Newton iterations; certificates never run",
    "certify-core": "core certificate build plus 100-trial verification; "
                    "solve_dual never runs",
    "certify-qri": "qri clip-and-correct scan over m; bypasses solve_dual "
                   "and core verification",
}


def config(entropy=README_ENTROPY, basis=("piecewise_flat", 6), rho="pulse",
           nodes=320, band=None, compare=False, trial_seed=0):
    """One run config.  `basis` is (kind, n); piecewise_flat splits at 0.5.

    `nodes` is the total quadrature node count; panels per segment are set
    so the composite rule has exactly that many nodes.
    """
    kind, n = basis
    breakpoints = {0.5} if (rho == "pulse" or kind == "piecewise_flat") else set()
    segments = len(breakpoints) + 1
    panels, rest = divmod(nodes, NODES_PER_PANEL * segments)
    if rest or panels < 1:
        raise ValueError(f"{nodes} nodes do not split into {segments} segments "
                         f"of {NODES_PER_PANEL}-node panels")
    return {"entropy": entropy, "basis": (kind, n), "rho": rho, "nodes": nodes,
            "panels": panels, "band": band, "compare": compare,
            "trial_seed": trial_seed}


def label(cfg) -> str:
    kind, n = cfg["basis"]
    text = f"{cfg['entropy']}/{'compare' if cfg['compare'] else kind}/n={n}/{cfg['rho']}/{cfg['nodes']}"
    if cfg["band"] is not None:
        text += f"/band={cfg['band'][0]:g},{cfg['band'][1]:g}"
    return text


def _basis_section(name, kind, n) -> str:
    text = f"[{name}]\nkind = {kind}\nn = {n}\n"
    return text + ("split = 0.5\n" if kind == "piecewise_flat" else "")


def to_ini(cfg) -> str:
    kind, n = cfg["basis"]
    parts = [f"[problem]\nentropy = {cfg['entropy']}\ninterval = 0 1\n"]
    if cfg["compare"]:
        parts.append(_basis_section("basis_a", "monomial", n))
        parts.append(_basis_section("basis_b", "piecewise_flat", n))
    else:
        parts.append(_basis_section("basis", kind, n))
    parts.append(f"[rho]\nkind = {cfg['rho']}\nsplit = 0.5\nc = 0.5\n")
    parts.append(f"[quad]\norder = {NODES_PER_PANEL}\npanels = {cfg['panels']}\n")
    certify = f"[certify]\ntrials = 100\nseed = {cfg['trial_seed']}\nm_max = 4000\n"
    if cfg["band"] is not None:
        certify += f"alpha = {cfg['band'][0]!r}\nbeta = {cfg['band'][1]!r}\n"
    parts.append(certify)
    return "\n".join(parts)


def plan(workload: str, seed: int) -> dict:
    """Ops and CLI calls of one workload.

    Returns {"kind": op kind, "ops": [config, ...] in seeded order,
    "cli": [(subcommand args, config), ...] of length CLI_CALLS}.
    """
    rng = random.Random(f"{workload}:{seed}")
    readme = config()
    if workload == "solve-sweep":
        ops = [config(entropy, (kind, n), rho, nodes)
               for entropy, kind, n, rho, nodes in itertools.product(
                   ENTROPIES, ("monomial", "piecewise_flat"), (2, 4, 6, 8, 12, 16),
                   ("pulse", "constant"), (320, 1280))]
        cli_configs = [(("solve",), readme), (("compare",), config(compare=True))]
        cli_configs += [(("solve",), c) for c in rng.sample(ops, 4)]
        kind = "solve"
    elif workload == "certify-core":
        ops = [readme] + [config(basis=basis, nodes=nodes)
                          for basis in (("piecewise_flat", 4), ("monomial", 4), ("monomial", 6))
                          for nodes in (320, 1280)]
        ops.append(config(basis=("monomial", 4), rho="constant", band=(0.0, 1.0)))
        ops = [dict(c, trial_seed=rng.randrange(2 ** 31)) for c in ops]
        cli_configs = [(("certify", "--type", "core"), ops[0])]
        kind = "core"
    elif workload == "certify-qri":
        ops = [readme, config(basis=("piecewise_flat", 4)), config(basis=("monomial", 4)),
               config(basis=("monomial", 5)), config(basis=("monomial", 3), rho="constant")]
        # README twice per round: the CLI tail (10 of 24 samples beyond) then
        # falls inside the README cluster, not on its edge
        cli_configs = [(("certify", "--type", "qri"), ops[0]),
                       (("certify", "--type", "qri"), ops[2]),
                       (("certify", "--type", "qri"), ops[0])]
        kind = "qri"
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng.shuffle(ops)
    repeats = -(-CLI_CALLS // len(cli_configs))
    cli = (cli_configs * repeats)[:CLI_CALLS]  # round robin: repeats spread over the run
    return {"kind": kind, "ops": ops, "cli": cli}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * PASSES_PER_SECOND[workload]))
