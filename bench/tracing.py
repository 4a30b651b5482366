"""Spans around the calls into entromin's layers, recorded from outside.

`Tracer.installed()` replaces each layer function listed in `LAYERS` with a
timing wrapper in every entromin module namespace that binds it (the
defining module and each module that imported the name), and restores the
originals on exit.  Nothing under `src/` changes.  Spans are kept in memory
as (id, name, start, end, parent id, op id, attrs) and written out once,
at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


def _solve_attrs(args, kwargs, result, exc):
    instance = args[0]
    if exc is not None:
        return {"error": type(exc).__name__}
    return {"iterations": result.iterations, "converged": bool(result.converged),
            "design_bytes": int(instance.design.nbytes)}  # computed, float64 (n, nodes)


def _instance_attrs(args, kwargs, result, exc):
    return {} if exc is not None else {"nodes": int(result.rule.nodes.size)}


def _verify_attrs(args, kwargs, result, exc):
    """Trials, and the long-double design bytes the verification builds.

    Computed from shapes, not measured: each trial evaluates the design on
    the membership grid plus the verification nodes, and again on the
    verification nodes, all in np.longdouble.
    """
    from entromin import certificates
    instance, cert = args[0], args[2]
    trials = int(kwargs.get("trials", args[3] if len(args) > 3 else 100))
    rule = instance.rule
    lo, hi = rule.interval
    bps = set(rule.breakpoints)
    bps |= {z for z in (cert.margin.lo, cert.margin.hi)
            if lo < z < hi and all(abs(z - b) > 1e-12 for b in rule.breakpoints)}
    ver_nodes = rule.nodes_per_panel * rule.panels_per_segment * (len(bps) + 1)
    points = certificates.MEMBERSHIP_SAMPLES + 2 + 2 * ver_nodes
    itemsize = np.dtype(np.longdouble).itemsize
    attrs = {"trials": trials, "design_bytes": trials * instance.n * points * itemsize}
    if result is not None:
        attrs["all_passed"] = bool(result.all_passed)
    return attrs


def _qri_attrs(args, kwargs, result, exc):
    from entromin import certificates
    m_max = int(kwargs.get("m_max", args[4] if len(args) > 4 else certificates.DEFAULT_M_MAX))
    if exc is not None:
        return {"levels": m_max - 2, "accepted": False, "error": type(exc).__name__}
    return {"levels": result.m - 2, "accepted": True, "m": result.m}


# (module, function, attrs hook).  dual_value/gradient/hessian are not
# wrapped: solve_dual calls them in its inner loop, and the oracle is timed
# by explicit calls instead (see worker.oracle_timings).
LAYERS = (
    ("cli", "main", None),
    ("config", "load_config", None),
    ("config", "build_problem", None),
    ("quadrature", "build_rule", None),
    ("moments", "instance_from_density", _instance_attrs),
    ("moments", "linearly_independent_on", None),
    ("dual", "solve_dual", _solve_attrs),
    ("primal", "reconstruct", None),
    ("primal", "gibbs_overshoot", None),
    ("primal", "sample_solution", None),
    ("certificates", "find_margin_interval", None),
    ("certificates", "build_direction_functions", None),
    ("certificates", "build_core_certificate", None),
    ("certificates", "verify_core_certificate", _verify_attrs),
    ("certificates", "build_qri_certificate", _qri_attrs),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    def _wrap(self, name, fn, attrs_hook):
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id so children sort after the parent
            self._stack.append(span_id)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = attrs_hook(args, kwargs, result, exc) if attrs_hook else {}
                self.spans[span_id] = (span_id, name, start, end, parent, self.op_id, attrs)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, fn_name, attrs_hook in LAYERS:
                original = getattr(importlib.import_module(f"entromin.{module_name}"), fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original, attrs_hook)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "entromin" or mod_name.startswith("entromin.")) \
                            and getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        saved.append((mod, fn_name, original))
            yield self
        finally:
            for mod, fn_name, original in reversed(saved):
                setattr(mod, fn_name, original)

    def by_name(self, name):
        return [s for s in self.spans if s is not None and s[1] == name]

    def self_times(self) -> dict:
        """Per span id: duration minus the time its direct children cover."""
        child_time = {}
        for span in self.spans:
            if span is not None and span[4] is not None:
                child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
        return {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0)
                for s in self.spans if s is not None}

    def layer_table(self) -> dict:
        """Per layer: calls, total time, self time and median call time."""
        selfs = self.self_times()
        table = {}
        for span in self.spans:
            if span is None:
                continue
            row = table.setdefault(span[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                             "_durations": []})
            row["calls"] += 1
            row["total_s"] += span[3] - span[2]
            row["self_s"] += selfs[span[0]]
            row["_durations"].append(span[3] - span[2])
        for row in table.values():
            row["median_s"] = float(np.median(row.pop("_durations")))
        return table

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(fields, span))) + "\n")
