"""Spans around the public functions of each package layer.

The tracer patches every binding of each target function: the function in
its home module and every other ``issnet`` module that imported it by name
(``issnet.certify.simulate``, ``issnet.cli.build_ensemble``, ...).  Methods
are patched on their class.  A target that no longer exists is reported as
absent, never skipped silently.

Coarse targets record one span per call: (id, name, start, end, parent id,
job id) plus counters.  Hot targets (called up to millions of times) are
aggregated per (nearest coarse span, name) as calls, inclusive and self
time, so the trace stays small; their time is still subtracted from their
parent's self time.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "catalog", "network", "systems", "comparison", "gains",
          "smallgain", "certify")


@dataclass(frozen=True)
class Target:
    name: str                 # span name; its prefix is the layer
    module: str               # home module
    attr: str                 # "func" or "Class.method"
    hot: bool = False
    count: Callable | None = None   # (args, result) -> {counter: value}
    counters: tuple = ()            # the keys count returns


def _steps(args, traj):
    return {"steps": len(traj.times) - 1, "state_bytes": traj.states.nbytes}


TARGETS = (
    Target("cli.main", "issnet.cli", "main"),
    Target("catalog.instantiate", "issnet.catalog", "instantiate"),
    Target("network.simulate", "issnet.network", "simulate", count=_steps,
           counters=("steps", "state_bytes")),
    Target("systems.input_eval", "issnet.systems", "InputSignal.__call__",
           hot=True),
    Target("certify.build_ensemble", "issnet.certify", "build_ensemble",
           count=lambda args, runs: {"members": len(runs)},
           counters=("members",)),
    Target("certify.fit_ugs", "issnet.certify", "fit_ugs"),
    Target("certify.estimate_attainment_times", "issnet.certify",
           "estimate_attainment_times"),
    Target("certify.build_nonuniform_iss", "issnet.certify",
           "build_nonuniform_iss"),
    Target("certify.compute_band_limsups", "issnet.certify",
           "compute_band_limsups"),
    Target("certify.verify_sg_inequality", "issnet.certify",
           "verify_sg_inequality"),
    Target("certify.trace_to_csv", "issnet.certify", "trace_to_csv"),
    Target("gains.check_graph", "issnet.gains", "check_graph"),
    Target("gains.restrict", "issnet.gains", "restrict"),
    Target("gains.apply_gain_operator", "issnet.gains", "apply_gain_operator",
           hot=True),
    Target("gains.apply_batch", "issnet.gains", "apply_batch", hot=True,
           count=lambda args, out: {"rows": out.shape[0]},
           counters=("rows",)),
    Target("comparison.curve_eval", "issnet.comparison",
           "ScalarCurve.__call__", hot=True),
    Target("comparison.surface_eval", "issnet.comparison",
           "KLSurface.__call__", hot=True),
    Target("comparison.kl_from_decay_table", "issnet.comparison",
           "kl_from_decay_table"),
    Target("smallgain.estimate_uniform_sgc", "issnet.smallgain",
           "estimate_uniform_sgc"),
    Target("smallgain.falsify_mbi", "issnet.smallgain", "falsify_mbi",
           count=lambda args, w: {"witnesses": int(w is not None)},
           counters=("witnesses",)),
    Target("smallgain.finite_cycle_check", "issnet.smallgain",
           "finite_cycle_check",
           count=lambda args, rep: {"cycles": rep.n_cycles},
           counters=("cycles",)),
)

ROOT = "bench.job"


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []        # (id, name, start, end, parent, self_s, counters)
        self.hot = {}          # (parent id, name) -> [calls, total_s, self_s, counters]
        self.absent = []
        self._frames = [[0.0]]   # child time of each open span, innermost last
        self._open = [0]         # ids of open coarse spans
        self._next_id = 1
        self._restore = []

    # Patching -----------------------------------------------------------

    def install(self) -> None:
        import issnet.cli  # noqa: F401  (loads every package module)

        modules = [m for k, m in sys.modules.items()
                   if k == "issnet" or k.startswith("issnet.")]
        for t in TARGETS:
            owner = sys.modules.get(t.module)
            *cls, attr = t.attr.split(".")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            wrapper = (self._wrap_hot if t.hot else self._wrap_span)(t, orig)
            if cls:
                self._set(owner, attr, wrapper, orig)
                continue
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        self._set(mod, k, wrapper, orig)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # Spans --------------------------------------------------------------

    def _wrap_span(self, target: Target, fn):
        name, count = target.name, target.count
        frames, open_ids, spans = self._frames, self._open, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = open_ids[-1]
            frame = [0.0]
            frames.append(frame)
            open_ids.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_ids.pop()
                frames[-1][0] += end - start
            counters = count(args, result) if count else {}
            spans.append((sid, name, start, end, parent,
                          end - start - frame[0], counters))
            return result

        return traced

    def _wrap_hot(self, target: Target, fn):
        name, count = target.name, target.count
        frames, open_ids, hot = self._frames, self._open, self.hot
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                frames.pop()
                frames[-1][0] += dt
            key = (open_ids[-1], name)
            rec = hot.get(key)
            if rec is None:
                rec = hot[key] = [0, 0.0, 0.0, {}]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[0]
            if count:
                for k, v in count(args, result).items():
                    rec[3][k] = rec[3].get(k, 0) + v
            return result

        return traced

    def run_root(self, fn, *args):
        """Run the job under the root span; its self time is the time
        spent outside every traced layer."""
        root = self._wrap_span(Target(ROOT, "", ""), fn)
        return root(*args)

    # Report -------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "job_id": self.job_id,
            "absent": list(self.absent),
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "job": self.job_id, "self_s": s[5],
                       "counters": s[6]} for s in self.spans],
            "hot": [{"parent": p, "name": n, "calls": r[0], "s": r[1],
                     "self_s": r[2], "counters": r[3], "job": self.job_id}
                    for (p, n), r in self.hot.items()],
        }


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced job, by metric name."""
    calls, incl, counters = {}, {}, {}
    self_s = {layer: 0.0 for layer in LAYERS + ("bench",)}
    names = {}
    job_s = 0.0

    def add(name, n, s, own, cnt):
        calls[name] = calls.get(name, 0) + n
        incl[name] = incl.get(name, 0.0) + s
        self_s[name.split(".")[0]] += own
        for k, v in cnt.items():
            counters[f"{name}.{k}"] = counters.get(f"{name}.{k}", 0) + v

    for s in dump["spans"]:
        names[s["id"]] = s["name"]
        if s["name"] == ROOT:
            job_s += s["end"] - s["start"]
        add(s["name"], 1, s["end"] - s["start"], s["self_s"], s["counters"])
    falsify_rows = 0
    for h in dump["hot"]:
        add(h["name"], h["calls"], h["s"], h["self_s"], h["counters"])
        if h["name"] == "gains.apply_batch" \
                and names.get(h["parent"]) == "smallgain.falsify_mbi":
            falsify_rows += h["counters"].get("rows", 0)

    m = {}
    for t in TARGETS:
        m[f"{t.name}.calls"] = calls.get(t.name, 0)
        m[f"{t.name}.s"] = incl.get(t.name, 0.0)
        for c in t.counters:
            m[f"{t.name}.{c}"] = counters.get(f"{t.name}.{c}", 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["smallgain.falsify_mbi.rows"] = falsify_rows
    sim_s = m["network.simulate.s"]
    steps = m["network.steps"] = m["network.simulate.steps"]
    m["network.state_bytes"] = m["network.simulate.state_bytes"]
    m["network.steps_per_s"] = steps / sim_s if sim_s > 0 else 0.0
    m["smallgain.cycles"] = m["smallgain.finite_cycle_check.cycles"]
    m["trace.job_s"] = job_s
    m["trace.unattributed_s"] = self_s["bench"]
    m["trace.accounted_share"] = (sum(self_s[layer] for layer in LAYERS)
                                  / job_s if job_s > 0 else 0.0)
    m["trace.absent_targets"] = len(dump["absent"])
    return m
