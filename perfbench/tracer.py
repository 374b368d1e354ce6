"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public entry points of each kvflow module for
the duration of a `with` block and restores the originals afterwards. Nothing
under `src/` is edited: module-level functions are rebound in every kvflow
module that holds a reference to them (so `cli.engine_run` and `engine.run`
are both wrapped), and methods are wrapped on their class. Times and counts
accumulate in memory and are read with `layer_metrics()`.

Nested layers are timed separately, not subtracted: `policies.decide_s`
includes planner time and `oracle.verify_s` includes the oracle solves it
runs. `metrics.recompute_s` gets event-log rows already parsed.
`engine.self_s` is the exception: engine run time minus the time inside the
policy's `decide`/`evict`.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections import defaultdict
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Tuple

POLICY_NAMES = ("flow_per_class", "flow_scalar", "alpha_protection", "mc", "mc_sf", "amin")
PLANNER_COUNTED = ("feasible", "admit", "admit_many", "max_admissible", "advance")
PLANNER_TIMED_ONLY = ("remove", "tracked", "entry", "projection", "bootstrap")

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = (
    ("workload.generate_s", "s"),
    ("workload.requests", "count"),
    ("workload.ingest_s", "s"),
    ("cli.config_s", "s"),
    ("cli.write_s", "s"),
    ("cli.write_bytes", "bytes"),
    ("engine.run_s", "s"),
    ("engine.self_s", "s"),
    ("engine.runs", "count"),
    ("engine.slots", "count"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.activations", "count"),
    ("engine.evictions", "count"),
    ("engine.overflow_slots", "count"),
    ("engine.useful_token_ratio", "ratio"),
    ("engine.events", "count"),
    ("core.queue_push", "count"),
    ("core.queue_remove", "count"),
    ("core.queue_readmit", "count"),
    ("core.queue_scanned", "count"),
    ("policies.decide_s", "s"),
    ("policies.evict_s", "s"),
    ("policies.decide_calls", "count"),
    ("policies.evict_calls", "count"),
    ("policies.views", "count"),
    ("policies.admit_yield", "ratio"),
    *((f"policies.{name}.run_s", "s") for name in POLICY_NAMES),
    ("planner.s", "s"),
    *((f"planner.{op}", "count") for op in PLANNER_COUNTED),
    ("metrics.compute_s", "s"),
    ("metrics.recompute_s", "s"),
    ("oracle.solve_s", "s"),
    ("oracle.nodes", "count"),
    ("oracle.verify_s", "s"),
    ("stability.report_s", "s"),
)


def _nearest_rank(ordered: List[int], pct: float) -> int:
    if not ordered:
        return 0
    k = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(k) - 1]


class Tracer:
    """Accumulates layer times (s) and counts for the units run under it."""

    def __init__(self) -> None:
        self._patches: list = []
        self.time: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.steps: List[int] = []  # host nanoseconds of each Engine.step

    def reset(self) -> None:
        self.time.clear()
        self.count.clear()
        self.steps.clear()

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, module: str, attr: str, make: Callable) -> None:
        """Wrap module.attr and every other kvflow binding of the same object."""
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "kvflow" or name.startswith("kvflow."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _timer(self, key: str, calls: str = "", amount: Tuple[str, Callable] = None):
        """Time calls into key; optionally count them, and add amount(args, result)."""
        t, n = self.time, self.count

        def make(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t[key] += perf_counter() - start
                if calls:
                    n[calls] += 1
                if amount is not None:
                    n[amount[0]] += amount[1](args, result)
                return result

            return wrapper

        return make

    def _counter(self, key: str):
        n = self.count

        def make(fn):
            def wrapper(*args, **kwargs):
                n[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        from kvflow import core, engine, policies

        n = self.count
        try:
            self._rebind(
                "kvflow.workload",
                "generate_arrivals",
                self._timer("workload.generate_s", amount=("workload.requests", lambda a, res: res.total)),
            )
            self._rebind("kvflow.workload", "ingest_trace", self._timer("workload.ingest_s"))
            self._rebind("kvflow.cli", "load_experiment", self._timer("cli.config_s"))
            self._rebind(
                "kvflow.cli",
                "_atomic_write",
                self._timer("cli.write_s", amount=("cli.write_bytes", lambda a, res: os.path.getsize(a[0]))),
            )
            self._rebind("kvflow.engine", "run", self._engine_run)
            self._rebind("kvflow.metrics", "compute_metrics", self._timer("metrics.compute_s"))
            self._rebind("kvflow.metrics", "recompute_from_events", self._timer("metrics.recompute_s"))
            self._rebind(
                "kvflow.oracle",
                "solve",
                self._timer("oracle.solve_s", amount=("oracle.nodes", lambda a, sol: sol.nodes)),
            )
            self._rebind("kvflow.oracle", "verify_policy_dominance", self._timer("oracle.verify_s"))
            self._rebind("kvflow.stability", "build_report", self._timer("stability.report_s"))

            step = engine.Engine.step
            steps = self.steps

            def timed_step(eng, slot_requests):
                start = perf_counter_ns()
                step(eng, slot_requests)
                steps.append(perf_counter_ns() - start)

            self._set(engine.Engine, "step", timed_step)

            queue = core.WaitingQueue
            for op in ("push", "remove", "readmit"):
                self._set(queue, op, self._counter(f"core.queue_{op}")(queue.__dict__[op]))
            iterate = queue.__iter__

            def counted_iter(q):
                for r in iterate(q):
                    n["core.queue_scanned"] += 1
                    yield r

            self._set(queue, "__iter__", counted_iter)

            self._rebind("kvflow.policies", "_waiting_view", self._counter("policies.waiting_views"))
            view = policies.PolicyView
            self._set(view, "_active_view", self._counter("policies.active_views")(view._active_view))

            planner = policies.AdmissionPlanner
            for op in PLANNER_COUNTED + PLANNER_TIMED_ONLY:
                calls = f"planner.{op}" if op in PLANNER_COUNTED else ""
                self._set(planner, op, self._timer("planner.s", calls)(planner.__dict__[op]))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _engine_run(self, run):
        """engine.run, with the policy's decide/evict timed for that run."""
        t, n = self.time, self.count
        decide_timer = self._timer("policies.decide_s", "policies.decide_calls")
        evict_timer = self._timer("policies.evict_s", "policies.evict_calls")

        def wrapper(arrivals, policy, *args, **kwargs):
            policy.decide = decide_timer(policy.decide)
            policy.evict = evict_timer(policy.evict)
            in_policy = t["policies.decide_s"] + t["policies.evict_s"]
            start = perf_counter()
            try:
                result = run(arrivals, policy, *args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                del policy.decide, policy.evict
            t["engine.run_s"] += elapsed
            t["engine.self_s"] += elapsed - (t["policies.decide_s"] + t["policies.evict_s"] - in_policy)
            if policy.name in POLICY_NAMES:
                t[f"policies.{policy.name}.run_s"] += elapsed
            n["engine.runs"] += 1
            n["engine.slots"] += result.horizon
            n["engine.activations"] += result.completed_count + result.eviction_count + result.final_active
            n["engine.evictions"] += result.eviction_count
            n["engine.overflow_slots"] += result.overflow_slots
            n["engine.events"] += len(result.events or ())
            n["engine.generated"] += result.generated_tokens
            n["engine.wasted"] += result.wasted_tokens
            return result

        return wrapper

    def layer_metrics(self) -> Dict[str, float]:
        """Every LAYER_METRICS value for what ran since the last reset()."""
        t, n = self.time, self.count
        ordered = sorted(self.steps)
        generated = n["engine.generated"]
        waiting_views = n["policies.waiting_views"]
        out: Dict[str, float] = {}
        for key, unit in LAYER_METRICS:
            out[key] = t[key] if unit == "s" else n[key]
        out["engine.step_us_p50"] = _nearest_rank(ordered, 50) / 1000
        out["engine.step_us_p99"] = _nearest_rank(ordered, 99) / 1000
        out["engine.useful_token_ratio"] = (generated - n["engine.wasted"]) / generated if generated else 0.0
        out["policies.views"] = waiting_views + n["policies.active_views"]
        out["policies.admit_yield"] = n["engine.activations"] / waiting_views if waiting_views else 0.0
        return out
