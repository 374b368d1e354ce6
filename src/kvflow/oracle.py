"""Hindsight-optimal scheduling for small instances by exhaustive search.

The decision space is one activation slot per request (or leaving it
out): evicting is never useful in hindsight because an eviction spends
memory and slots on tokens that are then thrown away, and any admission
pattern reachable with evictions is reachable by just activating later.
Candidates are simulated with the exact slot semantics of the engine,
so the returned optimum replays through the engine bit-for-bit.

Search order is fixed: requests by (arrival, id); slots ascending with
"never" last. The first leaf attaining the optimal value is kept, so
ties resolve to the lexicographically smallest schedule and repeated
solves return the same answer. Subtrees are cut when the partial usage
profile exceeds capacity (later assignments only add usage) or when an
optimistic bound (every unassigned request completing as early as its
arrival allows) cannot beat the incumbent.

Exactness is the contract, so instances are capped at 10 requests and
40 slots; beyond that the solver refuses rather than degrade.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Dict, List, Optional, Tuple, Union

from kvflow.core import ARRIVAL_ORDER, Request, integer, nearest_rank
from kvflow.engine import EventEntry, event_rows, run as engine_run
from kvflow.metrics import MetricsReport, RunOutcome, compute_metrics, run_outcome
from kvflow.policies import FixedSchedule, Policy, PolicyApplicabilityError
from kvflow.workload import ArrivalStream

REQUEST_CAP = 10
HORIZON_CAP = 40

OBJECTIVES = ("avg_latency", "p95_latency", "request_throughput", "token_throughput")
_MINIMIZE = frozenset({"avg_latency", "p95_latency"})

Value = Union[Fraction, float]  # exact rational, or math.inf for "no completions"


@dataclass(frozen=True)
class OfflineRequest:
    """One request of an instance; its integer fields are checked and kept as ints."""

    id: int
    prompt_len: int
    decode_len: int
    arrival_slot: int
    class_id: Optional[int] = None  # only per-class policies look at this

    def __post_init__(self) -> None:
        set_field = partial(object.__setattr__, self)
        set_field("id", integer(f"request {self.id!r}: id", self.id))
        for name, least in (("prompt_len", 1), ("decode_len", 1), ("arrival_slot", None)):
            set_field(name, integer(f"request {self.id}: {name}", getattr(self, name), least))
        if self.class_id is not None:
            set_field("class_id", integer(f"request {self.id}: class_id", self.class_id, 0))


@dataclass(frozen=True)
class OfflineInstance:
    """A fully known scheduling instance small enough for exact search,
    its fields checked once, when it is built."""

    requests: Tuple[OfflineRequest, ...]
    kv_capacity: int
    horizon: int
    objective: str

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; known: {', '.join(OBJECTIVES)}"
            )
        requests = tuple(self.requests)
        if len(requests) > REQUEST_CAP:
            raise ValueError(
                f"{len(requests)} requests exceed the exact-search cap of {REQUEST_CAP}"
            )
        horizon = integer("horizon", self.horizon, 1)
        if horizon > HORIZON_CAP:
            raise ValueError(f"horizon must be in 1..{HORIZON_CAP}, got {horizon}")
        set_field = partial(object.__setattr__, self)
        set_field("requests", requests)
        set_field("kv_capacity", integer("kv_capacity", self.kv_capacity, 1))
        set_field("horizon", horizon)
        seen = set()
        for r in requests:
            if not isinstance(r, OfflineRequest):
                raise ValueError(f"requests hold {r!r}, which is not an OfflineRequest")
            if r.id in seen:
                raise ValueError(f"duplicate request id {r.id}")
            seen.add(r.id)
            if not 1 <= r.arrival_slot <= horizon:
                raise ValueError(f"request {r.id} arrives outside the horizon")

    @cached_property
    def _optimum(self) -> "Solution":
        """The exact optimum, searched for on first use and kept on the
        instance (frozen, so it cannot go stale); solve() hands out copies."""
        return _Search(self).run()

    @cached_property
    def _unclassed(self) -> Optional[int]:
        """The id of the first request that has no class_id, or None."""
        return next((r.id for r in self.requests if r.class_id is None), None)

    @cached_property
    def _stream(self) -> ArrivalStream:
        """Engine Requests, each slot a tuple in (arrival_slot, id) order
        (empty slots share one), made on first use and shared by every run:
        a run leaves nothing in a stream that a later run reads (engine.run),
        and construction made the engine's checks on hand-built streams."""
        slots: List[Tuple[Request, ...]] = [()] * self.horizon
        for r in sorted(self.requests, key=ARRIVAL_ORDER):
            slots[r.arrival_slot - 1] += (Request(r.id, r.prompt_len, r.decode_len, r.arrival_slot, r.class_id),)
        return ArrivalStream(slots, self.horizon, len(self.requests))

    @classmethod
    def build(cls, triples, kv_capacity, horizon, objective) -> "OfflineInstance":
        """triples: (l, o, arrival) tuples; ids are assigned 1..n in order."""
        reqs = tuple(OfflineRequest(i + 1, l, o, a) for i, (l, o, a) in enumerate(triples))
        return cls(reqs, kv_capacity, horizon, objective)

    def as_dict(self) -> dict:
        return {
            "requests": [asdict(r) for r in self.requests],  # keys in field order
            "kv_capacity": self.kv_capacity,
            "horizon": self.horizon,
            "objective": self.objective,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "OfflineInstance":
        reqs = tuple(
            OfflineRequest(
                r["id"],
                r["prompt_len"],
                r["decode_len"],
                r["arrival_slot"],
                r.get("class_id"),
            )
            for r in doc["requests"]
        )
        return cls(reqs, doc["kv_capacity"], doc["horizon"], doc["objective"])


def objective_value(report: Union[MetricsReport, RunOutcome], objective: str) -> Value:
    """Exact objective from a metrics report or a run's outcome; inf marks
    "no completions" under the latency objectives (nothing to average)."""
    if objective == "avg_latency":
        return math.inf if report.avg_latency is None else report.avg_latency
    if objective == "p95_latency":
        return math.inf if report.p95_latency is None else Fraction(report.p95_latency)
    if objective == "request_throughput":
        return report.request_throughput
    if objective == "token_throughput":
        return report.token_throughput
    raise ValueError(f"unknown objective {objective!r}")


def is_improvement(candidate: Value, incumbent: Optional[Value], objective: str) -> bool:
    if incumbent is None:
        return True
    if objective in _MINIMIZE:
        return candidate < incumbent
    return candidate > incumbent


def weakly_dominates(a: Value, b: Value, objective: str) -> bool:
    """True when value a is at least as good as b for the objective."""
    if objective in _MINIMIZE:
        return a <= b
    return a >= b


@dataclass(frozen=True)
class Solution:
    value: Value
    schedule: Dict[int, Optional[int]]  # request id -> activation slot, None = never
    nodes: int  # search nodes visited, for diagnostics

    def as_dict(self) -> dict:
        return {
            "value": "inf" if self.value == math.inf else str(self.value),
            "value_float": float(self.value) if self.value != math.inf else None,
            "schedule": {str(k): v for k, v in sorted(self.schedule.items())},
            "nodes": self.nodes,
        }


class _Search:
    def __init__(self, inst: OfflineInstance):
        self.inst = inst
        self.order = sorted(inst.requests, key=lambda r: (r.arrival_slot, r.id))
        self.capacity = inst.kv_capacity
        self.horizon = inst.horizon
        self.objective = inst.objective
        self.minimize = inst.objective in _MINIMIZE
        self.usage = [0] * (inst.horizon + 1)  # 1-indexed slots
        # best-case latencies still to place at each depth, sorted, for the
        # optimistic bounds: a request can complete at all only if
        # arrival + o - 1 <= horizon, and then no sooner than o slots on
        self.rest: List[List[int]] = []
        self.rest_sum: List[int] = []
        for depth in range(len(self.order) + 1):
            rest = sorted(
                r.decode_len
                for r in self.order[depth:]
                if r.arrival_slot + r.decode_len - 1 <= inst.horizon
            )
            self.rest.append(rest)
            self.rest_sum.append(sum(rest))
        self.best_value: Optional[Value] = None
        # best_value as (numerator, denominator), None for inf
        self.best_pair: Optional[Tuple[int, int]] = None
        self.best_schedule_slots: List[Optional[int]] = [None] * len(self.order)
        self.nodes = 0
        # running aggregates over the assigned prefix (completed only)
        self.lat: List[int] = []
        self.tokens = 0
        self.assignment: List[Optional[int]] = []

    # ---- objective evaluation and bounds ----

    def _leaf_value(self) -> Value:
        n = len(self.lat)
        if self.objective == "request_throughput":
            return Fraction(n, self.horizon)
        if self.objective == "token_throughput":
            return Fraction(self.tokens, self.horizon)
        if n == 0:
            return math.inf
        if self.objective == "avg_latency":
            return Fraction(sum(self.lat), n)
        ordered = sorted(self.lat)
        return Fraction(ordered[nearest_rank(n) - 1])

    def _bound(self, depth: int) -> Optional[Tuple[int, int]]:
        """Best value any completion of this partial assignment could reach,
        as (numerator, denominator) with a positive denominator, or None
        for inf. Plain ints: this runs at every node."""
        rest = self.rest[depth]
        if self.objective == "request_throughput":
            return len(self.lat) + len(rest), self.horizon
        if self.objective == "token_throughput":
            return self.tokens + self.rest_sum[depth], self.horizon
        if self.objective == "p95_latency":
            # with at most REQUEST_CAP completions the nearest-rank p95 is
            # the maximum, which future completions can only raise
            if self.lat:
                return max(self.lat), 1
            return (rest[0], 1) if rest else None
        # avg_latency: future requests finish no faster than their decode
        # length; greedily admit the quickest while they pull the mean down
        total = sum(self.lat)
        n = len(self.lat)
        if n == 0 and not rest:
            return None
        for b in rest:
            if n == 0 or b * n < total:
                total += b
                n += 1
            else:
                break
        return total, n

    def _prunable(self, depth: int) -> bool:
        if self.best_value is None:
            return False
        bound = self._bound(depth)
        best = self.best_pair
        if self.minimize:
            # bound >= best, where None is inf
            if bound is None:
                return True
            return best is not None and bound[0] * best[1] >= best[0] * bound[1]
        return bound[0] * best[1] <= best[0] * bound[1]

    # ---- usage profile maintenance ----

    def _try_place(self, r: OfflineRequest, slot: int) -> bool:
        """Add r's footprint; on any slot over capacity, roll back."""
        last = min(slot + r.decode_len - 1, self.horizon)
        usage = self.usage
        cap = self.capacity
        for t in range(slot, last + 1):
            usage[t] += r.prompt_len + (t - slot + 1)
            if usage[t] > cap:
                for u in range(slot, t + 1):
                    usage[u] -= r.prompt_len + (u - slot + 1)
                return False
        return True

    def _remove(self, r: OfflineRequest, slot: int) -> None:
        last = min(slot + r.decode_len - 1, self.horizon)
        for t in range(slot, last + 1):
            self.usage[t] -= r.prompt_len + (t - slot + 1)

    # ---- depth-first search ----

    def run(self) -> Solution:
        for r in self.order:
            if r.prompt_len + 1 > self.capacity:
                raise ValueError(
                    f"request {r.id} needs {r.prompt_len + 1} tokens in its first "
                    f"slot but the budget is {self.capacity}"
                )
        self._descend(0)
        schedule = {
            r.id: s for r, s in zip(self.order, self.best_schedule_slots)
        }
        return Solution(value=self.best_value, schedule=schedule, nodes=self.nodes)

    def _descend(self, depth: int) -> None:
        self.nodes += 1
        if depth == len(self.order):
            value = self._leaf_value()
            if is_improvement(value, self.best_value, self.objective):
                self.best_value = value
                self.best_pair = None if value == math.inf else (value.numerator, value.denominator)
                self.best_schedule_slots = list(self.assignment)
            return
        if self._prunable(depth):
            return
        r = self.order[depth]
        completes_by = self.horizon - r.decode_len + 1
        for slot in range(r.arrival_slot, self.horizon + 1):
            if not self._try_place(r, slot):
                continue
            completed = slot <= completes_by
            if completed:
                self.lat.append(slot + r.decode_len - r.arrival_slot)
                self.tokens += r.decode_len
            self.assignment.append(slot)
            self._descend(depth + 1)
            self.assignment.pop()
            if completed:
                self.lat.pop()
                self.tokens -= r.decode_len
            self._remove(r, slot)
        self.assignment.append(None)
        self._descend(depth + 1)
        self.assignment.pop()


def solve(instance: OfflineInstance) -> Solution:
    """Exact optimum over activation schedules, with one optimal schedule.

    The search runs once per instance; later calls return the same
    optimum, each with its own copy of the schedule.
    """
    optimum = instance._optimum
    return Solution(optimum.value, dict(optimum.schedule), optimum.nodes)


def replay(instance: OfflineInstance, schedule: Dict[int, Optional[int]]):
    """Run a schedule through the engine; returns (RunResult, MetricsReport)."""
    by_slot: Dict[int, List[int]] = {}
    for rid, slot in schedule.items():
        if slot is not None:
            by_slot.setdefault(slot, []).append(rid)
    for ids in by_slot.values():
        ids.sort()
    result = engine_run(
        instance._stream,
        FixedSchedule(by_slot),
        kv_capacity=instance.kv_capacity,
    )
    return result, compute_metrics(result)


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of one oracle-vs-policy comparison, with enough detail to
    reproduce a failure."""

    ok: bool
    objective: str
    oracle_value: Value
    policy_value: Value
    oracle_schedule: Dict[int, Optional[int]]
    policy_events: Tuple[EventEntry, ...]  # the run's log as recorded

    def as_dict(self) -> dict:
        fmt = lambda v: "inf" if v == math.inf else str(v)
        return {
            "ok": self.ok,
            "objective": self.objective,
            "oracle_value": fmt(self.oracle_value),
            "policy_value": fmt(self.policy_value),
            "oracle_schedule": {str(k): v for k, v in sorted(self.oracle_schedule.items())},
            "policy_events": [list(row) for row in event_rows(self.policy_events)],
        }


def verify_policy_dominance(
    instance: OfflineInstance, policy: Policy, seed: int = 0
) -> DominanceReport:
    """Check that the exact optimum is at least as good as what the
    policy achieved on the same instance. The optimum and the stream kept
    on the instance serve every policy; the policy's value is read from
    the run's outcome, with no full metrics report. A policy that needs
    class labels, on an instance with a request that has none, is a
    PolicyApplicabilityError."""
    if policy.requires_classes and instance._unclassed is not None:
        raise PolicyApplicabilityError(
            f"policy {policy.name!r} needs class labels, but request {instance._unclassed} has no class_id"
        )
    solution = solve(instance)
    result = engine_run(
        instance._stream,
        policy,
        kv_capacity=instance.kv_capacity,
        seed=seed,
        record_events=True,
    )
    policy_value = objective_value(run_outcome(result), instance.objective)
    ok = weakly_dominates(solution.value, policy_value, instance.objective)
    return DominanceReport(
        ok=ok,
        objective=instance.objective,
        oracle_value=solution.value,
        policy_value=policy_value,
        oracle_schedule=solution.schedule,
        policy_events=tuple(result.events or ()),
    )
