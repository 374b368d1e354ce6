"""Evaluation metrics computed from a finished run.

Latency counts both endpoints: a request arriving and finishing in the
same slot has latency 1, never 0. Requests still unfinished at the end
of the run are excluded from latency statistics (right-censoring) but
do count in the queue growth slope. Token throughput counts only the
retained decode tokens of completed requests; evicted work is reported
separately as wasted_tokens, and a variant that credits evicted work is
kept as an auxiliary column.

Throughput ratios are exposed as exact fractions so that, for example,
request_throughput * horizon reproduces the completed count with no
float rounding. The CSV row stores the integer numerators alongside
float renderings, which keeps the row round-trippable.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from kvflow.core import nearest_rank
from kvflow.engine import (
    EVENT_ACTIVATE,
    EVENT_ARRIVE,
    EVENT_COMPLETE,
    EVENT_DECODE,
    EVENT_EVICT,
    EVENT_OVERFLOW,
    EventEntry,
    RunResult,
)

def least_squares_slope(y: Sequence[float]) -> float:
    """Slope of the ordinary least squares line through (1, y1)..(n, yn)."""
    arr = np.asarray(y, dtype=np.float64)
    n = len(arr)
    if n < 2:
        return 0.0
    t = np.arange(1, n + 1, dtype=np.float64)
    # np.add.reduce(a) / n is what a.mean() computes, without the wrapper
    tc = t - np.add.reduce(t) / n
    return float(np.dot(tc, arr - np.add.reduce(arr) / n) / np.dot(tc, tc))


# CSV column order. Integer columns come first so an exact report can be
# rebuilt from them; the float columns are renderings for plotting.
CSV_FIELDS = (
    "policy",
    "seed",
    "horizon",
    "kv_capacity",
    "arrivals",
    "completed",
    "unfinished",
    "latency_sum",
    "p95_latency",
    "retained_tokens",
    "wasted_tokens",
    "overflow_events",
    "eviction_events",
    "avg_latency",
    "request_throughput",
    "token_throughput",
    "token_throughput_incl_wasted",
    "kv_util_mean",
    "kv_util_max",
    "kv_util_std",
    "queue_growth_slope",
)


class _Ratios:
    """The exact per-run ratios over horizon, completed, latency_sum and
    retained_tokens, in one place for MetricsReport and RunOutcome."""

    __slots__ = ()

    @property
    def avg_latency(self) -> Optional[Fraction]:
        if self.completed == 0:
            return None
        return Fraction(self.latency_sum, self.completed)

    @property
    def request_throughput(self) -> Fraction:
        if self.horizon == 0:
            return Fraction(0)
        return Fraction(self.completed, self.horizon)

    @property
    def token_throughput(self) -> Fraction:
        if self.horizon == 0:
            return Fraction(0)
        return Fraction(self.retained_tokens, self.horizon)


class RunOutcome(namedtuple("RunOutcome", "horizon completed latency_sum p95_latency retained_tokens"), _Ratios):
    """The report fields the oracle's objectives read; p95_latency is the
    nearest-rank order statistic, None with zero completions."""

    __slots__ = ()


def _outcome(horizon: int, latencies: List[int], retained_tokens: int) -> RunOutcome:
    n = len(latencies)
    if not n:
        return RunOutcome(horizon, 0, 0, None, retained_tokens)
    ordered = sorted(latencies)  # Python ints from every caller
    return RunOutcome(horizon, n, sum(ordered), ordered[nearest_rank(n) - 1], retained_tokens)


def run_outcome(result: RunResult) -> RunOutcome:
    """compute_metrics(result)'s objective fields, without the rest."""
    return _outcome(result.horizon, result.latencies().tolist(), int(result.completed_decode_len.sum()))


@dataclass(frozen=True)
class MetricsReport(_Ratios):
    """Summary metrics of one run.

    latency_sum is the integer sum of completed-request latencies, so
    avg_latency = latency_sum / completed stays exact. p95_latency is the
    nearest-rank order statistic (None with zero completions). Utilization
    stats summarize U_t / kv_capacity over all recorded slots.
    """

    policy: str
    seed: int
    horizon: int
    kv_capacity: int
    arrivals: int
    completed: int
    unfinished: int
    latency_sum: int
    p95_latency: Optional[int]
    retained_tokens: int
    wasted_tokens: int
    overflow_events: int
    eviction_events: int
    kv_util_mean: float
    kv_util_max: float
    kv_util_std: float
    queue_growth_slope: float

    @property
    def token_throughput_incl_wasted(self) -> Fraction:
        """Same ratio with evicted work credited; auxiliary column only."""
        if self.horizon == 0:
            return Fraction(0)
        return Fraction(self.retained_tokens + self.wasted_tokens, self.horizon)

    def as_dict(self) -> dict:
        avg = self.avg_latency
        return {
            "policy": self.policy,
            "seed": self.seed,
            "horizon": self.horizon,
            "kv_capacity": self.kv_capacity,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "unfinished": self.unfinished,
            "latency_sum": self.latency_sum,
            "avg_latency": None if avg is None else float(avg),
            "p95_latency": self.p95_latency,
            "request_throughput": float(self.request_throughput),
            "token_throughput": float(self.token_throughput),
            "token_throughput_incl_wasted": float(self.token_throughput_incl_wasted),
            "retained_tokens": self.retained_tokens,
            "wasted_tokens": self.wasted_tokens,
            "overflow_events": self.overflow_events,
            "eviction_events": self.eviction_events,
            "kv_utilization": {
                "mean": self.kv_util_mean,
                "max": self.kv_util_max,
                "std": self.kv_util_std,
            },
            "queue_growth_slope": self.queue_growth_slope,
        }

    def to_csv_row(self) -> List[str]:
        """The CSV_FIELDS values: fractions as floats, None as a blank."""
        row = []
        for name in CSV_FIELDS:
            value = getattr(self, name)
            row.append("" if value is None else str(float(value) if isinstance(value, Fraction) else value))
        return row


def _utilization(usage: np.ndarray, kv_capacity: int) -> Tuple[float, float, float]:
    n = len(usage)
    if n == 0:
        return 0.0, 0.0, 0.0
    # the ufuncs that u.mean(), u.max() and u.std() run, in the same order,
    # without numpy's Python-level wrappers (a few microseconds per call)
    u = usage / float(kv_capacity)
    mean = np.add.reduce(u) / n
    x = u - mean
    np.multiply(x, x, out=x)
    return float(mean), float(np.maximum.reduce(u)), float(np.sqrt(np.add.reduce(x) / n))


def _build_report(
    policy: str,
    seed: int,
    kv_capacity: int,
    arrivals: int,
    outcome: RunOutcome,
    wasted_tokens: int,
    overflow_events: int,
    eviction_events: int,
    usage: np.ndarray,
    unfinished: np.ndarray,
) -> MetricsReport:
    util_mean, util_max, util_std = _utilization(usage, kv_capacity)
    final_unfinished = int(unfinished[-1]) if len(unfinished) else 0
    return MetricsReport(
        policy=policy,
        seed=seed,
        horizon=outcome.horizon,
        kv_capacity=kv_capacity,
        arrivals=arrivals,
        completed=outcome.completed,
        unfinished=final_unfinished,
        latency_sum=outcome.latency_sum,
        p95_latency=outcome.p95_latency,
        retained_tokens=outcome.retained_tokens,
        wasted_tokens=wasted_tokens,
        overflow_events=overflow_events,
        eviction_events=eviction_events,
        kv_util_mean=util_mean,
        kv_util_max=util_max,
        kv_util_std=util_std,
        queue_growth_slope=least_squares_slope(unfinished),
    )


def compute_metrics(result: RunResult) -> MetricsReport:
    """Summarize a RunResult. Pure; identical inputs give identical reports."""
    return _build_report(
        policy=result.policy_name,
        seed=result.seed,
        kv_capacity=result.kv_capacity,
        arrivals=result.arrivals_total,
        outcome=run_outcome(result),
        wasted_tokens=result.wasted_tokens,
        overflow_events=result.overflow_slots,
        eviction_events=result.eviction_count,
        usage=result.usage,
        unfinished=result.unfinished(),
    )


def recompute_from_events(
    events: Iterable[EventEntry],
    kv_capacity: int,
    horizon: int,
    policy: str = "",
    seed: int = 0,
) -> MetricsReport:
    """Second, independent metrics pass over a raw event log.

    Replays the log without touching RunResult's counters or series:
    latencies come from arrive/complete pairs, retained tokens from the
    activate-to-complete span, wasted tokens from the activate-to-evict
    span, and the usage series from decode events (a slot with no decode
    events holds nothing, so its usage is 0). Used as an oracle for
    compute_metrics. The log may be a recorded one, whose decode entries
    hold a tuple of ids, or a plain row log such as a parsed events CSV:
    a decode entry only sets its slot's usage either way. A log that
    arrives an id twice, activates an id that is not waiting, or evicts
    or completes an id that is not active raises ValueError.
    """
    # id -> arrival slot, kept for every id that arrived so that a repeat
    # shows; None once the request completed
    arrive_slot: Dict[int, Optional[int]] = {}
    act_slot: Dict[int, int] = {}
    # plain lists: a store into a list costs less than one into a numpy array
    arrive_per_slot = [0] * horizon
    complete_per_slot = [0] * horizon
    usage = [0] * horizon
    latencies: List[int] = []
    retained = 0
    wasted = 0
    overflow = 0
    evictions = 0
    arrivals = 0

    def inconsistent(slot, kind, rid, why):
        return ValueError(f"slot {slot}: {kind} of request {rid} {why}")

    for slot, kind, rid, usage_after in events:
        if not 1 <= slot <= horizon:
            raise ValueError(f"event slot {slot} outside horizon {horizon}")
        if kind == EVENT_DECODE:  # most rows of any log
            usage[slot - 1] = usage_after
        elif kind == EVENT_ARRIVE:
            if rid in arrive_slot:
                raise inconsistent(slot, kind, rid, "which arrived before")
            arrive_slot[rid] = slot
            arrive_per_slot[slot - 1] += 1
            arrivals += 1
        elif kind == EVENT_ACTIVATE:
            if arrive_slot.get(rid) is None or rid in act_slot:
                raise inconsistent(slot, kind, rid, "which is not waiting")
            act_slot[rid] = slot
        elif kind == EVENT_EVICT:
            started = act_slot.pop(rid, None)
            if started is None:
                raise inconsistent(slot, kind, rid, "which is not active")
            wasted += slot - started
            evictions += 1
        elif kind == EVENT_COMPLETE:
            started = act_slot.pop(rid, None)
            if started is None:
                raise inconsistent(slot, kind, rid, "which is not active")
            retained += slot - started + 1
            latencies.append(slot - arrive_slot[rid] + 1)
            arrive_slot[rid] = None
            complete_per_slot[slot - 1] += 1
        elif kind == EVENT_OVERFLOW:
            overflow += 1
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    as_i64 = lambda xs: np.asarray(xs, dtype=np.int64)
    unfinished = np.cumsum(as_i64(arrive_per_slot)) - np.cumsum(as_i64(complete_per_slot))
    return _build_report(
        policy=policy,
        seed=seed,
        kv_capacity=kv_capacity,
        arrivals=arrivals,
        outcome=_outcome(horizon, latencies, retained),
        wasted_tokens=wasted,
        overflow_events=overflow,
        eviction_events=evictions,
        usage=as_i64(usage),
        unfinished=unfinished,
    )
