"""Discrete-time simulation of single-worker LLM serving under a KV budget.

The package models a server that admits requests into a KV cache of M
tokens, decodes one token per active request per slot, and must keep the
total footprint within M at every slot. It provides flow-controlled
admission policies with provable memory bounds, classic baselines, load
and overflow analyzers, and a brute-force hindsight-optimal oracle for
small instances.

Typical flow: describe the workload with a WorkloadSpec, materialize
arrivals with generate_arrivals, pick a policy with make_policy, simulate
with run, and summarize with compute_metrics. build_report answers the
static stability questions before any simulation; solve computes the
hindsight optimum on small instances; the checks module turns the
stability claims into seeded pass/fail experiments.
"""

from kvflow.checks import (
    CheckResult,
    check_budgeted_no_overflow,
    check_overflow_rarity,
    check_overload_explosion,
    explosion_threshold,
)
from kvflow.core import (
    EngineError,
    OversizedRequestError,
    Request,
    RequestClass,
    SimState,
    workload_tokens,
)
from kvflow.engine import RunResult, event_rows, run
from kvflow.metrics import MetricsReport, compute_metrics, recompute_from_events
from kvflow.oracle import OfflineInstance, OfflineRequest, Solution, solve
from kvflow.policies import Policy, PolicyApplicabilityError, make_policy
from kvflow.stability import (
    StabilityReport,
    budget_search,
    build_report,
    check_necessary_known,
    check_necessary_unknown,
    check_sufficient_known,
    overflow_bound,
)
from kvflow.workload import (
    ArrivalStream,
    TraceRecord,
    WorkloadSpec,
    generate_arrivals,
    ingest_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalStream",
    "CheckResult",
    "EngineError",
    "MetricsReport",
    "OfflineInstance",
    "OfflineRequest",
    "OversizedRequestError",
    "Policy",
    "PolicyApplicabilityError",
    "Request",
    "RequestClass",
    "RunResult",
    "SimState",
    "Solution",
    "StabilityReport",
    "TraceRecord",
    "WorkloadSpec",
    "budget_search",
    "build_report",
    "check_budgeted_no_overflow",
    "check_necessary_known",
    "check_necessary_unknown",
    "check_overflow_rarity",
    "check_overload_explosion",
    "check_sufficient_known",
    "compute_metrics",
    "event_rows",
    "explosion_threshold",
    "generate_arrivals",
    "ingest_trace",
    "make_policy",
    "overflow_bound",
    "recompute_from_events",
    "run",
    "solve",
    "workload_tokens",
    "__version__",
]
