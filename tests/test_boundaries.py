"""One number rule at every entry point.

Every count, length, id, slot, capacity, horizon and rate that enters kvflow
goes through core.integer or core.rational once, when it enters. A bool, a
float where an integer is meant, a string that is no number, None, nan, inf
and a value below the field's minimum are each a ValueError naming the field;
a numpy integer is taken and kept as a plain int.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter, itemgetter

import numpy as np
import pytest

from kvflow import cli
from kvflow.core import Request, RequestClass
from kvflow.engine import Engine, run
from kvflow.oracle import OfflineInstance, OfflineRequest
from kvflow.policies import FixedSchedule, make_policy
from kvflow.stability import (
    build_report,
    check_necessary_known,
    check_necessary_unknown,
    check_sufficient_known,
    overflow_bound,
)
from kvflow.workload import LengthDistribution, TraceRecord, WorkloadSpec, generate_arrivals

CLASS = RequestClass(2, 3, 1)
SPEC = WorkloadSpec.synthetic([CLASS], horizon=5)
DIST = LengthDistribution([(2, 3)], [1])
HALF = Fraction(1, 2)


def hand_built(**fields):
    """A hand-built request with fields set, after engine.run took it."""
    r = Request(**{"id": 1, "prompt_len": 2, "decode_len": 3, "arrival_slot": 1, **fields})
    run([[r]], FixedSchedule({}), kv_capacity=10, track_classes=4)
    return r


def offline(**fields):
    return OfflineRequest(**{"id": 1, "prompt_len": 2, "decode_len": 3, "arrival_slot": 1, **fields})


def config_workload(horizon=5, prompt_len=2, rate=1):
    return cli.parse_workload(
        {
            "kind": "synthetic",
            "horizon": horizon,
            "classes": [{"prompt_len": prompt_len, "decode_len": 3, "rate": rate}],
        }
    )


# entry point -> (the name its message gives the field, the kind of number:
# an integer of at least None, 0 or 1, or a nonnegative "rate"; the call that
# takes the value; how to read the value back as kept, or None if it is not)
ENTRIES = {
    "RequestClass.prompt_len": ("prompt_len", 1, lambda v: RequestClass(v, 3, 1), attrgetter("prompt_len")),
    "RequestClass.decode_len": ("decode_len", 1, lambda v: RequestClass(2, v, 1), attrgetter("decode_len")),
    "RequestClass.rate": ("rate", "rate", lambda v: RequestClass(2, 3, v), attrgetter("rate")),
    "WorkloadSpec.horizon": ("horizon", 1, lambda v: WorkloadSpec.synthetic([CLASS], horizon=v), attrgetter("horizon")),
    "WorkloadSpec.rate": (
        "rate",
        "rate",
        lambda v: WorkloadSpec.from_trace([TraceRecord(2, 3)], rate=v, horizon=5),
        attrgetter("rate"),
    ),
    "WorkloadSpec.seed": ("seed", 0, lambda v: WorkloadSpec.synthetic([CLASS], horizon=5, seed=v), attrgetter("seed")),
    "generate_arrivals.seed": ("seed", 0, lambda v: generate_arrivals(SPEC, v), None),
    "Engine.kv_capacity": ("kv_capacity", 1, lambda v: Engine(FixedSchedule({}), v), lambda e: e.state.kv_capacity),
    "Engine.seed": ("seed", 0, lambda v: Engine(FixedSchedule({}), 10, seed=v), lambda e: e.state.rng_seed),
    "Engine.track_classes": (
        "track_classes",
        0,
        lambda v: Engine(FixedSchedule({}), 10, track_classes=v),
        lambda e: len(e._class_waiting or ()),
    ),
    "run.kv_capacity": ("kv_capacity", 1, lambda v: run([[]], FixedSchedule({}), v), attrgetter("kv_capacity")),
    "run.seed": ("seed", 0, lambda v: run([[]], FixedSchedule({}), 10, seed=v), attrgetter("seed")),
    "Request.id": ("id", None, lambda v: hand_built(id=v), attrgetter("id")),
    "Request.arrival_slot": ("arrival_slot", None, lambda v: hand_built(arrival_slot=v), attrgetter("arrival_slot")),
    "Request.prompt_len": ("prompt_len", 1, lambda v: hand_built(prompt_len=v), attrgetter("prompt_len")),
    "Request.decode_len": ("decode_len", 1, lambda v: hand_built(decode_len=v), attrgetter("decode_len")),
    "Request.class_id": ("class_id", 0, lambda v: hand_built(class_id=v), attrgetter("class_id")),
    "OfflineRequest.id": ("id", None, lambda v: offline(id=v), attrgetter("id")),
    "OfflineRequest.arrival_slot": ("arrival_slot", None, lambda v: offline(arrival_slot=v), attrgetter("arrival_slot")),
    "OfflineRequest.prompt_len": ("prompt_len", 1, lambda v: offline(prompt_len=v), attrgetter("prompt_len")),
    "OfflineRequest.decode_len": ("decode_len", 1, lambda v: offline(decode_len=v), attrgetter("decode_len")),
    "OfflineRequest.class_id": ("class_id", 0, lambda v: offline(class_id=v), attrgetter("class_id")),
    "OfflineInstance.kv_capacity": (
        "kv_capacity",
        1,
        lambda v: OfflineInstance.build([(1, 1, 1)], v, 4, "avg_latency"),
        attrgetter("kv_capacity"),
    ),
    "OfflineInstance.horizon": (
        "horizon",
        1,
        lambda v: OfflineInstance.build([(1, 1, 1)], 10, v, "avg_latency"),
        attrgetter("horizon"),
    ),
    "Param positive_int": ("min_output", 1, lambda v: make_policy("amin", {"min_output": v}), attrgetter("min_output")),
    "Param class_budgets": (
        "budgets",
        0,
        lambda v: make_policy("flow_per_class", {"budgets": [1, v]}),
        lambda p: p.budgets[1],
    ),
    "LengthDistribution.pairs": (
        "pairs[0] prompt_len",
        1,
        lambda v: LengthDistribution([(v, 3)], [1]),
        lambda d: d.pairs[0][0],
    ),
    "LengthDistribution.weights": (
        "weights[0]",
        "rate",
        lambda v: LengthDistribution([(2, 3), (1, 1)], [v, 1]),
        lambda d: d.weights[0],
    ),
    "check_necessary_known.capacity": (
        "capacity",
        1,
        lambda v: check_necessary_known([CLASS], v),
        attrgetter("capacity"),
    ),
    "check_necessary_known.rate": ("rate", "rate", lambda v: check_necessary_known([(2, 3, v)], 100), None),
    "check_sufficient_known.capacity": (
        "capacity",
        1,
        lambda v: check_sufficient_known([CLASS], [1], v),
        attrgetter("capacity"),
    ),
    "check_sufficient_known.rates": (
        "rates[0]",
        "rate",
        lambda v: check_sufficient_known([(2, 3)], [1], 100, rates=[v]),
        None,
    ),
    "check_necessary_unknown.capacity": (
        "capacity",
        1,
        lambda v: check_necessary_unknown(DIST, 1, v),
        attrgetter("capacity"),
    ),
    "check_necessary_unknown.rate": ("rate", "rate", lambda v: check_necessary_unknown(DIST, v, 100), None),
    "overflow_bound.A": ("activation cap A", 1, lambda v: overflow_bound(A=v, C=3, M=100, T=10, epsilon=HALF), None),
    "overflow_bound.C": ("length bound C", 1, lambda v: overflow_bound(A=2, C=v, M=100, T=10, epsilon=HALF), None),
    "overflow_bound.M": ("M", 1, lambda v: overflow_bound(A=2, C=3, M=v, T=10, epsilon=HALF), None),
    "overflow_bound.T": ("T", 1, lambda v: overflow_bound(A=2, C=3, M=100, T=v, epsilon=HALF), None),
    "overflow_bound.b": (
        "b",
        "rate",
        lambda v: overflow_bound(A=2, C=3, M=100, T=10, b=v, length_dist=DIST),
        None,
    ),
    "build_report.capacity": ("capacity", 1, lambda v: build_report(v, classes=[CLASS]), attrgetter("capacity")),
    "build_report.scalar_budget": (
        "scalar_budget",
        "rate",
        lambda v: build_report(100, length_dist=DIST, rate=1, scalar_budget=v, horizon=10),
        None,
    ),
    "cli workload.horizon": (
        "field 'workload.horizon'",
        1,
        lambda v: config_workload(horizon=v),
        attrgetter("horizon"),
    ),
    "cli classes[i].prompt_len": (
        "field 'workload.classes[0].prompt_len'",
        1,
        lambda v: config_workload(prompt_len=v),
        lambda spec: spec.classes[0].prompt_len,
    ),
    "cli classes[i].rate": (
        "field 'workload.classes[0].rate'",
        "rate",
        lambda v: config_workload(rate=v),
        lambda spec: spec.classes[0].rate,
    ),
    "cli seeds": ("field 'seeds'", 0, lambda v: cli._parse_seeds({"seeds": [v]}, None), itemgetter(0)),
}

# where None means the field is left out, and is no error
OPTIONAL = {
    "Engine.track_classes",
    "Request.class_id",
    "OfflineRequest.class_id",
    "overflow_bound.b",
    "build_report.scalar_budget",
    "generate_arrivals.seed",
}
NOT_NUMBERS = [True, None, math.nan, math.inf, -math.inf]
BAD = {
    None: NOT_NUMBERS + [2.5, 2.0, "3"],
    0: NOT_NUMBERS + [2.5, 2.0, "3", -1],
    1: NOT_NUMBERS + [2.5, 2.0, "3", 0, -1],
    "rate": NOT_NUMBERS + ["x", -1, Fraction(-1, 2)],
}
GOOD = {None: 1, 0: 1, 1: 2, "rate": 2}  # valid at every entry point of the kind

CASES = [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, kind, _, _) in ENTRIES.items()
    for value in BAD[kind] + [np.int64(GOOD[kind]), np.int32(GOOD[kind])]
    if not (value is None and entry in OPTIONAL)
]


@pytest.mark.parametrize("entry, value", CASES)
def test_number_enters_through_one_checker(entry, value):
    name, kind, take, kept = ENTRIES[entry]
    if isinstance(value, np.integer):
        result = take(value)
        if kept is not None:
            assert type(kept(result)) is int and kept(result) == GOOD[kind]
        return
    with pytest.raises(ValueError, match=f"{re.escape(name)} must be"):
        take(value)


def test_numpy_seed_is_kept_as_the_int_seed():
    seed = run([[]], FixedSchedule({}), 10, seed=np.int64(3)).seed
    assert type(seed) is int and seed == 3
    spec = WorkloadSpec.synthetic([CLASS], horizon=50)
    assert generate_arrivals(spec, np.int64(3)).class_counts.tolist() == generate_arrivals(spec, 3).class_counts.tolist()
