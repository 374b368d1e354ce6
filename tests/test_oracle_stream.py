"""The oracle's dominance checks against the straightforward path: each
check reads its objective from the run's outcome instead of a full metrics
report, and runs on the one stream its instance keeps instead of fresh
Requests. Also the input contract that lets the shared stream skip the
engine's own checks on hand-built streams."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from kvflow import metrics, oracle
from kvflow.core import Request
from kvflow.engine import run
from kvflow.metrics import compute_metrics
from kvflow.oracle import OBJECTIVES, OfflineInstance, OfflineRequest, objective_value, verify_policy_dominance
from kvflow.policies import PolicyApplicabilityError, make_policy
from test_oracle_reference import instances

POLICIES = (
    ("flow_per_class", {"budgets": (1, 1)}),
    ("flow_scalar", {"budget": 1}),
    ("alpha_protection", {"alpha": 0.5}),
    ("mc", {}),
    ("mc_sf", {}),
    ("amin", {"min_output": 2}),
)


def with_classes(inst, objective):
    """inst with class ids 0 and 1 by id parity, so flow_per_class applies."""
    reqs = tuple(dataclasses.replace(r, class_id=r.id % 2) for r in inst.requests)
    return OfflineInstance(reqs, inst.kv_capacity, inst.horizon, objective)


def fresh_slots(inst):
    """New Requests per slot, in the instance's listing order: the hand-built
    stream the engine checks and sorts itself."""
    slots = [[] for _ in range(inst.horizon)]
    for r in inst.requests:
        slots[r.arrival_slot - 1].append(
            Request(r.id, r.prompt_len, r.decode_len, r.arrival_slot, r.class_id)
        )
    return slots


def everything(result):
    """What a run produced, in comparable form."""
    return {
        f.name: value.tolist() if isinstance(value, np.ndarray) else value
        for f in dataclasses.fields(result)
        for value in [getattr(result, f.name)]
    }


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_policy_value_matches_full_metrics_on_fresh_requests(inst):
    for objective in OBJECTIVES:
        classed = with_classes(inst, objective)
        for seed, (name, params) in enumerate(POLICIES):
            report = verify_policy_dominance(classed, make_policy(name, params), seed=seed)
            want_run = run(
                fresh_slots(classed), make_policy(name, params), classed.kv_capacity, seed=seed, record_events=True
            )
            want = objective_value(compute_metrics(want_run), objective)
            assert type(report.policy_value) is type(want) and report.policy_value == want, (name, objective)
            assert report.policy_events == tuple(want_run.events), (name, objective)


# two waves that overflow a small cache and leave requests unfinished at
# the horizon, so runs evict and end with requests still active
SHARED = [(2, 3, 1), (1, 4, 1), (2, 2, 2), (3, 2, 3), (1, 5, 3), (2, 4, 4)]


@pytest.mark.parametrize("last", range(len(POLICIES)), ids=[name for name, _ in POLICIES])
@pytest.mark.parametrize("horizon", [6, 12])
def test_shared_stream_after_five_runs_equals_fresh_requests(last, horizon):
    triples = [(l, o, min(a, horizon)) for l, o, a in SHARED]
    inst = with_classes(OfflineInstance.build(triples, 9, horizon, "avg_latency"), "avg_latency")
    name, params = POLICIES[last]
    for other, other_params in POLICIES[:last] + POLICIES[last + 1 :]:
        verify_policy_dominance(inst, make_policy(other, other_params), seed=3)
    stream = inst._stream
    leftovers = [r for slot in stream.slots for r in slot if r.activation_slot is not None]
    got = run(stream, make_policy(name, params), inst.kv_capacity, seed=3, record_events=True)
    want = run(fresh_slots(inst), make_policy(name, params), inst.kv_capacity, seed=3, record_events=True)
    assert everything(got) == everything(want)
    if horizon == 6:
        assert leftovers, "the earlier runs were supposed to leave requests active"


def test_six_checks_build_each_request_once_and_no_report(monkeypatch):
    built, reports = [], []

    def counting_request(*args, **kwargs):
        built.append(args[0])
        return Request(*args, **kwargs)

    def no_report(result):
        reports.append(result)
        return compute_metrics(result)

    monkeypatch.setattr(oracle, "Request", counting_request)
    monkeypatch.setattr(oracle, "compute_metrics", no_report)
    monkeypatch.setattr(metrics, "compute_metrics", no_report)
    inst = with_classes(OfflineInstance.build(SHARED, 12, 14, "p95_latency"), "p95_latency")
    for name, params in POLICIES:
        assert verify_policy_dominance(inst, make_policy(name, params)).ok
    assert sorted(built) == [r.id for r in inst.requests]
    assert reports == []


class TestInputContract:
    @pytest.mark.parametrize("field", ["id", "prompt_len", "decode_len", "arrival_slot"])
    @pytest.mark.parametrize("value", [True, 2.5, 2.0, "3", None])
    def test_request_field_must_be_an_integer(self, field, value):
        fields = {"id": 7, "prompt_len": 2, "decode_len": 3, "arrival_slot": 1, field: value}
        kind = "a positive integer" if field in ("prompt_len", "decode_len") else "an integer"
        with pytest.raises(ValueError, match=f"request .*{field} must be {kind}, got {value!r}"):
            OfflineRequest(**fields)

    @pytest.mark.parametrize("field", ["prompt_len", "decode_len"])
    def test_lengths_start_at_one(self, field):
        fields = {"id": 7, "prompt_len": 2, "decode_len": 3, "arrival_slot": 1, field: 0}
        with pytest.raises(ValueError, match=f"request 7: {field} must be a positive integer, got 0"):
            OfflineRequest(**fields)

    def test_build_takes_lengths_as_given(self):
        with pytest.raises(ValueError, match="request 1: prompt_len must be a positive integer, got 2.5"):
            OfflineInstance.build([(2.5, 1, 1)], 10, 4, "avg_latency")

    @pytest.mark.parametrize("value", [True, 10.5, np.float64(12), "12"])
    def test_kv_capacity(self, value):
        with pytest.raises(ValueError, match="kv_capacity must be"):
            OfflineInstance.build([(1, 1, 1)], value, 4, "avg_latency")

    @pytest.mark.parametrize("value", [True, 4.0, "4"])
    def test_horizon(self, value):
        with pytest.raises(ValueError, match="horizon must be a positive integer"):
            OfflineInstance.build([(1, 1, 1)], 10, value, "avg_latency")

    def test_requests_must_be_offline_requests(self):
        with pytest.raises(ValueError, match="not an OfflineRequest"):
            OfflineInstance(((1, 1, 1, 1),), 10, 4, "avg_latency")

    def test_class_policy_refused_on_an_unclassed_instance(self):
        inst = OfflineInstance.build([(1, 1, 1), (1, 1, 2)], 10, 4, "avg_latency")
        with pytest.raises(PolicyApplicabilityError, match="policy 'flow_per_class' needs class labels, but request 1"):
            verify_policy_dominance(inst, make_policy("flow_per_class", {"budgets": [1]}))
        assert verify_policy_dominance(inst, make_policy("mc", {})).ok

    def test_numpy_integers_become_ints(self):
        i = np.int64
        reqs = (OfflineRequest(i(1), i(2), i(3), i(1), class_id=0), OfflineRequest(2, 1, 2, i(2)))
        inst = OfflineInstance(list(reqs), np.int32(9), np.int16(6), "token_throughput")
        fields = [inst.kv_capacity, inst.horizon]
        fields += [getattr(r, f) for r in inst.requests for f in ("id", "prompt_len", "decode_len", "arrival_slot")]
        assert all(type(v) is int for v in fields)
        assert type(inst.requests) is tuple
        plain = OfflineInstance.build([(2, 3, 1), (1, 2, 2)], 9, 6, "token_throughput")
        assert inst.as_dict()["requests"][1] == plain.as_dict()["requests"][1]
        assert oracle.solve(inst).value == oracle.solve(plain).value

    def test_stream_is_built_in_arrival_order(self):
        inst = OfflineInstance(
            (OfflineRequest(5, 1, 1, 2), OfflineRequest(3, 1, 1, 2), OfflineRequest(4, 1, 1, 1)),
            10,
            3,
            "request_throughput",
        )
        assert [[r.id for r in slot] for slot in inst._stream.slots] == [[4], [3, 5], []]
        assert inst._stream is inst._stream
        assert oracle.solve(inst).value == 1
