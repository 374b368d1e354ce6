"""Engine tests: hand-traced slot accounting, eviction semantics, and
an event-log replay that recomputes the usage series independently."""

import csv
import dataclasses
import hashlib
import json
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from kvflow.cli import write_usage_series_csv
from kvflow.presets import builtin_trace_path
from kvflow.core import EngineError, OversizedRequestError, Request, RequestClass, usage
from kvflow.engine import (
    _EVENT_CHUNK_ROWS,
    EVENT_FIELDS,
    Engine,
    RunResult,
    event_rows,
    run,
    write_events_csv,
)
from kvflow.policies import (
    ActivationDecision,
    EvictionDecision,
    FixedSchedule,
    Policy,
    make_policy,
)
from kvflow.workload import WorkloadSpec, generate_arrivals, ingest_trace


def req(rid, l, o, arrival, known=True, class_id=None):
    return Request(
        id=rid,
        prompt_len=l,
        decode_len=o,
        arrival_slot=arrival,
        class_id=class_id,
        output_known=known,
    )


def replay_usage_series(events, lengths, horizon):
    """Recompute the per-slot usage from the event log alone.

    lengths maps id -> (prompt_len, decode_len). The recomputation keeps
    its own active map and sums prompt_len + generated from scratch each
    slot, so it shares no accounting with the engine.
    """
    by_slot = defaultdict(list)
    for ev in events:
        by_slot[ev[0]].append(ev)
    active = {}
    series = []
    for t in range(1, horizon + 1):
        for _, kind, rid, _ in by_slot.get(t, ()):
            if kind == "activate":
                active[rid] = t
            elif kind == "evict":
                active.pop(rid)
        u = 0
        for rid, s in active.items():
            u += lengths[rid][0] + (t - s) + 1
        series.append(u)
        for _, kind, rid, _ in by_slot.get(t, ()):
            if kind == "complete":
                s = active.pop(rid)
                # a completion must land exactly decode_len slots after activation
                assert t - s + 1 == lengths[rid][1]
    return series


class TestSingleRequestTrace:
    def make(self):
        arrivals = [[req(1, 3, 2, 1)], [], []]
        return run(arrivals, FixedSchedule({1: [1]}), kv_capacity=100, record_events=True)

    def test_usage_series(self):
        r = self.make()
        assert r.usage.tolist() == [4, 5, 0]

    def test_completion_and_latency(self):
        r = self.make()
        assert r.completed_slot.tolist() == [2]
        assert r.latencies().tolist() == [2]

    def test_token_series(self):
        r = self.make()
        assert r.prefill_tokens.tolist() == [3, 0, 0]
        assert r.decode_tokens.tolist() == [1, 1, 0]
        assert r.generated_tokens == 2

    def test_counts(self):
        r = self.make()
        assert r.arrivals_total == 1
        assert r.completed_count == 1
        assert r.final_waiting == 0 and r.final_active == 0
        assert r.overflow_slots == 0 and r.eviction_count == 0
        assert r.wasted_tokens == 0

    def test_event_sequence(self):
        r = self.make()
        assert list(event_rows(r.events)) == [
            (1, "arrive", 1, 0),
            (1, "activate", 1, 4),
            (1, "decode_step", 1, 4),
            (2, "decode_step", 1, 5),
            (2, "complete", 1, 0),
        ]


class TestEvictionTrace:
    """Two requests share a budget of 10; the second is evicted mid-decode,
    loses its generated tokens, and finishes after a fresh activation."""

    def make(self, record=False):
        arrivals = [[] for _ in range(10)]
        arrivals[0] = [req(1, 3, 5, 1), req(2, 3, 5, 1)]
        arrivals[1] = [req(3, 1, 1, 2)]
        policy = FixedSchedule({1: [1, 2], 6: [2]})
        return run(arrivals, policy, kv_capacity=10, record_events=record)

    def test_usage_series(self):
        r = self.make()
        assert r.usage.tolist() == [8, 10, 6, 7, 8, 4, 5, 6, 7, 8]

    def test_usage_never_exceeds_budget(self):
        r = self.make()
        assert r.max_usage == 10

    def test_eviction_counters(self):
        r = self.make()
        assert r.overflow_slots == 1
        assert r.eviction_count == 1
        # the victim had generated 2 tokens by the start of slot 3
        assert r.wasted_tokens == 2

    def test_completions(self):
        r = self.make()
        assert r.completed_slot.tolist() == [5, 10]
        assert r.completed_decode_len.tolist() == [5, 5]
        assert r.latencies().tolist() == [5, 10]

    def test_decomposition(self):
        # every decode step is either useful, wasted, or still in flight
        r = self.make()
        assert r.generated_tokens == int(r.decode_tokens.sum()) == 12
        assert r.generated_tokens == int(r.completed_decode_len.sum()) + r.wasted_tokens

    def test_lifo_picks_latest_activation(self):
        r = self.make(record=True)
        evicts = [e for e in r.events if e[1] == "evict"]
        assert evicts == [(3, "evict", 2, 6)]

    def test_overflow_event_precedes_eviction(self):
        r = self.make(record=True)
        kinds = [e[1] for e in r.events if e[0] == 3]
        assert kinds.index("overflow") < kinds.index("evict")

    def test_victim_rejoins_at_arrival_position(self):
        arrivals = [[req(1, 3, 5, 1), req(2, 3, 5, 1)], [req(3, 1, 1, 2)], []]
        victim, late = arrivals[0][1], arrivals[1][0]
        engine = Engine(FixedSchedule({1: [1, 2]}), kv_capacity=10)
        for batch in arrivals:
            engine.step(batch)
        # id 2 arrived in slot 1, so after eviction it waits ahead of id 3
        first, second = engine.state.waiting
        assert first is victim and second is late
        assert engine.eviction_count == 1
        assert victim.activation_slot is None


class TestPhaseOrdering:
    RANK = {"arrive": 0, "activate": 1, "overflow": 2, "evict": 3, "decode_step": 4, "complete": 5}

    def test_event_kinds_follow_phase_order_within_each_slot(self):
        spec = WorkloadSpec.synthetic(
            classes=[RequestClass(3, 4, Fraction(3, 2))], horizon=40, seed=5
        )
        stream = generate_arrivals(spec)
        policy = make_policy("alpha_protection", {"alpha": 0.0})
        r = run(stream, policy, kv_capacity=25, record_events=True)
        assert r.eviction_count > 0  # the scenario must exercise phase 3
        by_slot = defaultdict(list)
        for ev in r.events:
            by_slot[ev[0]].append(self.RANK[ev[1]])
        for slot, ranks in by_slot.items():
            assert ranks == sorted(ranks), f"phase order violated in slot {slot}"


class TestEvictionRestartsProgress:
    def make(self, record=False):
        # growth alone overflows the budget in slot 3; the later
        # activation (id 2, with 2 generated tokens) is evicted, waits out
        # id 1, and decodes from scratch after slot 9
        arrivals = [[] for _ in range(15)]
        arrivals[0] = [req(1, 2, 8, 1), req(2, 3, 7, 1)]
        policy = FixedSchedule({1: [1, 2], 9: [2]})
        return run(arrivals, policy, kv_capacity=10, record_events=record)

    def test_reactivated_request_decodes_from_scratch(self):
        r = self.make(record=True)
        assert (3, "evict", 2, 5) in r.events
        assert r.completed_slot.tolist() == [8, 15]
        # id 2 re-activated in slot 9 completes at 9 + 7 - 1 = 15
        completed = dict(zip(r.completed_slot.tolist(), r.completed_decode_len.tolist()))
        assert completed[15] == 7
        assert r.wasted_tokens == 2

    def test_stale_completion_booking_is_ignored(self):
        # the first activation of id 2 books a completion at slot 7, which
        # falls inside the run; only the fresh booking may fire
        r = self.make()
        assert r.completed_count == 2
        assert 7 not in r.completed_slot.tolist()


class TestStateValidation:
    def test_duplicate_arrival_id_rejected(self):
        with pytest.raises(EngineError, match="duplicate request id"):
            run([[req(1, 1, 1, 1)], [req(1, 1, 1, 2)]], FixedSchedule({}), kv_capacity=10)

    @pytest.mark.parametrize(
        "arrivals",
        [
            # the same id in two slots with another arrival between them;
            # (arrival_slot, id) still rises, so only the id check catches it
            [[req(5, 1, 1, 1)], [req(6, 1, 1, 2)], [], [req(5, 1, 1, 4)]],
            # the same id twice in one slot
            [[req(3, 1, 1, 1), req(3, 1, 1, 1)]],
        ],
    )
    def test_repeated_arrival_id_rejected(self, arrivals):
        with pytest.raises(EngineError, match="duplicate request id"):
            run(arrivals, FixedSchedule({}), kv_capacity=10)

    def test_activating_unknown_id_rejected(self):
        with pytest.raises(EngineError, match="not waiting"):
            run([[req(1, 1, 1, 1)]], FixedSchedule({1: [99]}), kv_capacity=10)

    def test_activating_same_id_twice_rejected(self):
        with pytest.raises(EngineError, match="duplicate id"):
            run([[req(1, 1, 1, 1)]], FixedSchedule({1: [1, 1]}), kv_capacity=10)

    def test_oversized_request_is_fatal_at_activation(self):
        with pytest.raises(OversizedRequestError, match="request 1 needs 11"):
            run([[req(1, 10, 1, 1)]], FixedSchedule({1: [1]}), kv_capacity=10)

    def test_under_evicting_policy_is_fatal(self):
        class Stubborn(Policy):
            name = "stubborn"

            def decide(self, view):
                return ActivationDecision([w.id for w in view.iter_waiting()])

            def evict(self, view, required_release):
                return EvictionDecision([])

        arrivals = [[req(1, 3, 3, 1), req(2, 3, 3, 1)]]
        with pytest.raises(EngineError, match="empty eviction"):
            run(arrivals, Stubborn(), kv_capacity=5)

    def test_evicting_inactive_id_rejected(self):
        class Wild(Policy):
            name = "wild"

            def decide(self, view):
                return ActivationDecision([w.id for w in view.iter_waiting()])

            def evict(self, view, required_release):
                return EvictionDecision([777])

        arrivals = [[req(1, 3, 3, 1), req(2, 3, 3, 1)]]
        with pytest.raises(EngineError, match="not active"):
            run(arrivals, Wild(), kv_capacity=5)

    @pytest.mark.parametrize(
        "booked, activated",
        [
            ([1, 2], [1]),  # books an id it does not activate
            ([1], [1, 2]),  # activates an id it did not book
            ([2, 1], [1, 2]),  # books both, out of activation order
        ],
    )
    def test_ledger_bookings_must_match_activations(self, booked, activated):
        class Misbooks(Policy):
            name = "misbooks"

            def assumed_len(self, req_id, decode_len):
                return decode_len

            def decide(self, view):
                if view.clock > 1:
                    return ActivationDecision([])
                view.ledger(self).admit_many(len(booked), 3, 3, req_ids=booked)
                return ActivationDecision(activated)

        arrivals = [[req(1, 3, 3, 1), req(2, 3, 3, 1)], [], [], []]
        with pytest.raises(EngineError, match="booked"):
            run(arrivals, Misbooks(), kv_capacity=100)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            Engine(FixedSchedule({}), kv_capacity=0)

    def test_fractional_capacity_rejected(self):
        with pytest.raises(ValueError, match="kv_capacity must be a positive integer, got 100.5"):
            Engine(FixedSchedule({}), kv_capacity=100.5)

    def test_per_class_series_past_int64_named(self):
        engine = Engine(FixedSchedule({}), kv_capacity=10, track_classes=2)
        engine.series_class_waiting.append((0, 2**63))
        with pytest.raises(EngineError, match=f"series class_waiting holds {2**63}"):
            engine.result()

    @pytest.mark.parametrize(
        "prompt_len, decode_len, bad",
        [
            (2, 0, "decode_len 0"),
            (-5, 3, "prompt_len -5"),
            (2.5, 3, "prompt_len 2.5"),
            (2, 1.5, "decode_len 1.5"),
        ],
    )
    def test_request_lengths_must_be_integers_of_at_least_one(self, prompt_len, decode_len, bad):
        arrivals = [[req(1, 2, 3, 1), req(2, prompt_len, decode_len, 1)], [], []]
        with pytest.raises(ValueError, match=f"request 2 has {bad}; it must be an integer >= 1"):
            run(arrivals, FixedSchedule({1: [1, 2]}), kv_capacity=100)

    @pytest.mark.parametrize("rid, arrival, bad", [(1.5, 1, "id 1.5"), (2, 1.0, "arrival_slot 1.0"), (True, 1, "id True")])
    def test_request_id_and_arrival_slot_must_be_integers(self, rid, arrival, bad):
        # an id of 1.5 would read 1 in the %d rows of the events CSV and
        # 1.5 in its decode rows
        arrivals = [[req(3, 2, 3, 1), req(rid, 2, 3, arrival)], [], []]
        with pytest.raises(ValueError, match=f"has {bad}; it must be an integer$"):
            run(arrivals, FixedSchedule({1: [3]}), kv_capacity=100, record_events=True)


class TestArrivalOrder:
    """A hand-built slot may list its requests in any order; run() queues
    them by (arrival_slot, id), so every policy serves them FIFO."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("flow_per_class", {"budgets": [3]}),
            ("flow_scalar", {"budget": 3}),
            ("alpha_protection", {"alpha": 0.25}),
            ("mc", {}),
            ("mc_sf", {}),
            ("amin", {"min_output": 1}),
        ],
    )
    def test_slot_listed_out_of_order_is_served_fifo(self, name, params):
        arrivals = [
            [req(5, 10, 4, 3, class_id=0), req(2, 10, 4, 1, class_id=0), req(3, 10, 4, 1, class_id=0)]
        ]
        r = run(arrivals, make_policy(name, params), kv_capacity=10**6, record_events=True)
        assert [rid for _, kind, rid, _ in r.events if kind == "activate"] == [2, 3, 5]

    def test_slot_ordering_before_an_earlier_slot_rejected(self):
        arrivals = [[req(2, 1, 1, 2)], [req(1, 1, 1, 1)]]
        with pytest.raises(EngineError, match="arrives after"):
            run(arrivals, make_policy("mc", {}), kv_capacity=10)


class TestIncrementalUsageMatchesRecompute:
    def test_usage_total_equals_scratch_recompute_every_slot(self):
        spec = WorkloadSpec.synthetic(
            classes=[RequestClass(4, 5, Fraction(1, 1))], horizon=60, seed=3
        )
        stream = generate_arrivals(spec)
        engine = Engine(make_policy("alpha_protection", {"alpha": 0.2}), kv_capacity=40)
        for batch in stream.slots:
            engine.step(batch)
            assert engine.state.usage_total == usage(engine.state)


FUZZ_CASES = [
    (True, "mc", {}),
    (True, "mc_sf", {}),
    (True, "flow_scalar", {"budget": Fraction(3, 2), "cap": 2}),
    (False, "flow_scalar", {"budget": Fraction(3, 2), "cap": 2}),
    (False, "alpha_protection", {"alpha": 0.25}),
    (False, "mc", {"assume_max_output": 6}),
    (False, "amin", {"min_output": 1}),
]


def random_workload(seed, horizon=60, known=True):
    rng = random.Random(seed)
    slots = []
    lengths = {}
    rid = 1
    for t in range(1, horizon + 1):
        batch = []
        for _ in range(rng.randrange(0, 3)):
            l, o = rng.randrange(1, 7), rng.randrange(1, 7)
            batch.append(req(rid, l, o, t, known=known))
            lengths[rid] = (l, o)
            rid += 1
        slots.append(batch)
    return slots, lengths


class TestFuzzAllPolicies:
    @pytest.mark.parametrize("known,name,params", FUZZ_CASES)
    @pytest.mark.parametrize("wseed", [1, 2, 3, 4, 5])
    def test_invariants_hold(self, known, name, params, wseed):
        slots, lengths = random_workload(wseed, known=known)
        policy = make_policy(name, params)
        r = run(slots, policy, kv_capacity=40, seed=7, record_events=True)

        # hard memory safety: recorded usage never exceeds the budget
        assert r.max_usage <= 40

        # the event log replays to the same usage series
        assert replay_usage_series(r.events, lengths, 60) == r.usage.tolist()

        # every request is accounted for exactly once
        assert r.arrivals_total == r.completed_count + r.final_waiting + r.final_active

        # nothing finishes faster than its decode length
        assert np.all(r.latencies() >= r.completed_decode_len)

    @pytest.mark.parametrize("known,name,params", FUZZ_CASES)
    def test_bit_identical_reruns(self, known, name, params):
        slots, _ = random_workload(9, known=known)
        a = run(slots, make_policy(name, params), kv_capacity=40, seed=3, record_events=True)
        slots, _ = random_workload(9, known=known)
        b = run(slots, make_policy(name, params), kv_capacity=40, seed=3, record_events=True)
        assert a.events == b.events
        for field in ("usage", "waiting_len", "active_len", "budgets", "prefill_tokens", "decode_tokens"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.as_dict() == b.as_dict()

    def test_planner_policies_never_evict(self):
        # full-lifetime projection admits only what is safe forever, so
        # mc and mc_sf runs finish without a single eviction
        for name in ("mc", "mc_sf"):
            slots, _ = random_workload(4, known=True)
            r = run(slots, make_policy(name, {}), kv_capacity=40)
            assert r.eviction_count == 0
            assert r.overflow_slots == 0


class TestStochasticBudgetSeries:
    def heavy_stream(self, seed):
        spec = WorkloadSpec.synthetic(
            classes=[RequestClass(2, 3, Fraction(2, 1))], horizon=400, seed=seed
        )
        return generate_arrivals(spec)

    def test_budget_draws_recorded_per_slot(self):
        policy = make_policy("flow_scalar", {"budget": Fraction(3, 2), "cap": 2})
        r = run(self.heavy_stream(1), policy, kv_capacity=10_000, seed=5)
        assert set(r.budgets.tolist()) == {1, 2}
        assert 1.3 <= r.budgets.mean() <= 1.7

    def test_budget_draws_depend_on_engine_seed(self):
        stream = self.heavy_stream(1)
        p = lambda: make_policy("flow_scalar", {"budget": Fraction(3, 2), "cap": 2})
        a = run(stream, p(), kv_capacity=10_000, seed=0)
        b = run(stream, p(), kv_capacity=10_000, seed=1)
        assert not np.array_equal(a.budgets, b.budgets)

    def test_budgetless_policies_record_sentinel(self):
        r = run([[req(1, 1, 1, 1)]], FixedSchedule({1: [1]}), kv_capacity=10)
        assert r.budgets.tolist() == [-1]


class TestPerClassQueueRecursion:
    def test_waiting_counts_follow_lindley_recursion(self):
        # with per-class budgets and no evictions, the end-of-slot backlog
        # of class k obeys q[t] = max(q[t-1] + arrivals[t] - b[k], 0)
        classes = [
            RequestClass(10, 20, Fraction(2, 1)),
            RequestClass(10, 40, Fraction(1, 1)),
        ]
        spec = WorkloadSpec.synthetic(classes=classes, horizon=200, seed=11)
        stream = generate_arrivals(spec)
        budgets = (1, 1)
        policy = make_policy("flow_per_class", {"budgets": budgets})
        r = run(stream, policy, kv_capacity=2000, track_classes=2)

        assert r.overflow_slots == 0 and r.eviction_count == 0
        counts = r.class_arrivals
        assert counts is not None
        expected = np.zeros_like(counts)
        q = np.zeros(2, dtype=np.int64)
        for t in range(len(counts)):
            q = np.maximum(q + counts[t] - np.asarray(budgets), 0)
            expected[t] = q
        assert np.array_equal(r.class_waiting, expected)

    def test_class_series_absent_by_default(self):
        r = run([[req(1, 1, 1, 1, class_id=0)]], FixedSchedule({1: [1]}), kv_capacity=10)
        assert r.class_waiting is None


class TestArrivalStreamPassthrough:
    def test_exhaustion_and_class_counts_carry_over(self):
        spec = WorkloadSpec.synthetic(
            classes=[RequestClass(2, 2, Fraction(1, 2))], horizon=30, seed=2
        )
        stream = generate_arrivals(spec)
        r = run(stream, make_policy("mc", {}), kv_capacity=100, track_classes=1)
        assert r.exhausted_slot == stream.exhausted_slot
        assert r.horizon == 30
        assert r.class_arrivals is stream.class_counts


class TestSerialization:
    def make(self):
        slots, _ = random_workload(2, known=True)
        return run(slots, make_policy("mc", {}), kv_capacity=40, record_events=True)

    def test_json_round_trip(self, tmp_path):
        r = self.make()
        path = tmp_path / "result.json"
        r.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["policy"] == "mc"
        assert doc["completed"] == r.completed_count
        assert doc["series"]["usage"] == r.usage.tolist()
        assert len(doc["series"]["usage"]) == r.horizon

    def test_series_csv_shape(self, tmp_path):
        r = self.make()
        path = tmp_path / "series.csv"
        r.write_series_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == r.horizon + 1
        assert lines[0].startswith("slot,usage,waiting,active")

    def test_events_csv(self, tmp_path):
        r = self.make()
        path = tmp_path / "events.csv"
        write_events_csv(r.events, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,kind,request_id,usage_after"
        rows = list(event_rows(r.events))
        assert len(lines) == len(rows) + 1
        first = rows[0]
        assert lines[1] == f"{first[0]},{first[1]},{first[2]},{first[3]}"

    def test_events_omitted_unless_recorded(self):
        slots, _ = random_workload(2, known=True)
        r = run(slots, make_policy("mc", {}), kv_capacity=40)
        assert r.events is None


def csv_writer_events(events, path):
    """The csv.writer loop write_events_csv replaced, over the log's rows:
    the byte reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(EVENT_FIELDS)
        for row in event_rows(events):
            w.writerow(row)


def csv_writer_series(r, path):
    """The per-cell loop RunResult.write_series_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "usage", "waiting", "active", "budget", "prefill_tokens", "decode_tokens"])
        for i in range(r.horizon):
            w.writerow(
                [
                    i + 1,
                    int(r.usage[i]),
                    int(r.waiting_len[i]),
                    int(r.active_len[i]),
                    int(r.budgets[i]),
                    int(r.prefill_tokens[i]),
                    int(r.decode_tokens[i]),
                ]
            )


def csv_writer_usage_series(seeds, usages, path):
    """The per-cell loop cli.write_usage_series_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["slot"] + [f"usage_seed{s}" for s in seeds])
        for i in range(len(usages[0])):
            w.writerow([i + 1] + [int(u[i]) for u in usages])


class TestArtifactBytes:
    """The artifact writers against the csv.writer loops they replaced,
    compared as bytes so line endings count."""

    POLICIES = [
        ("flow_per_class", {"budgets": (1, 1)}),
        ("flow_scalar", {"budget": 2}),
        ("alpha_protection", {"alpha": 0.5}),
        ("mc", {}),
        ("mc_sf", {}),
        ("amin", {"min_output": 3}),
    ]

    @pytest.fixture(scope="class")
    def results(self):
        classes = [RequestClass(4, 3, Fraction(2)), RequestClass(2, 6, Fraction(2))]
        spec = WorkloadSpec.synthetic(classes, horizon=200, seed=1)
        return [
            run(
                generate_arrivals(spec, seed=1),
                make_policy(name, params),
                kv_capacity=60,
                seed=1,
                record_events=True,
            )
            for name, params in self.POLICIES
        ]

    def assert_same_events(self, events, tmp_path):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        write_events_csv(iter(events), fast)
        csv_writer_events(events, ref)
        assert fast.read_bytes() == ref.read_bytes()

    def test_policy_logs(self, results, tmp_path):
        kinds = {kind for r in results for _, kind, _, _ in event_rows(r.events)}
        assert kinds == {"arrive", "activate", "overflow", "evict", "decode_step", "complete"}
        assert any(row[2] == -1 for r in results for row in event_rows(r.events))
        for r in results:
            self.assert_same_events(r.events, tmp_path)

    def test_empty_log(self, tmp_path):
        self.assert_same_events([], tmp_path)
        assert (tmp_path / "fast.csv").read_bytes() == b"slot,kind,request_id,usage_after\r\n"

    def test_logs_across_chunk_boundaries(self, results, tmp_path):
        chunk = _EVENT_CHUNK_ROWS
        events = [row for r in results for row in event_rows(r.events)]
        assert len(events) > 2 * chunk
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk, len(events)):
            self.assert_same_events(events[:n], tmp_path)

    def test_decode_entry_straddles_chunk_boundary(self, tmp_path):
        # the decode entry's rows run from row chunk - 2 to row chunk + 2
        chunk = _EVENT_CHUNK_ROWS
        events = [(1, "arrive", rid, 0) for rid in range(1, chunk - 2)]
        events.append((2, "decode_step", tuple(range(1, 6)), 1234))
        events.append((2, "complete", 3, 1200))
        assert len(list(event_rows(events))) == chunk + 3
        self.assert_same_events(events, tmp_path)
        text = (tmp_path / "fast.csv").read_text()
        assert text.count("2,decode_step,") == 5

    def test_single_active_request(self, tmp_path):
        r = run([[req(1, 3, 2, 1)], []], FixedSchedule({1: [1]}), kv_capacity=10, record_events=True)
        decode = [e for e in r.events if e[1] == "decode_step"]
        assert decode == [(1, "decode_step", (1,), 4), (2, "decode_step", (1,), 5)]
        self.assert_same_events(r.events, tmp_path)
        assert (tmp_path / "fast.csv").read_bytes().endswith(b"2,decode_step,1,5\r\n2,complete,1,0\r\n")

    def test_slots_with_empty_active_set(self, tmp_path):
        # nothing is active in slots 1, 4 and 5, so they record no decode
        # entry; an empty id tuple, hand-built, writes no row
        arrivals = [[req(1, 2, 2, 1)], [], [], [], []]
        r = run(arrivals, FixedSchedule({2: [1]}), kv_capacity=10, record_events=True)
        assert [e[0] for e in r.events if e[1] == "decode_step"] == [2, 3]
        self.assert_same_events(r.events, tmp_path)
        hand = [(1, "arrive", 1, 0), (1, "decode_step", (), 0), (2, "decode_step", (), 0)]
        assert list(event_rows(hand)) == [(1, "arrive", 1, 0)]
        self.assert_same_events(hand, tmp_path)
        assert (tmp_path / "fast.csv").read_bytes() == b"slot,kind,request_id,usage_after\r\n1,arrive,1,0\r\n"

    def test_hidden_output_run_with_large_active_sets(self, tmp_path):
        r = run(
            TestPinnedDigests.hidden_stream(),
            make_policy("flow_scalar", {"budget": 12}),
            kv_capacity=16492,
            seed=1,
            record_events=True,
        )
        # hundreds of ids in one decode entry
        assert max(len(e[2]) for e in r.events if e[1] == "decode_step") >= 300
        self.assert_same_events(r.events, tmp_path)

    def test_large_decode_entry_with_large_ids(self, tmp_path):
        big = 2**40
        events = [
            (7, "arrive", big, 0),
            (8, "decode_step", tuple(range(big, big + 5000)), 2**41 + 3),
            (8, "complete", big, 2**41),
        ]
        self.assert_same_events(events, tmp_path)
        text = (tmp_path / "fast.csv").read_bytes().decode()
        assert text.count(",decode_step,") == 5000
        assert f"8,decode_step,{big + 4999},{2**41 + 3}\r\n" in text

    def test_percent_in_a_decode_entry_is_written_as_is(self, tmp_path):
        # a hand-built entry: its fixed text goes through % formatting
        events = [(1, "decode%s", (4, 5), "9%d"), (2, "%", (6,), 7)]
        self.assert_same_events(events, tmp_path)
        assert (tmp_path / "fast.csv").read_bytes().endswith(b"1,decode%s,5,9%d\r\n2,%,6,7\r\n")

    def test_entry_count(self, results):
        # one entry per non-decode row, plus one per slot with a nonempty
        # active set
        for r in results:
            rows = list(event_rows(r.events))
            other = sum(1 for row in rows if row[1] != "decode_step")
            busy = int(np.count_nonzero(r.decode_tokens))
            assert len(r.events) == other + busy
            assert len(rows) - other == int(r.decode_tokens.sum())

    def test_series_csv(self, results, tmp_path):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        for r in results:
            r.write_series_csv(fast)
            csv_writer_series(r, ref)
            assert fast.read_bytes() == ref.read_bytes()

    def test_usage_series_csv(self, results, tmp_path):
        fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
        seeds = list(range(len(results)))
        usages = [r.usage for r in results]
        write_usage_series_csv(seeds, usages, fast)
        csv_writer_usage_series(seeds, usages, ref)
        assert fast.read_bytes() == ref.read_bytes()


class TestWastedWorkAccounting:
    def test_generated_splits_into_useful_wasted_and_in_flight(self):
        spec = WorkloadSpec.synthetic(
            classes=[RequestClass(4, 6, Fraction(2, 1))],
            horizon=80,
            seed=13,
            outputs_known=False,
        )
        stream = generate_arrivals(spec)
        engine = Engine(make_policy("alpha_protection", {"alpha": 0.1}), kv_capacity=50)
        for batch in stream.slots:
            engine.step(batch)
        r = engine.result()
        assert r.eviction_count > 0  # scenario must include wasted work
        in_flight = sum(
            engine.state.clock - a.activation_slot + 1
            for a in engine.state.active.values()
        )
        useful = int(r.completed_decode_len.sum())
        assert r.generated_tokens == useful + r.wasted_tokens + in_flight
        assert r.generated_tokens == int(r.decode_tokens.sum())


def result_digest(r):
    """sha256 over every RunResult array and counter plus the event log,
    taken row by row."""
    h = hashlib.sha256()
    for f in dataclasses.fields(r):
        value = getattr(r, f.name)
        if f.name == "events":
            value = list(event_rows(value))
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


class TestPinnedDigests:
    """Refactors of the engine, its queue and the policies must not change
    any result: these digests were taken before the waiting set moved into
    the engine-held groups."""

    # (policy, params, digest); alpha 0.3 is the one alpha_protection run
    # that overflows within 400 slots, so it covers whole-set re-entries
    OVERLOAD = [
        ("flow_per_class", {"budgets": [4, 4, 4]}, "cdeb7604ec395ba086f35c89e1eedfef430aa3e5957acb8855bf4777a3064784"),
        ("flow_scalar", {"budget": 12}, "323e897bb3af13d9d9c9b869837ac6ae33e5ca2c96a79fae3d3b9bab7554040d"),
        ("alpha_protection", {"alpha": 0.6}, "85be25b80843f819ee2978f683a464ad126c8d5e533798b71f052708175bfc9a"),
        ("alpha_protection", {"alpha": 0.3}, "7d04fb849e6fbd632e07df44fe65854718d3c9754e3223189f6cfb5ecf978f8e"),
        ("mc", {}, "98b0e49b211473aec9a9864632cac1f44fae9c7ede11e64637b7a058db0d195b"),
        ("mc_sf", {}, "18290c4c7e5cea855302f7bc7638c4ff5f6de5e833a84dca4d42db706e81c982"),
        ("amin", {"min_output": 20}, "1bfb6556b1cc5b5b42ba137923705a64fcacf3cd892bd55c43604b8255fec421"),
    ]
    HIDDEN = [
        ("flow_scalar", {"budget": 12}, "bb1d486969a76ab94ac0ec58990da8c4171b641a27404b46d2ee13c122bfb2cd"),
        ("alpha_protection", {"alpha": 0.6}, "dc4e22ebb7a2b17685ffa4c72690af9825684eee8d7ad3d45b59b6dcc9473dba"),
        ("mc", {"assume_max_output": 200}, "46bfe480be842d0f8775740ee742981e200e0e92bd4ce29276c6b6b4e706607a"),
        ("amin", {"min_output": 1}, "a1f2ca1b4f44b6c864f270db0061fb44f25e55c9d7c99203fad01b645a907bf9"),
        # windows of 1 000 and 2 000 slots: the ledger's dense vector that deep
        ("mc", {"assume_max_output": 1000}, "2627e5ff45157f2b94b3a04d5589d3645c2f97e03fe680ccf66c049bbdbf961e"),
        ("mc", {"assume_max_output": 2000}, "d6b592d31101a9b41936fc5ebee4df2f4470a2c82eb17525231bf9e0aceaa0d5"),
    ]

    @staticmethod
    def overload_stream():
        # the synthetic_overloaded mix at rate 5 per class, 123% of M
        classes = [RequestClass(10, o, 5) for o in (20, 40, 60)]
        return generate_arrivals(WorkloadSpec.synthetic(classes, horizon=400), seed=0)

    @staticmethod
    def hidden_stream():
        records = ingest_trace(builtin_trace_path("trace_1k")).records
        picks = np.random.default_rng(7).integers(0, len(records), size=5400)
        spec = WorkloadSpec.from_trace(
            [records[i] for i in picks.tolist()], rate=12, horizon=400, outputs_known=False
        )
        return generate_arrivals(spec, seed=1)

    @pytest.mark.parametrize("name, params, expected", OVERLOAD)
    def test_overload(self, name, params, expected):
        r = run(
            self.overload_stream(),
            make_policy(name, params),
            kv_capacity=16492,
            seed=0,
            record_events=True,
            track_classes=3,
        )
        assert result_digest(r) == expected

    @pytest.mark.parametrize("name, params, expected", HIDDEN)
    def test_hidden_outputs(self, name, params, expected):
        r = run(self.hidden_stream(), make_policy(name, params), kv_capacity=16492, seed=1, record_events=True)
        assert r.exhausted_slot is None
        assert result_digest(r) == expected

    def test_one_stream_replays_under_every_case_in_either_order(self):
        # a run writes nothing into a stream that a later run reads, so each
        # case gives its pinned digest on one shared stream, whatever ran on
        # it before
        overload, hidden = self.overload_stream(), self.hidden_stream()
        cases = [(overload, 0, 3, name, params, want) for name, params, want in self.OVERLOAD]
        cases += [(hidden, 1, None, name, params, want) for name, params, want in self.HIDDEN]
        for order in (cases, cases[::-1]):
            for stream, seed, track, name, params, want in order:
                r = run(
                    stream,
                    make_policy(name, params),
                    kv_capacity=16492,
                    seed=seed,
                    record_events=True,
                    track_classes=track,
                )
                assert result_digest(r) == want, (name, params)

    def test_mc_sf_interleaves_equal_decode_lengths(self):
        # two classes share decode length 40, so mc_sf admits runs of two
        # groups in turn; the overload mix above never interleaves
        classes = [RequestClass(l, o, 5) for l, o in ((10, 40), (30, 40), (10, 20))]
        stream = generate_arrivals(WorkloadSpec.synthetic(classes, horizon=400), seed=0)
        r = run(stream, make_policy("mc_sf", {}), kv_capacity=16492, seed=0, record_events=True, track_classes=3)
        assert result_digest(r) == "2fc3d599ace69e0ac563be8ee22a59d00ba0a00ed363c77291ab3c83b3668bb5"
