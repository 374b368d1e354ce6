"""Core memory accounting: lifetime token cost, usage, and projections."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvflow.core import (
    EngineError,
    Request,
    RequestClass,
    SimState,
    WaitingQueue,
    peak_projection,
    usage,
    workload_tokens,
)
from kvflow.policies import PolicyView

# as in test_properties: derandomized, so a run is deterministic, and
# failures shrink to a short operation sequence
PROPERTY = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def brute_lifetime_tokens(prompt_len: int, decode_len: int) -> int:
    # Independent route: literally add the per-slot footprint l + j over
    # the request's decode positions.
    return sum(prompt_len + j for j in range(1, decode_len + 1))


def brute_projection(entries, horizon):
    # Independent route: advance each request slot by slot instead of using
    # the closed-form alive test.
    totals = [0] * horizon
    for prompt_len, generated, decode_len in entries:
        g = generated
        for d in range(horizon):
            g += 1
            if g > decode_len:
                break
            totals[d] += prompt_len + g
    return totals


def arrival_key(r):
    # the reference order, written out rather than taken from core
    return (r.arrival_slot, r.id)


def make_active_request(req_id, prompt_len, decode_len, activation_slot, clock):
    r = Request(
        id=req_id,
        prompt_len=prompt_len,
        decode_len=decode_len,
        arrival_slot=activation_slot,
    )
    r.activation_slot = activation_slot
    return r


class TestWorkloadTokens:
    def test_frozen_values(self):
        assert workload_tokens(10, 20) == 410
        assert workload_tokens(10, 40) == 1220
        assert workload_tokens(10, 60) == 2430
        assert workload_tokens(1, 1) == 2

    def test_matches_bruteforce_everywhere(self):
        # Exhaustive over the full supported grid; closed form must agree
        # with the literal sum at every point.
        ls = np.arange(1, 257, dtype=np.int64)
        os_ = np.arange(1, 257, dtype=np.int64)
        closed = ls[:, None] * os_[None, :] + (os_ + os_ * os_)[None, :] // 2
        # independent accumulation: sum_{j<=o} (l + j) = l*o + cumsum(j)
        cum_j = np.cumsum(os_)
        brute = ls[:, None] * os_[None, :] + cum_j[None, :]
        assert np.array_equal(closed, brute)
        for l, o in [(1, 1), (10, 20), (7, 256), (256, 1), (13, 13)]:
            assert workload_tokens(l, o) == brute_lifetime_tokens(l, o)
            assert workload_tokens(l, o) == closed[l - 1, o - 1]

    def test_always_integer_and_positive(self):
        rng = random.Random(7)
        for _ in range(200):
            l = rng.randint(1, 500)
            o = rng.randint(1, 500)
            w = workload_tokens(l, o)
            assert isinstance(w, int)
            assert w >= l + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            workload_tokens(0, 5)
        with pytest.raises(ValueError):
            workload_tokens(5, 0)
        with pytest.raises(ValueError):
            workload_tokens(-1, -1)


class TestUsage:
    def test_single_request_end_of_activation_slot(self):
        # One active request (l=10, o=3) at the end of its activation slot
        # has generated one token, so it holds 11.
        state = SimState(kv_capacity=100, rng_seed=0)
        state.clock = 5
        r = make_active_request(1, 10, 3, activation_slot=5, clock=5)
        state.active[r.id] = r
        assert usage(state) == 11

    def test_empty_active_set(self):
        state = SimState(kv_capacity=100, rng_seed=0)
        state.clock = 3
        assert usage(state) == 0

    def test_permutation_invariance(self):
        rng = random.Random(123)
        for trial in range(25):
            state = SimState(kv_capacity=10**9, rng_seed=0)
            state.clock = 50
            reqs = []
            for i in range(rng.randint(1, 12)):
                act = rng.randint(30, 50)
                reqs.append(
                    make_active_request(i, rng.randint(1, 40), 60, act, 50)
                )
            for r in reqs:
                state.active[r.id] = r
            total = usage(state)
            state2 = SimState(kv_capacity=10**9, rng_seed=0)
            state2.clock = 50
            shuffled = reqs[:]
            rng.shuffle(shuffled)
            for r in shuffled:
                state2.active[r.id] = r
            assert usage(state2) == total
            # independent route: explicit sum of l + (clock - s + 1)
            assert total == sum(r.prompt_len + (50 - r.activation_slot + 1) for r in reqs)


class TestPeakProjection:
    def test_frozen_single(self):
        # (l=10, generated=1, o=3): one more decode slot at 12, completes at
        # 13, gone afterwards.
        assert peak_projection([(10, 1, 3)], 3) == [12, 13, 0]

    def test_frozen_pair(self):
        assert peak_projection([(5, 0, 2), (5, 1, 2)], 2) == [13, 7]

    def test_empty(self):
        assert peak_projection([], 4) == [0, 0, 0, 0]

    def test_matches_bruteforce_random(self):
        rng = random.Random(99)
        for trial in range(200):
            entries = []
            for _ in range(rng.randint(0, 8)):
                o = rng.randint(1, 30)
                g = rng.randint(0, o)
                entries.append((rng.randint(1, 50), g, o))
            horizon = rng.randint(1, 40)
            assert peak_projection(entries, horizon) == brute_projection(entries, horizon)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            peak_projection([(5, 0, 2)], 0)


class TestRequestAndClass:
    def test_request_class_validation(self):
        RequestClass(prompt_len=10, decode_len=20, rate=1.5)
        with pytest.raises(ValueError):
            RequestClass(prompt_len=0, decode_len=20, rate=1.0)
        with pytest.raises(ValueError):
            RequestClass(prompt_len=10, decode_len=0, rate=1.0)
        with pytest.raises(ValueError):
            RequestClass(prompt_len=10, decode_len=20, rate=-0.1)

    @pytest.mark.parametrize(
        "prompt_len, decode_len, bad",
        [(2.5, 3, "prompt_len must be a positive integer, got 2.5"), (2, 3.0, "decode_len must be a positive integer, got 3.0"), (True, 3, "prompt_len must be a positive integer, got True")],
    )
    def test_request_class_lengths_must_be_ints(self, prompt_len, decode_len, bad):
        with pytest.raises(ValueError, match=bad):
            RequestClass(prompt_len, decode_len, 1)

    def test_request_lifecycle_fields(self):
        r = Request(id=7, prompt_len=4, decode_len=9, arrival_slot=3)
        assert r.activation_slot is None
        assert r.output_known
        # the activation slot is the only state a run writes into a request
        assert not hasattr(r, "completion_slot") and not hasattr(r, "evictions")


# an index into whatever list an operation picks from, reduced modulo its length
PICK = st.integers(0, 1 << 16)

# fresh arrivals (how many, and whether the slot then moves on), eviction
# re-entries, removals at the front or anywhere, and full-order checks
QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 3), st.booleans()),
        st.tuples(st.just("readmit"), PICK),
        st.tuples(st.just("remove"), st.booleans(), PICK),
        st.tuples(st.just("check")),
    ),
    max_size=150,
)

# as QUEUE_OPS, with a prompt length per arrival (its group key is the
# length modulo 3), re-entries that may move to another key, removals from
# one group, and a count_before probe after every operation
GROUPED_OPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("push"), st.lists(st.integers(1, 6), max_size=4), st.booleans()),
            st.tuples(st.just("readmit"), PICK, st.one_of(st.none(), st.integers(0, 4))),
            st.tuples(st.just("remove"), PICK, st.booleans(), PICK),
        ),
        st.tuples(PICK, PICK),
    ),
    max_size=120,
)


class TestWaitingQueue:
    @settings(PROPERTY, max_examples=200)
    @given(QUEUE_OPS)
    def test_matches_sorted_reference_under_random_operations(self, ops):
        # fresh arrivals, eviction re-entries at their arrival position, and
        # removals at the front (as FIFO policies activate) or anywhere;
        # iteration must always give (arrival_slot, id) order
        q = WaitingQueue()
        live = {}
        taken = []
        next_id, slot = 1, 1
        for op, *args in ops:
            if op == "push":
                count, moves_on = args
                for _ in range(count):
                    r = Request(next_id, 1, 1, slot)
                    q.push(r)
                    live[r.id] = r
                    next_id += 1
                slot += moves_on
            elif op == "readmit" and taken:
                r = taken.pop(args[0] % len(taken))
                q.readmit(r)
                live[r.id] = r
            elif op == "remove" and live:
                front, pick = args
                order = sorted(live.values(), key=arrival_key)
                r = order[0 if front else pick % len(order)]
                assert q.remove(r.id) is r
                del live[r.id]
                taken.append(r)
            elif op == "check":
                expected = sorted(live.values(), key=arrival_key)
                assert [r.id for r in q] == [r.id for r in expected]
            assert len(q) == len(live)
            assert all(rid in q for rid in live)
        assert [r.id for r in q] == [r.id for r in sorted(live.values(), key=arrival_key)]

    @settings(PROPERTY, max_examples=150)
    @given(GROUPED_OPS)
    def test_grouped_queue_matches_sorted_reference(self, ops):
        # requests keyed into groups; a re-entering request may come back
        # under another key (as amin's raised prediction moves it), and
        # removals hit a group's head or anywhere in it
        moved = {}  # id -> the key it re-enters under
        q = WaitingQueue(lambda r: moved.get(r.id, r.prompt_len % 3))
        live = {}  # id -> (request, its group key)
        taken = []
        next_id, slot = 1, 1
        for (op, *args), (probe_slot, probe_id) in ops:
            if op == "push":
                prompts, moves_on = args
                for prompt_len in prompts:
                    r = Request(next_id, prompt_len, 1, slot)
                    q.push(r)
                    live[r.id] = (r, prompt_len % 3)
                    next_id += 1
                slot += moves_on
            elif op == "readmit" and taken:
                pick, key = args
                r = taken.pop(pick % len(taken))
                if key is not None:
                    moved[r.id] = key
                q.readmit(r)
                live[r.id] = (r, moved.get(r.id, r.prompt_len % 3))
            elif op == "remove" and live:
                key_pick, front, pick = args
                keys = sorted({k for _, k in live.values()})
                key = keys[key_pick % len(keys)]
                members = sorted((r for r, k in live.values() if k == key), key=arrival_key)
                r = members[0 if front else pick % len(members)]
                assert q.remove(r.id) is r
                del live[r.id]
                taken.append(r)
            self.check_groups(q, live, (probe_slot % (slot + 2), probe_id % (next_id + 1)))

    def test_live_groups_after_taking_the_last_entries_behind_a_head(self):
        # removals from the middle leave each list's head in place, so a
        # list that still holds entries always has a live one
        q = WaitingQueue(lambda r: r.prompt_len)
        for rid in (1, 2, 3):
            q.push(Request(rid, 5, 1, 0))
        q.push(Request(4, 6, 1, 0))
        q.remove(1)  # the main list's head moves past a consumed entry
        q.remove(3)  # the last entry, taken from behind the head
        five, six = q.groups[5], q.groups[6]
        assert q.live_groups() == [five, six] and five.head().id == 2
        q.remove(2)
        assert q.live_groups() == [six] and not five._main
        for rid in (3, 1, 2):  # re-entries: the side list, then the same taking
            q.readmit(Request(rid, 5, 1, 0))
        q.remove(1)
        q.remove(3)
        assert q.live_groups() == [five, six] and five.head().id == 2
        q.remove(2)
        assert q.live_groups() == [six] and not five._side
        q.remove(4)
        assert q.live_groups() == []

    @staticmethod
    def check_groups(q, live, probe):
        expected = {}
        for r, key in live.values():
            expected.setdefault(key, []).append(r)
        for members in expected.values():
            members.sort(key=arrival_key)
        groups = q.groups
        assert {k for k, g in groups.items() if len(g)} == set(expected)
        assert q.live_groups() == [g for g in groups.values() if len(g)]
        for key, members in expected.items():
            group = groups[key]
            assert len(group) == len(members)
            assert [r.id for r in group] == [r.id for r in members]
            assert group.head() is members[0]
            assert group.count_before(*probe) == sum(arrival_key(r) < probe for r in members)
        merged = sorted((r for r, _ in live.values()), key=arrival_key)
        view = PolicyView(clock=0, kv_capacity=1, usage=0, waiting=q, active={})
        assert [w.id for w in view.iter_waiting()] == [r.id for r in merged]
        assert len(q) == len(live)

    def test_remove_of_an_absent_id_raises(self):
        q = WaitingQueue()
        q.push(Request(1, 1, 1, 1))
        q.remove(1)
        with pytest.raises(EngineError, match="not waiting"):
            q.remove(1)
