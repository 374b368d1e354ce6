"""Property tests: the projection-based policies against brute-force
references, on random small workloads run through engine.run.

Each reference is the policy's rule written out literally over
core.peak_projection, recomputed from the view every slot; the checked
policies compare their own decision with it before handing it to the
engine. Examples are derandomized, so the module is deterministic.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvflow.core import Request, peak_projection
from kvflow.engine import run as engine_run
from kvflow.policies import (
    AdaptivePrediction,
    MemoryConstrained,
    ShortestFirstMemoryConstrained,
    make_policy,
)

PROPERTY = settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workloads(draw, hidden=True):
    """Up to 30 requests over up to 60 slots: (slots, kv_capacity).

    Prompts stay below the smallest budget, so no request is oversized.
    With hidden=True each request's output is visible or hidden at random.
    """
    horizon = draw(st.integers(1, 60))
    n = draw(st.integers(0, 30))
    drawn = []
    for _ in range(n):
        arrival = draw(st.integers(1, horizon))
        prompt_len = draw(st.integers(1, 8))
        decode_len = draw(st.integers(1, 24))
        known = draw(st.booleans()) if hidden else True
        drawn.append((arrival, prompt_len, decode_len, known))
    drawn.sort(key=lambda x: x[0])
    slots = [[] for _ in range(horizon)]
    for rid, (arrival, prompt_len, decode_len, known) in enumerate(drawn, start=1):
        slots[arrival - 1].append(
            Request(
                id=rid,
                prompt_len=prompt_len,
                decode_len=decode_len,
                arrival_slot=arrival,
                class_id=rid % 3,
                output_known=known,
            )
        )
    kv_capacity = draw(st.integers(9, 90))
    return slots, kv_capacity


def fits(entries, prompt_len, assumed_len, kv_capacity):
    """Would a candidate (prompt_len, assumed_len) fit next to entries,
    (prompt_len, generated, length) triples, at every depth of its life?"""
    proj = peak_projection(entries, assumed_len)
    return all(proj[d - 1] + prompt_len + d <= kv_capacity for d in range(1, assumed_len + 1))


class CheckedMC(MemoryConstrained):
    """mc, checked every slot against FIFO admission with a head-of-line stop."""

    def decide(self, view):
        assume = self.assume_max_output
        entries = [
            (a.prompt_len, a.generated, a.decode_len if a.decode_len is not None else max(assume, a.generated + 1))
            for a in view.iter_active()
        ]
        expected = []
        for w in view.iter_waiting():
            x = w.decode_len if w.decode_len is not None else assume
            if not fits(entries, w.prompt_len, x, view.kv_capacity):
                break
            entries.append((w.prompt_len, 0, x))
            expected.append(w.id)
        decision = super().decide(view)
        assert decision.to_activate == expected, view.clock
        return decision


class CheckedSF(ShortestFirstMemoryConstrained):
    """mc_sf, checked every slot against a scan in (decode_len, arrival,
    id) order that skips infeasible candidates."""

    def decide(self, view):
        entries = [(a.prompt_len, a.generated, a.decode_len) for a in view.iter_active()]
        expected = []
        for w in sorted(view.iter_waiting(), key=lambda w: (w.decode_len, w.arrival_slot, w.id)):
            if fits(entries, w.prompt_len, w.decode_len, view.kv_capacity):
                entries.append((w.prompt_len, 0, w.decode_len))
                expected.append(w.id)
        decision = super().decide(view)
        assert decision.to_activate == expected, view.clock
        return decision


class CheckedAmin(AdaptivePrediction):
    """amin, checked every slot: FIFO admission with skips under the
    current predictions, and eviction in ascending order of the prediction
    a request was admitted under, most recent activation first among
    equals, each victim's prediction raised to max(2 * p, generated + 1)."""

    def reset(self, seed_seq=None):
        super().reset(seed_seq)
        self.admitted_under = {}  # active id -> prediction at admission
        self.activation_seq = {}  # active id -> activation counter
        self.activations = 0

    def decide(self, view):
        entries = [
            (a.prompt_len, a.generated, max(self.admitted_under[a.id], a.generated + 1))
            for a in view.iter_active()
        ]
        expected = []
        predicted = {}
        for w in view.iter_waiting():
            x = predicted[w.id] = self.prediction(w.id)
            if fits(entries, w.prompt_len, x, view.kv_capacity):
                entries.append((w.prompt_len, 0, x))
                expected.append(w.id)
        decision = super().decide(view)
        assert decision.to_activate == expected, view.clock
        for rid in decision.to_activate:
            self.admitted_under[rid] = predicted[rid]
            self.activations += 1
            self.activation_seq[rid] = self.activations
        return decision

    def evict(self, view, required_release):
        order = sorted(
            view.iter_active(),
            key=lambda a: (self.admitted_under[a.id], -self.activation_seq[a.id]),
        )
        expected = []
        freed = 0
        for a in order:
            expected.append(a)
            freed += a.prompt_len + a.generated + 1
            if freed >= required_release:
                break
        decision = super().evict(view, required_release)
        assert decision.to_evict == [a.id for a in expected], view.clock
        for a in expected:
            assert self.prediction(a.id) == max(2 * self.admitted_under.pop(a.id), a.generated + 1)
            del self.activation_seq[a.id]
        return decision


@PROPERTY
@given(workloads(), st.integers(1, 30))
def test_mc_matches_fifo_reference(workload, assume):
    slots, kv = workload
    result = engine_run(slots, CheckedMC(assume_max_output=assume), kv)
    longest = max((r.decode_len for slot in slots for r in slot if not r.output_known), default=0)
    if assume >= longest:
        # every assumed length is an upper bound: the projection never lies
        assert result.overflow_slots == 0


@PROPERTY
@given(workloads(hidden=False))
def test_mc_sf_matches_sorted_reference(workload):
    slots, kv = workload
    result = engine_run(slots, CheckedSF(), kv)
    assert result.overflow_slots == 0


@PROPERTY
@given(workloads(), st.integers(1, 6))
def test_amin_matches_reference(workload, min_output):
    slots, kv = workload
    engine_run(slots, CheckedAmin(min_output=min_output), kv)


POLICIES = (
    ("flow_per_class", {"budgets": [1, 2, 1]}),
    ("flow_scalar", {"budget": "3/2"}),
    ("alpha_protection", {"alpha": "1/5"}),
    ("mc", {"assume_max_output": 12}),
    ("amin", {"min_output": 2}),
)


@settings(PROPERTY, max_examples=100)
@given(workloads())
def test_every_policy_stays_within_budget(workload):
    slots, kv = workload
    arrivals = sum(map(len, slots))
    for name, params in POLICIES:
        result = engine_run(slots, make_policy(name, params), kv)
        assert result.max_usage <= kv, name
        assert result.completed_count + result.final_waiting + result.final_active == arrivals, name
