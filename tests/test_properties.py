"""Property tests: the deterministic policies against brute-force
references, on random small workloads run through engine.run.

Each reference is the policy's rule written out literally (over
references.peak_projection for the projection-based ones), recomputed from the
view every slot; the checked policies compare their own decision with it
before handing it to the engine, and flow_scalar's is checked after the
run against the budgets it drew. The admission ledger (AdmissionPlanner) is checked the same way
on its own, through random bookings, evictions and completions. Examples
are derandomized, so the module is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvflow.core import Request
from kvflow.engine import run as engine_run
from kvflow.policies import (
    AdaptivePrediction,
    AdmissionPlanner,
    MemoryConstrained,
    PerClassFlowControl,
    ScalarFlowControl,
    ShortestFirstMemoryConstrained,
    make_policy,
)
from references import peak_projection

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


def waiting_in_order(view):
    """The waiting requests in (arrival slot, id) order."""
    return sorted(view.iter_waiting(), key=lambda w: (w.arrival_slot, w.id))


class CheckedPerClass(PerClassFlowControl):
    """flow_per_class, checked every slot against the first b_k waiting
    requests of each class k in (arrival slot, id) order, class by class."""

    def decide(self, view):
        waiting = waiting_in_order(view)
        expected = []
        for k, budget in enumerate(self.budgets):
            expected += [w.id for w in waiting if w.class_id == k][:budget]
        decision = super().decide(view)
        assert decision.to_activate == expected, view.clock
        return decision


class RecordedScalar(ScalarFlowControl):
    """flow_scalar, keeping each slot's waiting ids in (arrival slot, id)
    order and its activations, to be checked against RunResult.budgets."""

    def reset(self, seed_seq=None):
        super().reset(seed_seq)
        self.slots = []  # (waiting ids in order, activated ids), one per slot

    def decide(self, view):
        waiting = [w.id for w in waiting_in_order(view)]
        decision = super().decide(view)
        self.slots.append((waiting, decision.to_activate))
        return decision


@PROPERTY
@given(workloads(), st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_flow_per_class_matches_reference(workload, budgets):
    slots, kv = workload
    engine_run(slots, CheckedPerClass(budgets), kv)


@PROPERTY
@given(workloads(), st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
def test_flow_scalar_matches_reference(workload, budget):
    slots, kv = workload
    policy = RecordedScalar(budget)
    result = engine_run(slots, policy, kv, seed=7)
    budgets = result.budgets.tolist()
    assert len(policy.slots) == len(budgets) == len(slots)
    for t, ((waiting, activated), b_t) in enumerate(zip(policy.slots, budgets), start=1):
        assert b_t in (int(budget), -(-budget.numerator // budget.denominator)), t
        assert activated == waiting[:b_t], t


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


@st.composite
def ledger_scripts(draw):
    """A kv budget and up to 30 slots of ledger changes: each slot books
    some requests, some (l, x) queries, some evictions and some
    completions, drawn as fractions of what is live so they stay valid.

    The budget is either tight (10-120 tokens), where most queries take
    the exact path, or loose against the bookings (up to 3 000 tokens),
    where the depth-1 total and the bound answer most of them. A query
    may ask for a prompt length within two tokens of the largest that
    fits, so answers at the boundary are checked too. A booking that is
    not exact may assume a window of a few slots and stay long past it,
    overdue, before it is evicted or finishes. Queries reach depth 40,
    past every booking (30 at most) and past any earlier query. Some slots
    also compare the projection, which makes the planner keep its dense
    vector for the rest of the slot."""
    kv_capacity = draw(st.one_of(st.integers(10, 120), st.integers(121, 3000)))
    slots = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "book": st.lists(
                        st.tuples(
                            st.integers(1, 9),
                            st.one_of(st.integers(1, 4), st.integers(1, 30)),
                            st.booleans(),
                            st.integers(1, 3),
                        ),
                        max_size=3,
                    ),
                    "ask": st.lists(
                        st.tuples(
                            st.integers(1, 9),
                            st.integers(1, 40),
                            st.integers(1, 6),
                            st.one_of(st.none(), st.integers(-2, 2)),
                        ),
                        max_size=3,
                    ),
                    "project": st.one_of(st.none(), st.integers(1, 40)),
                    "evict": st.lists(st.floats(0, 1, exclude_max=True), max_size=2),
                    "finish": st.lists(st.floats(0, 1, exclude_max=True), max_size=2),
                }
            ),
            min_size=1,
            max_size=30,
        )
    )
    return kv_capacity, slots, draw(st.booleans())


def check_ledger(planner, booked, clock, slot, finishing=()):
    """feasible, max_admissible and (when the slot says so) projection
    against references.peak_projection over the booked requests: an exact one
    holds its length, one that is not exact counts as at least one token
    past what it generated, and one finishing in this slot (finishing)
    counts in it alone."""
    kv = planner.kv_capacity
    entries = []
    for rid, (l, s, x, exact) in booked.items():
        g = clock - s
        entries.append((l, g, g + 1 if rid in finishing else x if exact else max(x, g + 1)))
    for l, x, limit, edge in slot["ask"]:
        if edge is not None:
            # the largest prompt length that fits, moved by edge
            proj = peak_projection(entries, x)
            l = max(1, kv - max(proj[d - 1] + d for d in range(1, x + 1)) + edge)
        assert planner.feasible(l, x) == fits(entries, l, x, kv), (l, x)
        copies = 0
        while copies < limit and fits(entries + [(l, 0, x)] * copies, l, x, kv):
            copies += 1
        assert planner.max_admissible(l, x, limit) == copies, (l, x, limit)
    if slot["project"] is not None:
        assert planner.projection(slot["project"]) == peak_projection(entries, slot["project"])


@settings(PROPERTY, max_examples=200)
@given(ledger_scripts())
def test_ledger_matches_projection_reference(script):
    kv_capacity, slots, grouped = script
    planner = AdmissionPlanner(kv_capacity=kv_capacity)
    if grouped:
        list(planner.iter_by_assumed_len())  # from here on, bookings are grouped by length
    booked = {}  # id -> (prompt_len, booking slot, assumed_len, exact)
    next_id = 1
    for clock, slot in enumerate(slots, start=1):
        planner.advance(clock)
        check_ledger(planner, booked, clock, slot)
        for l, x, exact, count in slot["book"]:
            ids = list(range(next_id, next_id + count))
            next_id += count
            planner.admit_many(count, l, x, ids, exact=exact)
            booked.update(dict.fromkeys(ids, (l, clock, x, exact)))
            check_ledger(planner, booked, clock, slot)
        assert planner.take_booked() == [rid for rid, (_, s, _, _) in booked.items() if s == clock]
        live = list(booked)
        victims = sorted({live[int(f * len(live))] for f in slot["evict"]} if live else ())
        if victims:
            planner.remove(*victims)
            for rid in victims:
                del booked[rid]
            check_ledger(planner, booked, clock, slot)
        # exact requests finish on schedule; the others wherever drawn
        due = [rid for rid, (_, s, x, exact) in booked.items() if exact and s + x - 1 == clock]
        live = [rid for rid, entry in booked.items() if not entry[3]]
        due += sorted({live[int(f * len(live))] for f in slot["finish"]} if live else ())
        planner.complete(*due)
        check_ledger(planner, booked, clock, slot, finishing=set(due))
        for rid in due:
            del booked[rid]
    if grouped:
        # eviction order: shortest assumed length first, latest booking first
        want = sorted(booked, key=lambda rid: (booked[rid][2], -rid))
        assert [rid for _, rid in planner.iter_by_assumed_len()] == want
