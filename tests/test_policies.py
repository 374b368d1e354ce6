"""Policy decision logic against hand-derived frozen cases."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from kvflow.core import EngineError, Request, RequestClass, WaitingQueue, peak_projection
from kvflow.engine import Engine, run as engine_run
from kvflow.policies import (
    POLICIES,
    ActivationDecision,
    AdmissionPlanner,
    AdaptivePrediction,
    AlphaProtection,
    FixedSchedule,
    MemoryConstrained,
    PerClassFlowControl,
    Policy,
    PolicyApplicabilityError,
    PolicyView,
    ScalarFlowControl,
    ShortestFirstMemoryConstrained,
    make_policy,
)
from kvflow.workload import WorkloadSpec


def waiting_req(req_id, prompt_len, decode_len, arrival=1, class_id=None, known=True):
    return Request(
        id=req_id,
        prompt_len=prompt_len,
        decode_len=decode_len,
        arrival_slot=arrival,
        class_id=class_id,
        output_known=known,
    )


def active_req(req_id, prompt_len, decode_len, activation_slot, known=True):
    r = Request(
        id=req_id,
        prompt_len=prompt_len,
        decode_len=decode_len,
        arrival_slot=activation_slot,
        output_known=known,
    )
    r.activation_slot = activation_slot
    return r


def view_of(clock, kv_capacity, waiting=(), active=(), policy=None):
    """A view over a real WaitingQueue, grouped by the policy's group key
    and filled in the order given, as Engine.step fills it (engine.run
    puts each slot in (arrival_slot, id) order first)."""
    queue = WaitingQueue(policy.group_key if policy is not None else None)
    for r in waiting:
        queue.push(r)
    active_map = {r.id: r for r in active}
    used = sum(r.prompt_len + (clock - r.activation_slot) for r in active_map.values())
    return PolicyView(
        clock=clock,
        kv_capacity=kv_capacity,
        usage=used,
        waiting=queue,
        active=active_map,
    )


class TestPerClassFlowControl:
    def test_budget_respected_fifo_within_class(self):
        p = PerClassFlowControl(budgets=(2, 1))
        p.reset()
        waiting = [
            waiting_req(1, 10, 20, class_id=0),
            waiting_req(2, 10, 20, class_id=0),
            waiting_req(3, 10, 20, class_id=0),
            waiting_req(4, 10, 40, class_id=1),
        ]
        d = p.decide(view_of(1, 10**6, waiting, policy=p))
        assert d.to_activate == [1, 2, 4]

    def test_leftover_waits_for_next_slot(self):
        p = PerClassFlowControl(budgets=(1,))
        p.reset()
        waiting = [waiting_req(1, 5, 5, class_id=0), waiting_req(2, 5, 5, class_id=0)]
        d1 = p.decide(view_of(1, 10**6, waiting, policy=p))
        assert d1.to_activate == [1]
        # next slot, nothing new arrives
        d2 = p.decide(view_of(2, 10**6, [waiting[1]], policy=p))
        assert d2.to_activate == [2]

    def test_unknown_class_id_rejected(self):
        p = PerClassFlowControl(budgets=(1,))
        p.reset()
        with pytest.raises(Exception, match="class id"):
            p.decide(view_of(1, 100, [waiting_req(1, 5, 5, class_id=7)], policy=p))

    def test_applicable_needs_one_budget_per_class(self):
        classes = [RequestClass(5, 5, 1)] * 3
        spec = WorkloadSpec.synthetic(classes, horizon=10)
        assert PerClassFlowControl(budgets=(1, 1, 1)).applicable(spec) is None
        for budgets in ((1, 1), (1, 1, 1, 1)):
            reason = PerClassFlowControl(budgets=budgets).applicable(spec)
            assert reason == f"needs one budget per class, got {len(budgets)} for 3 classes"

    def test_never_evicts_by_design_but_falls_back_safely(self):
        # the inherited fallback still produces a valid decision if a
        # misconfigured budget ever overflows
        p = PerClassFlowControl(budgets=(1,))
        a = active_req(1, 5, 9, activation_slot=1)
        d = p.evict(view_of(3, 10, active=[a]), required_release=1)
        assert d.to_evict == [1]


class TestScalarFlowControl:
    def test_integral_budget_every_slot(self):
        p = ScalarFlowControl(budget=4)
        p.reset(np.random.SeedSequence(0))
        waiting = [waiting_req(i, 10, 20, known=False) for i in range(1, 11)]
        d = p.decide(view_of(1, 10**6, waiting))
        assert d.budget == 4
        assert d.to_activate == [1, 2, 3, 4]

    def test_fifo_ignores_class(self):
        p = ScalarFlowControl(budget=2)
        p.reset(np.random.SeedSequence(0))
        waiting = [
            waiting_req(1, 10, 60, class_id=2, known=False),
            waiting_req(2, 10, 20, class_id=0, known=False),
            waiting_req(3, 10, 40, class_id=1, known=False),
        ]
        assert p.decide(view_of(1, 10**6, waiting)).to_activate == [1, 2]

    def test_fractional_budget_bernoulli_mean(self):
        p = ScalarFlowControl(budget=2.5)
        assert p.cap == 3
        p.reset(np.random.SeedSequence(123))
        waiting = [waiting_req(i, 1, 1, known=False) for i in range(1, 5)]
        draws = []
        for t in range(100_000):
            d = p.decide(view_of(t + 1, 10**9, waiting))
            draws.append(d.budget)
        assert set(draws) <= {2, 3}
        mean = sum(draws) / len(draws)
        se = 0.5 / len(draws) ** 0.5
        assert abs(mean - 2.5) <= 3 * se

    def test_cap_below_ceiling_rejected(self):
        with pytest.raises(ValueError):
            ScalarFlowControl(budget=2.5, cap=2)
        with pytest.raises(ValueError):
            ScalarFlowControl(budget=0)

    def test_lifo_eviction_minimal_prefix(self):
        # activation order 1, 2, 3; releases this slot are 8, 8, 6 tokens.
        # Freeing 10 takes the last two in reverse activation order.
        p = ScalarFlowControl(budget=1)
        actives = [
            active_req(1, 4, 30, activation_slot=7),
            active_req(2, 6, 30, activation_slot=9),
            active_req(3, 5, 30, activation_slot=10),
        ]
        v = view_of(10, 10**6, active=actives)
        d = p.evict(v, required_release=10)
        assert d.to_evict == [3, 2]
        # a single token of deficit only needs the most recent activation
        assert p.evict(v, required_release=1).to_evict == [3]


class TestAlphaProtection:
    def test_headroom_and_head_of_line(self):
        p = AlphaProtection(alpha=0.1)
        waiting = [waiting_req(1, 50, 5), waiting_req(2, 40, 5)]
        d = p.decide(view_of(1, 100, waiting))
        # 51 <= 90 admits; 51 + 41 = 92 > 90 stops the scan
        assert d.to_activate == [1]

    def test_boundary_total_exactly_at_threshold_admits(self):
        p = AlphaProtection(alpha=0.1)
        d = p.decide(view_of(1, 100, [waiting_req(1, 89, 5)]))
        assert d.to_activate == [1]
        d = p.decide(view_of(1, 100, [waiting_req(1, 90, 5)]))
        assert d.to_activate == []

    def test_head_of_line_blocks_feasible_followers(self):
        p = AlphaProtection(alpha=0.0)
        waiting = [waiting_req(1, 200, 5), waiting_req(2, 1, 5)]
        assert p.decide(view_of(1, 100, waiting)).to_activate == []

    def test_accounts_for_current_usage(self):
        p = AlphaProtection(alpha=0.0)
        a = active_req(1, 80, 50, activation_slot=1)
        # usage at decide time in slot 11 is 80 + 10 = 90
        v = view_of(11, 100, [waiting_req(2, 9, 5)], [a])
        assert p.decide(v).to_activate == [2]
        v = view_of(11, 100, [waiting_req(2, 10, 5)], [a])
        assert p.decide(v).to_activate == []

    def test_evicts_everything(self):
        p = AlphaProtection(alpha=0.2)
        actives = [active_req(i, 10, 30, activation_slot=i) for i in (1, 2, 3)]
        d = p.evict(view_of(5, 100, active=actives), required_release=1)
        assert d.to_evict == [1, 2, 3]

    def test_alpha_validation(self):
        AlphaProtection(alpha=0.0)
        with pytest.raises(ValueError):
            AlphaProtection(alpha=1.0)
        with pytest.raises(ValueError):
            AlphaProtection(alpha=-0.05)


class TestMemoryConstrained:
    def test_lifetime_peak_decides(self):
        p = MemoryConstrained()
        # alone, (l=10, o=3) peaks at exactly 13
        assert p.decide(view_of(1, 13, [waiting_req(1, 10, 3)])).to_activate == [1]
        assert p.decide(view_of(1, 12, [waiting_req(1, 10, 3)])).to_activate == []

    def test_projection_includes_active_set(self):
        p = MemoryConstrained()
        a = active_req(1, 10, 3, activation_slot=1)  # generated 1 entering slot 2
        # candidate (10, 3) joint trajectory peaks at 25 in offset 2
        assert p.decide(view_of(2, 25, [waiting_req(2, 10, 3)], [a])).to_activate == [2]
        assert p.decide(view_of(2, 24, [waiting_req(2, 10, 3)], [a])).to_activate == []

    def test_head_of_line_stop(self):
        p = MemoryConstrained()
        waiting = [waiting_req(1, 10, 3), waiting_req(2, 1, 1)]
        assert p.decide(view_of(1, 12, waiting)).to_activate == []

    def test_multiple_admissions_tighten(self):
        p = MemoryConstrained()
        waiting = [waiting_req(1, 5, 2), waiting_req(2, 5, 2), waiting_req(3, 5, 2)]
        # each peaks at 7; two together peak at 14
        assert p.decide(view_of(1, 14, waiting)).to_activate == [1, 2]

    def test_hidden_outputs_need_assumed_max(self):
        p = MemoryConstrained()
        with pytest.raises(PolicyApplicabilityError):
            p.decide(view_of(1, 100, [waiting_req(1, 10, 3, known=False)]))

    def test_early_completion_releases_the_assumed_tail(self):
        # request 1 is booked for 8 slots but finishes after 2; from slot 3
        # the ledger no longer holds its tail, so request 2 (peak 10 + 8)
        # fits next to nothing
        arrivals = [[waiting_req(1, 10, 2, known=False)], [waiting_req(2, 10, 8, arrival=2, known=False)]]
        arrivals += [[] for _ in range(10)]
        result = engine_run(arrivals, MemoryConstrained(assume_max_output=8), kv_capacity=20, record_events=True)
        activations = [(t, rid) for t, kind, rid, _ in result.events if kind == "activate"]
        assert activations == [(1, 1), (3, 2)]

    def test_hidden_outputs_use_worst_case(self):
        p = MemoryConstrained(assume_max_output=5)
        # true o = 1 but the policy must budget for o = 5: peak 15
        assert p.decide(view_of(1, 15, [waiting_req(1, 10, 1, known=False)])).to_activate == [1]
        assert p.decide(view_of(1, 14, [waiting_req(1, 10, 1, known=False)])).to_activate == []


    def test_batched_admission_matches_one_at_a_time(self):
        # decide admits each FIFO run of one (prompt, assumed length)
        # signature in bulk; the reference is the rule itself: feasible,
        # then admit, candidate by candidate, up to the first rejection
        rng = random.Random(2024)
        cut_mid_run = 0
        for _ in range(400):
            assume = rng.choice((3, 5, 8))
            clock = rng.randint(1, 6)
            active = []
            for rid in range(1, rng.randint(0, 4) + 1):
                o = rng.randint(1, 8)
                active.append(
                    active_req(rid, rng.randint(1, 4), o, clock - rng.randint(0, o - 1),
                               known=rng.random() < 0.5)
                )
            waiting = [
                waiting_req(100 + i, rng.choice((1, 2, 3)), rng.choice((2, 3)),
                            arrival=1 + i // 4, known=rng.random() < 0.6)
                for i in range(rng.randint(1, 14))
            ]
            kv = rng.randint(10, 80)
            view = view_of(clock, kv, waiting, active)

            ref = AdmissionPlanner(kv, clock=clock)
            for av in view.iter_active():
                x = av.decode_len if av.decode_len is not None else max(assume, av.generated + 1)
                ref.bootstrap(av.id, av.prompt_len, av.generated, x, exact=av.decode_len is not None)
            expected = []
            previous = None
            for wv in view.iter_waiting():
                x = wv.decode_len if wv.decode_len is not None else assume
                sig = (wv.prompt_len, x, wv.decode_len is not None)
                if not ref.feasible(wv.prompt_len, x):
                    cut_mid_run += sig == previous
                    break
                ref.admit(wv.prompt_len, x, req_id=wv.id, exact=wv.decode_len is not None)
                expected.append(wv.id)
                previous = sig

            p = MemoryConstrained(assume_max_output=assume)
            assert p.decide(view).to_activate == expected
            assert view.ledger(p).projection(12) == ref.projection(12)
            for rid in expected:
                assert view.ledger(p).tracked(rid)
        assert cut_mid_run > 20  # the bulk path really stopped inside runs

class TestShortestFirst:
    def test_ascending_decode_order(self):
        p = ShortestFirstMemoryConstrained()
        p.reset()
        waiting = [
            waiting_req(1, 10, 9),
            waiting_req(2, 10, 2),
            waiting_req(3, 10, 5),
        ]
        d = p.decide(view_of(1, 10**6, waiting, policy=p))
        assert d.to_activate == [2, 3, 1]

    def test_skips_infeasible_and_continues(self):
        p = ShortestFirstMemoryConstrained()
        p.reset()
        waiting = [waiting_req(1, 30, 2), waiting_req(2, 1, 5)]
        # (30, 2) peaks at 32 > 12, skipped; (1, 5) peaks at 6, admitted
        d = p.decide(view_of(1, 12, waiting, policy=p))
        assert d.to_activate == [2]

    def test_tie_by_arrival_then_id(self):
        # listed out of order in one slot: the engine queues them by
        # (arrival slot, id), and the policy serves them in that order
        waiting = [
            waiting_req(5, 10, 4, arrival=3),
            waiting_req(2, 10, 4, arrival=1),
            waiting_req(3, 10, 4, arrival=1),
        ]
        result = engine_run(
            [waiting], ShortestFirstMemoryConstrained(), kv_capacity=10**6, record_events=True
        )
        assert [rid for _, kind, rid, _ in result.events if kind == "activate"] == [2, 3, 5]

    def test_tie_across_groups_by_arrival_then_id(self):
        # equal decode lengths but distinct prompts: one group each, and
        # the policy orders the group heads by arrival slot, then id
        p = ShortestFirstMemoryConstrained()
        p.reset()
        waiting = [
            waiting_req(2, 11, 4, arrival=1),
            waiting_req(3, 12, 4, arrival=1),
            waiting_req(5, 10, 4, arrival=3),
        ]
        d = p.decide(view_of(3, 10**6, waiting[::-1], policy=p))
        assert d.to_activate == [2, 3, 5]

    def test_queue_persists_across_slots(self):
        p = ShortestFirstMemoryConstrained()
        p.reset()
        waiting = [waiting_req(1, 10, 4), waiting_req(2, 10, 2)]
        d1 = p.decide(view_of(1, 16, waiting, policy=p))  # only one fits (peak 14 vs 12+..)
        assert d1.to_activate == [2]
        # slot 2: request 2 is active with generated 1, request 1 still waits
        a = active_req(2, 10, 2, activation_slot=1)
        d2 = p.decide(view_of(2, 16, [waiting[0]], [a], policy=p))
        # request 2 completes at offset 1 (releasing 12); request 1 joint peak:
        # offset 1: 12 + 11 = 23 > 16, still infeasible
        assert d2.to_activate == []

    def test_hidden_outputs_rejected(self):
        p = ShortestFirstMemoryConstrained()
        p.reset()
        with pytest.raises(PolicyApplicabilityError):
            p.decide(view_of(1, 100, [waiting_req(1, 10, 3, known=False)], policy=p))


class TestAdaptivePrediction:
    def test_initial_prediction_is_min_output(self):
        p = AdaptivePrediction(min_output=2)
        p.reset()
        # true o = 60 is hidden; predicted footprint peaks at 10 + 2 = 12
        d = p.decide(view_of(1, 12, [waiting_req(1, 10, 60, known=False)], policy=p))
        assert d.to_activate == [1]
        p.reset()
        d = p.decide(view_of(1, 11, [waiting_req(1, 10, 60, known=False)], policy=p))
        assert d.to_activate == []

    def test_fifo_with_skips(self):
        p = AdaptivePrediction(min_output=1)
        p.reset()
        waiting = [
            waiting_req(1, 30, 9, known=False),
            waiting_req(2, 5, 9, known=False),
        ]
        # prediction 1 each: first needs 31 > 20, skipped; second fits
        d = p.decide(view_of(1, 20, waiting, policy=p))
        assert d.to_activate == [2]

    def test_eviction_ascending_prediction_updates_and_persists(self):
        p = AdaptivePrediction(min_output=5)
        p.reset()
        p._pred[1] = 10  # one request has already been evicted once
        req1 = active_req(1, 10, 60, activation_slot=1, known=False)
        req2 = active_req(2, 10, 60, activation_slot=4, known=False)
        # clock 11: generated are 10 and 7; predictions 10 and 5
        v = view_of(11, 100, active=[req1, req2])
        d = p.evict(v, required_release=1)
        # ascending prediction: request 2 (pred 5) goes first
        assert d.to_evict == [2]
        # update: max(2 * 5, 7 + 1) = 10
        assert p.prediction(2) == 10
        # next slot the victim waits again; its raised prediction persists
        # and the policy still re-admits it when the trajectory fits
        back = waiting_req(2, 10, 60, arrival=4, known=False)
        v2 = view_of(12, 100, waiting=[back], active=[req1], policy=p)
        d2 = p.decide(v2)
        assert d2.to_activate == [2]
        assert v2.ledger(p).entry(2).assumed_len == 10

    def test_eviction_tie_prefers_most_recent(self):
        p = AdaptivePrediction(min_output=5)
        p.reset()
        actives = [
            active_req(1, 10, 60, activation_slot=1, known=False),
            active_req(2, 10, 60, activation_slot=4, known=False),
        ]
        # equal predictions: the later activation goes first
        d = p.evict(view_of(11, 100, active=actives), required_release=39)
        assert d.to_evict == [2, 1]
        assert p.prediction(2) == max(2 * 5, 7 + 1)
        assert p.prediction(1) == max(2 * 5, 10 + 1)

    def test_doubling_rule_prefers_observed_progress(self):
        p = AdaptivePrediction(min_output=5)
        p.reset()
        a = active_req(1, 10, 60, activation_slot=1, known=False)
        v = view_of(13, 100, active=[a])  # generated 12, prediction 5
        p.evict(v, required_release=1)
        assert p.prediction(1) == max(2 * 5, 12 + 1)

    def test_ledger_and_predictions_follow_the_active_set(self):
        # the engine's ledger books exactly the active requests, and an
        # active request's prediction lives there: after a run, _pred holds
        # only requests that wait after an eviction
        rng = random.Random(5)
        engine = Engine(AdaptivePrediction(min_output=1), kv_capacity=60)
        rid = 0
        for t in range(1, 301):
            slot = []
            for _ in range(rng.randint(0, 2)):
                rid += 1
                slot.append(waiting_req(rid, rng.randint(1, 6), rng.randint(1, 30), arrival=t, known=False))
            engine.step(slot)
        assert engine.eviction_count > 100 and len(engine.completed_slot) > 20
        ledger = engine._view._ledger
        assert sorted(rid for _, rid in ledger.iter_by_assumed_len()) == sorted(engine.state.active)
        assert engine.policy._pred
        assert all(rid in engine.state.waiting for rid in engine.policy._pred)

    def test_never_reads_decode_len(self):
        p = AdaptivePrediction(min_output=3)
        p.reset()
        # identical decisions whether outputs are visible or hidden
        d1 = p.decide(view_of(1, 13, [waiting_req(1, 10, 60, known=False)], policy=p))
        p.reset()
        d2 = p.decide(view_of(1, 13, [waiting_req(1, 10, 60, known=True)], policy=p))
        assert d1.to_activate == d2.to_activate == [1]


def planner_of(entries, kv_capacity):
    """A planner holding entries, (prompt_len, generated, decode_len)
    triples, as active requests 1..n booked under their true lengths."""
    planner = AdmissionPlanner(kv_capacity)
    for rid, (l, g, o) in enumerate(entries, 1):
        planner.bootstrap(rid, l, g, o)
    return planner


class TestAdmissionPlanner:
    def test_matches_peak_projection(self):
        rng = random.Random(31)
        for _ in range(100):
            entries = []
            for _ in range(rng.randint(0, 10)):
                o = rng.randint(1, 25)
                g = rng.randint(0, o - 1)
                entries.append((rng.randint(1, 40), g, o))
            horizon = rng.randint(1, 30)
            planner = planner_of(entries, 10**9)
            assert planner.projection(horizon) == peak_projection(entries, horizon)

    def test_feasibility_equals_bruteforce(self):
        rng = random.Random(77)
        for _ in range(200):
            entries = []
            for _ in range(rng.randint(0, 6)):
                o = rng.randint(1, 15)
                g = rng.randint(0, o - 1)
                entries.append((rng.randint(1, 30), g, o))
            m = rng.randint(10, 120)
            planner = planner_of(entries, m)
            l, o = rng.randint(1, 30), rng.randint(1, 15)
            proj = peak_projection(entries, o)
            brute = all(proj[d - 1] + l + d <= m for d in range(1, o + 1))
            assert planner.feasible(l, o) == brute

    def test_admission_tightens_monotonically(self):
        planner = AdmissionPlanner(29)
        assert planner.feasible(10, 5)
        planner.admit(10, 5, req_id=1)
        # second identical candidate would peak at 2 * 15 = 30 > 29
        assert not planner.feasible(10, 5)
        # a tiny one-shot candidate still fits: 11 + 5 = 16 at offset 1
        assert planner.feasible(4, 1)
        # exact boundary: joint peak 30 fits capacity 30
        boundary = AdmissionPlanner(30)
        boundary.admit(10, 5, req_id=1)
        assert boundary.feasible(10, 5)

    def test_long_windows_match_bruteforce(self):
        rng = random.Random(123)
        for _ in range(200):
            entries = []
            for _ in range(rng.randint(0, 8)):
                o = rng.randint(1, 40)
                g = rng.randint(0, o - 1)
                entries.append((rng.randint(1, 30), g, o))
            m = rng.randint(50, 900)
            planner = planner_of(entries, m)
            for _ in range(4):
                l, x = rng.randint(1, 30), rng.randint(1, 45)
                proj = peak_projection(entries, x)
                brute = all(proj[d - 1] + l + d <= m for d in range(1, x + 1))
                assert planner.feasible(l, x) == brute
            horizon = rng.randint(1, 45)
            assert planner.projection(horizon) == peak_projection(entries, horizon)

    def test_max_admissible_matches_greedy_loop(self):
        rng = random.Random(321)
        for _ in range(300):
            entries = []
            for _ in range(rng.randint(0, 6)):
                o = rng.randint(1, 25)
                g = rng.randint(0, o - 1)
                entries.append((rng.randint(1, 20), g, o))
            m = rng.randint(30, 600)
            l, x = rng.randint(1, 20), rng.randint(1, 30)
            limit = rng.randint(0, 12)
            probe = planner_of(entries, m)
            before = probe.projection(30)
            bulk = probe.max_admissible(l, x, limit)
            assert probe.projection(30) == before  # read-only query
            greedy = planner_of(entries, m)
            count = 0
            while count < limit and greedy.feasible(l, x):
                greedy.admit(l, x, req_id=1000 + count)
                count += 1
            assert bulk == count

    def test_admit_many_equals_sequential_admits(self):
        rng = random.Random(99)
        for _ in range(100):
            entries = []
            for _ in range(rng.randint(0, 6)):
                o = rng.randint(1, 25)
                g = rng.randint(0, o - 1)
                entries.append((rng.randint(1, 20), g, o))
            l, x = rng.randint(1, 20), rng.randint(1, 30)
            k = rng.randint(1, 5)
            one = planner_of(entries, 10**9)
            for i in range(k):
                one.admit(l, x, req_id=1000 + i, exact=True)
            many = planner_of(entries, 10**9)
            many.admit_many(k, l, x, req_ids=range(1000, 1000 + k), exact=True)
            assert one.projection(40) == many.projection(40)
            for rid in range(1000, 1000 + k):
                assert many.tracked(rid)
            probe = (rng.randint(1, 20), rng.randint(1, 30))
            assert one.feasible(*probe) == many.feasible(*probe)


    def test_admit_many_needs_one_id_per_candidate(self):
        planner = AdmissionPlanner(100)
        with pytest.raises(ValueError, match="1 ids name 2 candidates"):
            planner.admit_many(2, 3, 3, req_ids=[7])
        assert not planner.tracked(7) and planner.take_booked() == []

    @pytest.mark.parametrize("dense", [False, True])
    def test_complete_keeps_the_last_slot_and_frees_the_rest(self, dense):
        # finishes on schedule (1), early (2) and overdue (3) in slot 2:
        # each still counts at the end of slot 2, and nowhere later
        planner = AdmissionPlanner(10**9)
        planner.admit(5, 3, req_id=1, exact=True)
        planner.admit(4, 10, req_id=2, exact=False)
        planner.admit(3, 1, req_id=3, exact=False)
        planner.advance(1)
        planner.advance(2)
        if dense:  # the dense vector is built before the finishes
            assert planner.projection(3) == [21, 8, 9]
        planner.complete(1, 2, 3)
        assert not any(map(planner.tracked, (1, 2, 3)))
        assert planner.projection(3) == [21, 0, 0]
        planner.advance(3)
        assert planner.projection(3) == [0, 0, 0]

    def test_shifted_vector_tracks_peak_projection(self):
        # a one-slot advance re-anchors the dense vector instead of
        # rebuilding it; after every step it must still be the exact
        # projection, through on-schedule and early completions (removed at
        # the end of their last slot, as the engine does), overdue entries,
        # evictions, and windows up to 140 slots
        def expected(live, clock, horizon):
            entries = []
            for l, start, _, x, exact in live.values():
                g = clock - start
                entries.append((l, g, x if exact else max(x, g + 1)))
            return peak_projection(entries, horizon)

        rng = random.Random(4242)
        shifts = 0
        for _ in range(24):
            planner = AdmissionPlanner(10**9)
            live = {}  # id -> (prompt_len, activation slot, true length, assumed length, exact)
            next_id = 1
            for clock in range(70):
                if clock:
                    planner.advance(clock)
                    shifts += planner._vec is not None
                    assert planner.projection(140) == expected(live, clock, 140)
                for _ in range(rng.randint(0, 3)):
                    l, o = rng.randint(1, 9), rng.randint(1, 130)
                    exact = rng.random() < 0.4
                    x = o if exact else rng.choice((rng.randint(1, 20), rng.randint(1, 130)))
                    planner.admit(l, x, req_id=next_id, exact=exact)
                    live[next_id] = (l, clock, o, x, exact)
                    next_id += 1
                if live and rng.random() < 0.1:
                    rid = rng.choice(sorted(live))
                    planner.remove(rid)
                    del live[rid]
                # leaves the vector valid, so the next advance can shift it
                assert planner.projection(140) == expected(live, clock, 140)
                l, x = rng.randint(1, 9), rng.randint(1, 140)
                proj = expected(live, clock, x)
                budget = max(proj) + l + x + rng.randint(-3, 3)
                planner.kv_capacity = budget
                brute = all(proj[d - 1] + l + d <= budget for d in range(1, x + 1))
                assert planner.feasible(l, x) == brute
                planner.kv_capacity = 10**9
                for rid in [rid for rid, e in live.items() if e[1] + e[2] - 1 == clock]:
                    planner.complete(rid)
                    del live[rid]
        assert shifts > 24 * 69 // 2  # most steps took the shift, not a rebuild

    def test_capacity_and_bookings_stay_within_int64(self):
        with pytest.raises(ValueError, match="below 2\\*\\*62"):
            AdmissionPlanner(2**62)
        planner = AdmissionPlanner(2**62 - 1)
        planner.admit_many(1, 2**61, 3, req_ids=[1])
        before = planner.projection(5)
        for book in (
            lambda: planner.admit_many(1, 2**61, 3, req_ids=[2]),
            lambda: planner.admit_many(1, 2**62, 1, req_ids=[2]),
            lambda: planner.bootstrap(2, 5, 2**62, 1),
        ):
            with pytest.raises(EngineError, match="2\\*\\*62"):
                book()
            # refused before it changed anything
            assert not planner.tracked(2) and planner.projection(5) == before
        assert planner.max_admissible(2**61, 3, 5) == 0
        assert planner.max_admissible(2**60, 3, 5) == 1

    def test_admissible_bookings_near_the_int64_bound_are_kept(self):
        # at a capacity just below 2**62, every booking max_admissible allows
        # keeps each depth within capacity; B, an upper bound that overshoots
        # 2**62 here, must not refuse one of them
        capacity = 2**62 - 1
        planner = AdmissionPlanner(capacity)
        live = []  # (prompt_len, generated, window) of every booking
        overshot = False
        for l, x, limit in ((2**61, 2000, 3), (2**61 - 5000, 2000, 3), (7, 1500, 50), (1, 300, 50), (2, 1, 50)):
            proj = peak_projection(live, x)
            want = min([limit] + [(capacity - proj[d - 1]) // (l + d) for d in range(1, x + 1)])
            assert planner.max_admissible(l, x, limit) == want > 0
            overshot |= max(planner._bound, x) + want * (l + x) >= 2**62
            planner.admit_many(want, l, x, req_ids=range(len(live), len(live) + want))
            live += [(l, 0, x)] * want
            assert planner.projection(2001) == peak_projection(live, 2001)
        assert overshot
        # a booking that lifts a deep depth to 2**62, though neither depth 1
        # nor its own footprint, is refused on that read
        planner = AdmissionPlanner(capacity)
        planner.admit_many(1, 1, 2000, req_ids=[1])
        with pytest.raises(EngineError, match="2\\*\\*62"):
            planner.admit_many(1, 2**62 - 3000, 2000, req_ids=[2])
        assert not planner.tracked(2) and planner.projection(2000) == peak_projection([(1, 0, 2000)], 2000)


# windows of a few slots, and up to 2 000
WINDOW = st.one_of(st.integers(1, 12), st.integers(1, 2000))
LEDGER_CAPACITY = 10**12


class LedgerMachine(RuleBasedStateMachine):
    """AdmissionPlanner driven through random sequences of its operations,
    checked after every step against peak_projection over a registry the
    test keeps itself: id -> [prompt_len, start slot, assumed length, exact],
    where an entry counts prompt_len + generated + d at depth d while
    generated + d <= its assumed length, and an entry that is not exact and
    has outgrown it counts at depth 1 alone. Entries completed in this slot
    leave the registry for finished, where they count at depth 1 until the
    clock moves."""

    def __init__(self):
        super().__init__()
        self.planner = AdmissionPlanner(LEDGER_CAPACITY)
        self.clock = 0
        self.live = {}
        self.finished = []  # (prompt_len, generated) of this slot's completions
        self.next_id = 1

    def entries(self):
        t = self.clock
        for l, start, x, exact in self.live.values():
            g = t - start
            yield l, g, x if exact else max(x, g + 1)
        for l, g in self.finished:
            yield l, g, g + 1

    def brute(self, horizon):
        return peak_projection(self.entries(), horizon)

    def book(self, l, x, exact, start=None):
        rid = self.next_id
        self.next_id += 1
        self.live[rid] = [l, self.clock if start is None else start, x, exact]
        return rid

    @rule(l=st.integers(1, 60), generated=st.integers(0, 2100), assumed=WINDOW, exact=st.booleans())
    def bootstrap(self, l, generated, assumed, exact):
        rid = self.book(l, max(assumed, generated + 1), exact, start=self.clock - generated)
        self.planner.bootstrap(rid, l, generated, assumed, exact)

    @rule(count=st.integers(1, 4), l=st.integers(1, 60), x=WINDOW, exact=st.booleans(), ask=st.booleans())
    def admit_many(self, count, l, x, exact, ask):
        if ask:  # as a policy does: the query reads the dense vector first
            self.planner.max_admissible(l, x, count)
        ids = [self.book(l, x, exact) for _ in range(count)]
        self.planner.admit_many(count, l, x, req_ids=ids, exact=exact)
        assert self.planner.take_booked() == ids

    @rule(l=st.integers(1, 60), x=WINDOW, big=st.sampled_from([2**62, 2**61]))
    def oversized_booking(self, l, x, big):
        # the int64 guard refuses it before it changes anything
        with pytest.raises(EngineError):
            self.planner.admit_many(2, big, x, req_ids=[-1, -2])
        assert not self.planner.tracked(-1)

    @rule(steps=st.one_of(st.just(1), st.integers(2, 3), st.integers(4, 2100)))
    def advance(self, steps):
        self.clock += steps
        self.planner.advance(self.clock)
        t = self.clock
        # an entry that counts nowhere any more leaves the registry
        self.live = {rid: e for rid, e in self.live.items() if not e[3] or e[1] + e[2] > t}
        self.finished = []

    @precondition(lambda self: self.live)
    @rule(picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=3, unique=True))
    def remove(self, picks):
        ids = sorted(self.live)
        rids = list(dict.fromkeys(ids[p % len(ids)] for p in picks))
        self.planner.remove(*rids)
        for rid in rids:
            del self.live[rid]

    @precondition(lambda self: self.live)
    @rule(when=st.sampled_from(["early", "on_time", "late"]), picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=3))
    def complete(self, when, picks):
        t = self.clock
        # the slot the entry's assumed length ends in, against this one
        ends = {"early": lambda end: end > t, "on_time": lambda end: end == t, "late": lambda end: end < t}[when]
        ids = [rid for rid, (_, start, x, _) in sorted(self.live.items()) if ends(start + x - 1)]
        if not ids:
            return
        rids = list(dict.fromkeys(ids[p % len(ids)] for p in picks))
        self.planner.complete(*rids)
        for rid in rids:
            l, start, x, exact = self.live.pop(rid)
            g = t - start
            if not exact or g < x:  # past its window an exact one counted nowhere
                self.finished.append((l, g))

    @rule(l=st.integers(1, 60), x=WINDOW, limit=st.integers(1, 50), slack=st.integers(-5, 400))
    def max_admissible(self, l, x, limit, slack):
        proj = self.brute(x)
        capacity = max(proj) + l + x + slack
        want = max(0, min([limit] + [(capacity - proj[d - 1]) // (l + d) for d in range(1, x + 1)]))
        self.planner.kv_capacity = capacity
        try:
            got = self.planner.max_admissible(l, x, limit)
            assert got == want and type(got) is int
            assert self.planner.feasible(l, x) == (want > 0)
        finally:
            self.planner.kv_capacity = LEDGER_CAPACITY

    @invariant()
    def matches_brute_force(self):
        horizon = max((x - g for _, g, x in self.entries()), default=0) + 2
        got = self.planner.projection(horizon)
        assert got == self.brute(horizon)
        assert all(type(v) is int for v in got)
        # B bounds every depth past the first
        bound = self.planner._bound
        assert all(got[d - 1] + d <= max(bound, d) for d in range(2, horizon + 1))


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=30, deadline=None, database=None
)


class TestFactoryAndSpec:
    def test_round_trips(self):
        assert isinstance(make_policy("flow_per_class", {"budgets": [4, 4, 4]}), PerClassFlowControl)
        assert isinstance(make_policy("flow_scalar", {"budget": 4}), ScalarFlowControl)
        assert isinstance(make_policy("flow_scalar", {"budget": "5/2"}), ScalarFlowControl)
        assert isinstance(make_policy("alpha_protection", {"alpha": 0.1}), AlphaProtection)
        assert isinstance(make_policy("mc", {}), MemoryConstrained)
        assert isinstance(make_policy("mc_sf", {}), ShortestFirstMemoryConstrained)
        assert isinstance(make_policy("amin", {"min_output": 2}), AdaptivePrediction)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("lru", {})

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError, match="missing parameter"):
            make_policy("flow_scalar", {})
        with pytest.raises(ValueError, match="unexpected parameters"):
            make_policy("mc_sf", {"budget": 3})

    @pytest.mark.parametrize(
        "name, params, wrong",
        [
            ("flow_per_class", {"budgets": "444"}, "budgets"),
            ("flow_per_class", {"budgets": [4.7, 4]}, "budgets"),
            ("flow_per_class", {"budgets": [True, 4]}, "budgets"),
            ("flow_per_class", {"budgets": 5}, "budgets"),
            ("flow_per_class", {"budgets": []}, "budgets"),
            ("flow_scalar", {"budget": True}, "budget"),
            ("flow_scalar", {"budget": "abc"}, "budget"),
            ("flow_scalar", {"budget": "1/0"}, "budget"),
            ("flow_scalar", {"budget": 2, "cap": 3.5}, "cap"),
            ("flow_scalar", {"budget": 2, "cap": "3"}, "cap"),
            ("alpha_protection", {"alpha": [0.5]}, "alpha"),
            ("mc", {"assume_max_output": 20.5}, "assume_max_output"),
            ("mc", {"assume_max_output": True}, "assume_max_output"),
            ("amin", {"min_output": 2.5}, "min_output"),
            ("amin", {"min_output": None}, "min_output"),
        ],
    )
    def test_values_of_the_wrong_kind(self, name, params, wrong):
        with pytest.raises(ValueError, match=f"^{re.escape(wrong)} "):
            make_policy(name, params)

    def test_accepted_forms(self):
        assert make_policy("flow_per_class", {"budgets": [4, 4, 4]}).budgets == (4, 4, 4)
        assert make_policy("flow_per_class", {"budgets": (1, 1, 1, 1)}).budgets == (1, 1, 1, 1)
        assert make_policy("flow_scalar", {"budget": 12}).budget == 12
        assert make_policy("flow_scalar", {"budget": "5/2", "cap": None}).cap == 3
        assert make_policy("alpha_protection", {"alpha": 0.6}).alpha == Fraction(3, 5)
        assert make_policy("mc", {"assume_max_output": 200}).assume_max_output == 200
        assert make_policy("mc", {"assume_max_output": None}).assume_max_output is None

    # numbers near the valid ranges, in every form a config may write them
    NUMBERS = (
        st.integers(-2, 30)
        | st.floats(-1, 40)
        | st.from_regex(r"-?[0-9]{1,2}(/[0-9]{1,2}|\.[0-9]{1,2})?", fullmatch=True)
    )
    JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | NUMBERS,
        lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6,
    )
    VALUES = NUMBERS | st.lists(st.integers(-1, 9), max_size=4) | JSON

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(data=st.data())
    def test_any_json_value_builds_or_names_the_parameter(self, data):
        name = data.draw(st.sampled_from(sorted(POLICIES)))
        declared = [p.name for p in POLICIES[name].parameters]
        params = data.draw(st.fixed_dictionaries({}, optional={key: self.VALUES for key in declared}))
        try:
            policy = make_policy(name, params)
        except ValueError as exc:
            assert any(key in str(exc) for key in declared), str(exc)
            return
        # the values a policy keeps are values it accepts
        kept = {key: getattr(policy, key) for key in declared}
        assert {key: getattr(make_policy(name, kept), key) for key in declared} == kept

    def test_fixed_schedule(self):
        p = FixedSchedule({1: [1], 3: [2]})
        waiting = [waiting_req(1, 5, 5), waiting_req(2, 5, 5)]
        assert p.decide(view_of(1, 100, waiting)).to_activate == [1]
        assert p.decide(view_of(2, 100, waiting)).to_activate == []
        assert p.decide(view_of(3, 100, waiting)).to_activate == [2]


class TestMaskingInvariant:
    def test_hidden_outputs_absent_from_views(self):
        r = waiting_req(1, 10, 60, known=False)
        a = active_req(2, 10, 60, activation_slot=1, known=False)
        v = view_of(3, 100, [r], [a])
        assert next(v.iter_waiting()).decode_len is None
        assert next(v.iter_active()).decode_len is None
        assert next(v.iter_active()).generated == 2

    def test_known_outputs_visible(self):
        r = waiting_req(1, 10, 60, known=True)
        v = view_of(1, 100, [r])
        assert next(v.iter_waiting()).decode_len == 60
