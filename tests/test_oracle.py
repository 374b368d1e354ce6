"""Oracle tests: an unpruned exhaustive enumerator as ground truth, engine
replay self-consistency, policy dominance, and the witness instance where
the latency-optimal and token-optimal schedules part ways."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from kvflow import oracle
from kvflow.core import nearest_rank
from kvflow.oracle import (
    HORIZON_CAP,
    OBJECTIVES,
    REQUEST_CAP,
    DominanceReport,
    OfflineInstance,
    OfflineRequest,
    Solution,
    objective_value,
    replay,
    solve,
    verify_policy_dominance,
    weakly_dominates,
)
from kvflow.policies import make_policy


def brute_force(inst):
    """Plain product enumeration with no pruning, kept deliberately dumb.

    Evaluates every slot assignment in the same lexicographic order the
    solver claims to respect, so both value and returned schedule must
    agree exactly.
    """
    reqs = sorted(inst.requests, key=lambda r: (r.arrival_slot, r.id))
    choice_sets = [
        list(range(r.arrival_slot, inst.horizon + 1)) + [None] for r in reqs
    ]
    best_value = None
    best_combo = None
    minimize = inst.objective in ("avg_latency", "p95_latency")
    for combo in itertools.product(*choice_sets):
        usage = [0] * (inst.horizon + 2)
        feasible = True
        lat = []
        tokens = 0
        for r, s in zip(reqs, combo):
            if s is None:
                continue
            last = min(s + r.decode_len - 1, inst.horizon)
            for t in range(s, last + 1):
                usage[t] += r.prompt_len + (t - s + 1)
                if usage[t] > inst.kv_capacity:
                    feasible = False
            if s + r.decode_len - 1 <= inst.horizon:
                lat.append(s + r.decode_len - r.arrival_slot)
                tokens += r.decode_len
        if not feasible:
            continue
        n = len(lat)
        if inst.objective == "request_throughput":
            value = Fraction(n, inst.horizon)
        elif inst.objective == "token_throughput":
            value = Fraction(tokens, inst.horizon)
        elif n == 0:
            value = math.inf
        elif inst.objective == "avg_latency":
            value = Fraction(sum(lat), n)
        else:
            value = Fraction(sorted(lat)[nearest_rank(n) - 1])
        if (
            best_value is None
            or (minimize and value < best_value)
            or (not minimize and value > best_value)
        ):
            best_value = value
            best_combo = combo
    return best_value, {r.id: s for r, s in zip(reqs, best_combo)}


def random_instance(rng, objective, max_requests=4, max_horizon=8):
    n = rng.randint(1, max_requests)
    horizon = rng.randint(2, max_horizon)
    triples = [
        (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, horizon))
        for _ in range(n)
    ]
    capacity = rng.randint(6, 16)
    return OfflineInstance.build(triples, capacity, horizon, objective)


class TestInstanceValidation:
    def test_request_cap(self):
        triples = [(1, 1, 1)] * (REQUEST_CAP + 1)
        with pytest.raises(ValueError, match="cap"):
            OfflineInstance.build(triples, 100, 10, "avg_latency")

    def test_horizon_cap(self):
        with pytest.raises(ValueError, match="horizon"):
            OfflineInstance.build([(1, 1, 1)], 100, HORIZON_CAP + 1, "avg_latency")

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            OfflineInstance.build([(1, 1, 1)], 100, 10, "ttft")

    def test_duplicate_ids(self):
        reqs = (OfflineRequest(1, 1, 1, 1), OfflineRequest(1, 2, 2, 1))
        with pytest.raises(ValueError, match="duplicate"):
            OfflineInstance(reqs, 100, 10, "avg_latency")

    def test_arrival_beyond_horizon(self):
        with pytest.raises(ValueError, match="outside"):
            OfflineInstance.build([(1, 1, 11)], 100, 10, "avg_latency")

    def test_oversized_request_refused_at_solve(self):
        inst = OfflineInstance.build([(5, 1, 1)], 5, 4, "avg_latency")
        with pytest.raises(ValueError, match="first"):
            solve(inst)

    def test_json_round_trip(self):
        inst = OfflineInstance.build([(1, 2, 1), (3, 1, 2)], 9, 6, "token_throughput")
        assert OfflineInstance.from_dict(inst.as_dict()) == inst


class TestForcedOptima:
    def test_single_request_immediate(self):
        inst = OfflineInstance.build([(1, 1, 1)], 2, 2, "avg_latency")
        sol = solve(inst)
        assert sol.value == 1
        assert sol.schedule == {1: 1}

    def test_two_requests_one_at_a_time(self):
        # M=12 holds one (l=10, o=2) request at its o=2 peak but never two
        inst = OfflineInstance.build(
            [(10, 2, 1), (10, 2, 1)], 12, 4, "request_throughput"
        )
        sol = solve(inst)
        assert sol.value == Fraction(2, 4)
        assert sol.schedule == {1: 1, 2: 3}

    def test_tie_breaks_lexicographically(self):
        inst = OfflineInstance.build([(1, 1, 1), (1, 1, 1)], 100, 2, "request_throughput")
        sol = solve(inst)
        assert sol.value == 1
        assert sol.schedule == {1: 1, 2: 1}

    def test_empty_instance(self):
        inst = OfflineInstance.build([], 10, 4, "request_throughput")
        assert solve(inst).value == 0
        assert solve(OfflineInstance.build([], 10, 4, "avg_latency")).value == math.inf

    def test_never_only_when_nothing_fits_timewise(self):
        # o=5 with horizon 3: no slot completes it; throughput stays 0
        inst = OfflineInstance.build([(1, 5, 1)], 100, 3, "request_throughput")
        sol = solve(inst)
        assert sol.value == 0

    def test_deterministic_resolve(self):
        # two equal instances built apart, so each runs its own search
        triples = [(2, 2, 1), (1, 3, 2), (3, 1, 1)]
        a = OfflineInstance.build(triples, 10, 6, "avg_latency")
        b = OfflineInstance.build(triples, 10, 6, "avg_latency")
        assert a == b
        assert solve(a) == solve(b)


class TestKeptOptimum:
    TRIPLES = [(2, 2, 1), (1, 3, 2), (3, 1, 1)]

    def build(self):
        return OfflineInstance.build(self.TRIPLES, 10, 6, "avg_latency")

    def test_search_runs_once_per_instance(self, monkeypatch):
        searches = []
        search = oracle._Search.run
        monkeypatch.setattr(oracle._Search, "run", lambda self: searches.append(1) or search(self))
        inst = self.build()
        first = solve(inst)
        for name, params in [("mc", {}), ("flow_scalar", {"budget": 1}), ("amin", {"min_output": 1})]:
            assert verify_policy_dominance(inst, make_policy(name, params)).ok
        assert solve(inst) == first
        assert len(searches) == 1
        # the optimum lives on the instance, not in a cache keyed by value
        assert solve(self.build()) == first
        assert len(searches) == 2

    def test_changing_a_returned_schedule_changes_nothing_later(self):
        inst = self.build()
        first = solve(inst)
        want = dict(first.schedule)
        first.schedule.clear()
        report = verify_policy_dominance(inst, make_policy("mc"))
        assert report.oracle_schedule == want
        report.oracle_schedule[1] = None
        again = solve(inst)
        assert again.schedule == want
        assert again.value == first.value and again.nodes == first.nodes
        assert verify_policy_dominance(inst, make_policy("mc")).oracle_schedule == want


class TestAgainstBruteForce:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_value_and_schedule_match(self, objective):
        rng = random.Random(hash(objective) % 100000)
        for _ in range(25):
            inst = random_instance(rng, objective)
            expect_value, expect_schedule = brute_force(inst)
            sol = solve(inst)
            assert sol.value == expect_value, inst
            assert sol.schedule == expect_schedule, inst

    def test_pruning_visits_fewer_nodes(self):
        inst = OfflineInstance.build(
            [(2, 2, 1), (1, 3, 1), (3, 1, 2), (2, 3, 2)], 12, 8, "request_throughput"
        )
        total_leaves = 1
        for r in inst.requests:
            total_leaves *= inst.horizon - r.arrival_slot + 2
        assert solve(inst).nodes < total_leaves


class TestReplaySelfConsistency:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_engine_reproduces_value(self, objective):
        rng = random.Random(len(objective))
        for _ in range(15):
            inst = random_instance(rng, objective)
            sol = solve(inst)
            _, report = replay(inst, sol.schedule)
            assert objective_value(report, objective) == sol.value, inst

    def test_replay_counts_only_scheduled(self):
        inst = OfflineInstance.build([(1, 1, 1), (1, 1, 1)], 2, 3, "request_throughput")
        result, report = replay(inst, {1: 1, 2: None})
        assert report.completed == 1
        assert result.arrivals_total == 2


def classed_instance(rng, objective, classes):
    n = rng.randint(1, 5)
    horizon = rng.randint(4, 12)
    reqs = []
    for i in range(n):
        k = rng.randrange(len(classes))
        l, o = classes[k]
        arrival = rng.randint(1, max(1, horizon - o))
        reqs.append(OfflineRequest(i + 1, l, o, arrival, class_id=k))
    return OfflineInstance(tuple(reqs), rng.randint(8, 20), horizon, objective)


class TestPolicyDominance:
    CLASSES = [(2, 2), (1, 3)]

    def policies(self):
        return [
            make_policy("flow_per_class", {"budgets": (1, 1)}),
            make_policy("flow_scalar", {"budget": 1}),
            make_policy("alpha_protection", {"alpha": 0.5}),
            make_policy("mc", {}),
            make_policy("mc_sf", {}),
            make_policy("amin", {"min_output": 2}),
        ]

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_oracle_weakly_dominates(self, objective):
        rng = random.Random(41)
        for _ in range(8):
            inst = classed_instance(rng, objective, self.CLASSES)
            for pol in self.policies():
                rep = verify_policy_dominance(inst, pol, seed=1)
                assert rep.ok, (inst, pol.name, rep.as_dict())

    def test_report_carries_both_sides(self):
        inst = OfflineInstance.build([(1, 2, 1)], 10, 5, "token_throughput")
        rep = verify_policy_dominance(inst, make_policy("mc"))
        assert rep.ok
        assert rep.oracle_schedule == {1: 1}
        assert any(kind == "activate" for _, kind, _, _ in rep.policy_events)
        assert inst.as_dict()["kv_capacity"] == 10
        assert rep.as_dict()["ok"] is True

    def test_failure_file_lists_one_row_per_event(self):
        # the report keeps the run's log with one decode entry per slot, and
        # a failure document (instance and report, as JSON) lists one row
        # per event: these rows and bytes are what a log of one entry per
        # row wrote
        inst = OfflineInstance.build([(2, 3, 1), (1, 4, 1), (2, 2, 2), (3, 2, 3)], 14, 10, "avg_latency")
        rep = verify_policy_dominance(inst, make_policy("flow_scalar", {"budget": 2}), seed=1)
        assert (3, "decode_step", (1, 2, 3), 13) in rep.policy_events
        assert sum(kind == "activate" for _, kind, _, _ in rep.policy_events) == 5
        doc = json.dumps({"instance": inst.as_dict(), "report": rep.as_dict()}, indent=1) + "\n"
        rows = [
            [1, "arrive", 1, 0], [1, "arrive", 2, 0], [1, "activate", 1, 3], [1, "activate", 2, 5],
            [1, "decode_step", 1, 5], [1, "decode_step", 2, 5],
            [2, "arrive", 3, 5], [2, "activate", 3, 10],
            [2, "decode_step", 1, 10], [2, "decode_step", 2, 10], [2, "decode_step", 3, 10],
            [3, "arrive", 4, 10], [3, "activate", 4, 17], [3, "overflow", -1, 17], [3, "evict", 4, 13],
            [3, "decode_step", 1, 13], [3, "decode_step", 2, 13], [3, "decode_step", 3, 13],
            [3, "complete", 1, 8], [3, "complete", 3, 4],
            [4, "activate", 4, 9], [4, "decode_step", 2, 9], [4, "decode_step", 4, 9], [4, "complete", 2, 4],
            [5, "decode_step", 4, 5], [5, "complete", 4, 0],
        ]
        assert json.loads(doc)["report"]["policy_events"] == rows
        digest = hashlib.sha256(doc.encode()).hexdigest()
        assert digest == "bf02e208e06a9cbb1187aa06e510e112754a6597eb80fbe5e3a9f20f1e1afcfa"

    def test_oracle_vs_oracle_equality(self):
        inst = OfflineInstance.build([(2, 2, 1), (1, 1, 2)], 8, 6, "avg_latency")
        sol = solve(inst)
        _, report = replay(inst, sol.schedule)
        assert weakly_dominates(sol.value, objective_value(report, "avg_latency"), "avg_latency")
        assert weakly_dominates(objective_value(report, "avg_latency"), sol.value, "avg_latency")


class TestObjectiveConflictWitness:
    """One long request and two short ones: the latency optimum leaves the
    long one out, the token optimum needs it. No schedule wins both."""

    def build(self, objective):
        triples = [(1, 10, 1), (1, 2, 1), (1, 2, 1)]
        return OfflineInstance.build(triples, 11, 10, objective)

    def test_optima_differ_and_schedules_differ(self):
        lat = solve(self.build("avg_latency"))
        tok = solve(self.build("token_throughput"))
        assert lat.value == 2  # both short requests at their floor latency
        assert tok.value == Fraction(14, 10)  # all three must complete
        assert lat.schedule != tok.schedule
        assert tok.schedule[1] == 1  # token optimum starts the long request

    def test_no_schedule_is_optimal_for_both(self):
        lat = solve(self.build("avg_latency"))
        tok = solve(self.build("token_throughput"))
        # cross-evaluate each optimum under the other objective
        _, lat_report = replay(self.build("token_throughput"), lat.schedule)
        _, tok_report = replay(self.build("avg_latency"), tok.schedule)
        assert objective_value(lat_report, "token_throughput") < tok.value
        assert objective_value(tok_report, "avg_latency") > lat.value
