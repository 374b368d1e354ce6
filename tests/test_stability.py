"""Analyzer tests: exact load comparisons with boundary detection, the
log-space overflow bound against hand-derived constants, and the grid
search's determinism."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from kvflow.cli import _write_csv, _write_json
from kvflow.core import RequestClass, workload_tokens
from kvflow.policies import ScalarFlowControl, make_policy
from kvflow.stability import (
    SEARCH_FIELDS,
    BudgetSearchResult,
    LoadCheck,
    OverflowBound,
    StabilityReport,
    budget_search,
    build_report,
    check_necessary_known,
    check_necessary_unknown,
    check_sufficient_known,
    overflow_bound,
)
from kvflow.workload import LengthDistribution, WorkloadSpec

CLASSES = [(10, 20), (10, 40), (10, 60)]
CAPACITY = 16492


def write_search_csv(res, path):
    """search.csv as kvflow budget-search writes it."""
    _write_csv(path, SEARCH_FIELDS, [[row[k] for k in SEARCH_FIELDS] for row in res.rows])


def with_rates(rate):
    return [(l, o, rate) for l, o in CLASSES]


class TestNecessaryKnown:
    def test_overloaded_three_class_mix(self):
        chk = check_necessary_known(with_rates(5), CAPACITY)
        assert chk.offered_load == 20300
        assert chk.necessary_violated
        assert chk.verdict == "overloaded"

    def test_underloaded_three_class_mix(self):
        chk = check_necessary_known(with_rates(Fraction(5, 3)), CAPACITY)
        assert chk.offered_load == Fraction(20300, 3)
        assert not chk.necessary_violated
        assert not chk.boundary

    def test_boundary_is_not_flagged(self):
        # load lands exactly on capacity: strict test says nothing
        chk = check_necessary_known([(1, 1, 1)], 2)
        assert chk.offered_load == 2
        assert not chk.necessary_violated
        assert chk.boundary
        assert chk.verdict == "boundary"

    def test_accepts_request_class_objects(self):
        classes = [RequestClass(10, 20, Fraction(5))]
        chk = check_necessary_known(classes, 2000)
        assert chk.offered_load == 2050
        assert chk.necessary_violated

    def test_rejects_bare_pairs(self):
        with pytest.raises(ValueError):
            check_necessary_known([(10, 20)], 100)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_necessary_known([], 100)

    @pytest.mark.parametrize("bad", [(2.5, 3.9, 1), (2, 3.9, 1), (True, 3, 1), (0, 3, 1)])
    def test_rejects_lengths_that_are_not_positive_ints(self, bad):
        # no truncation: (2.5, 3.9) is not the class (2, 3)
        with pytest.raises(ValueError, match="must be a positive integer"):
            check_necessary_known([bad], 100)

    def test_exactness_at_one_token_margin(self):
        # 3 * w(7,9) = 3 * 108 = 324; floats could not distinguish these
        assert not check_necessary_known([(7, 9, 3)], 324).necessary_violated
        assert check_necessary_known([(7, 9, 3)], 323).necessary_violated


class TestSufficientKnown:
    def test_reference_budgets_pass(self):
        chk = check_sufficient_known(
            CLASSES, budgets=(4, 4, 4), capacity=CAPACITY, rates=[Fraction(5, 3)] * 3
        )
        assert chk.budgeted_load == 16240
        assert chk.memory_condition
        assert chk.rate_condition
        assert chk.sufficient_holds

    def test_rate_condition_fails_under_overload(self):
        chk = check_sufficient_known(
            CLASSES, budgets=(4, 4, 4), capacity=CAPACITY, rates=[5, 5, 5]
        )
        assert chk.memory_condition
        assert not chk.rate_condition
        assert chk.rate_condition_per_class == (False, False, False)
        assert not chk.sufficient_holds

    def test_memory_condition_fails_when_budget_grows(self):
        chk = check_sufficient_known(
            CLASSES, budgets=(5, 4, 4), capacity=CAPACITY, rates=[Fraction(5, 3)] * 3
        )
        assert chk.budgeted_load == 16650
        assert not chk.memory_condition
        assert not chk.sufficient_holds

    def test_boundary_budget_load(self):
        # w(1,1) = 2, budget 3 -> budgeted load 6 == capacity
        chk = check_sufficient_known([(1, 1)], budgets=(3,), capacity=6, rates=[1])
        assert chk.boundary
        assert not chk.memory_condition

    def test_rates_from_class_objects(self):
        classes = [RequestClass(1, 2, Fraction(1, 2))]
        chk = check_sufficient_known(classes, budgets=(1,), capacity=100)
        assert chk.rate_condition

    def test_mismatched_budget_count(self):
        with pytest.raises(ValueError):
            check_sufficient_known(CLASSES, budgets=(4, 4), capacity=CAPACITY, rates=[1, 1, 1])

    def test_equal_rate_fails_strictly(self):
        chk = check_sufficient_known([(1, 1)], budgets=(2,), capacity=100, rates=[2])
        assert not chk.rate_condition


class TestNecessaryUnknown:
    def test_point_mass(self):
        dist = LengthDistribution([(10, 20)], [1])
        chk = check_necessary_unknown(dist, rate=1, capacity=400)
        assert chk.offered_load == 410
        assert chk.necessary_violated

    def test_uniform_two_atoms(self):
        dist = LengthDistribution([(1, 1), (10, 20)], [1, 1])
        chk = check_necessary_unknown(dist, rate=2, capacity=1000)
        assert chk.offered_load == 412
        assert not chk.necessary_violated

    def test_empty_mix_offers_nothing(self):
        chk = check_necessary_unknown(None, rate=5, capacity=10)
        assert chk.offered_load == 0
        assert not chk.necessary_violated

    def test_weighted_mix_stays_exact(self):
        dist = LengthDistribution([(1, 1), (1, 2)], [1, 2])
        # E[w] = (2 + 2*5) / 3 = 4; rate 1/4 -> load 1
        chk = check_necessary_unknown(dist, rate=Fraction(1, 4), capacity=1)
        assert chk.boundary


class TestDecimalFloats:
    def test_stability_and_flow_scalar_read_one_tenth_alike(self):
        # a (9, 1) request costs 10 token-slots, so 0.1 per slot loads a
        # capacity of 1 exactly; 0.1's binary value (just above 1/10) would
        # overload it, and the analysis would disagree with the run
        dist = LengthDistribution([(9, 1)], [1])
        assert check_necessary_unknown(dist, rate=0.1, capacity=1).boundary
        assert check_necessary_known([(9, 1, 0.1)], capacity=1).boundary
        bound = overflow_bound(A=1, C=9, M=20, T=10, b=0.1, length_dist=dist)
        assert bound.epsilon == Fraction(19, 20)
        assert ScalarFlowControl(budget=0.1).budget == Fraction(1, 10)
        assert make_policy("flow_scalar", {"budget": 0.1}).budget == Fraction(1, 10)

    def test_spec_reads_one_tenth_alike_through_classes_and_rate(self):
        # the same workload, analysed through its classes and through its
        # length distribution and total rate, lands on the boundary both ways
        spec = WorkloadSpec.synthetic([RequestClass(9, 1, 0.1)], 100)
        assert spec.total_rate() == Fraction(1, 10)
        by_classes = build_report(1, classes=spec.classes)
        by_rate = build_report(1, length_dist=spec.length_distribution(), rate=spec.total_rate())
        assert by_classes.necessary.boundary
        assert by_rate.necessary.boundary


class TestOverflowBound:
    def test_hand_derived_constant(self):
        ob = overflow_bound(A=2, C=1, M=10, T=100, epsilon=Fraction(1, 2))
        assert ob.constant == Fraction(1, 48)
        assert ob.bound == pytest.approx(100 * math.exp(-100 / 48), rel=1e-12)
        assert not ob.negligible

    def test_float_half_is_exact(self):
        ob = overflow_bound(A=2, C=1, M=10, T=100, epsilon=0.5)
        assert ob.epsilon == Fraction(1, 2)

    def test_epsilon_from_budget_and_mix(self):
        dist = LengthDistribution([(10, 20)], [1])  # E[w] = 410
        ob = overflow_bound(A=2, C=20, M=1640, T=100, b=2, length_dist=dist)
        assert ob.epsilon == Fraction(1, 2)

    def test_zero_slack_rejected(self):
        dist = LengthDistribution([(10, 20)], [1])
        with pytest.raises(ValueError, match="epsilon"):
            overflow_bound(A=1, C=20, M=410, T=100, b=1, length_dist=dist)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            overflow_bound(A=2, C=1, M=10, T=100, epsilon=Fraction(-1, 2))

    def test_cap_below_budget_rejected(self):
        dist = LengthDistribution([(1, 1)], [1])
        with pytest.raises(ValueError, match="ceil"):
            overflow_bound(A=2, C=1, M=100, T=10, b=Fraction(5, 2), length_dist=dist)

    def test_length_bound_enforced(self):
        dist = LengthDistribution([(10, 20)], [1])
        with pytest.raises(ValueError, match="bound the lengths"):
            overflow_bound(A=2, C=10, M=1640, T=100, b=2, length_dist=dist)

    def test_both_forms_rejected(self):
        dist = LengthDistribution([(1, 1)], [1])
        with pytest.raises(ValueError):
            overflow_bound(A=2, C=1, M=10, T=10, b=1, length_dist=dist, epsilon=1)

    def test_monotone_decreasing_in_capacity(self):
        bounds = [
            overflow_bound(A=2, C=1, M=m, T=100, epsilon=Fraction(1, 2)).log_bound
            for m in (10, 20, 40, 80)
        ]
        assert bounds == sorted(bounds, reverse=True)
        assert len(set(bounds)) == len(bounds)

    def test_monotone_increasing_in_horizon(self):
        bounds = [
            overflow_bound(A=2, C=1, M=50, T=t, epsilon=Fraction(1, 2)).log_bound
            for t in (10, 100, 1000, 10000)
        ]
        assert bounds == sorted(bounds)

    def test_saturation_below_float_range(self):
        # exponent 16492^2 / 384 is around 7e5: far past any float exp
        ob = overflow_bound(A=2, C=2, M=16492, T=10000, epsilon=Fraction(1, 2))
        assert ob.negligible
        assert ob.bound == 0.0
        assert ob.render() == "~0"
        assert ob.log_bound < -700

    def test_large_length_bound_keeps_bound_vacuous(self):
        # with C on the scale of real outputs the C^3 denominator wins and
        # the bound stays near T; it must still be finite and positive
        ob = overflow_bound(A=12, C=60, M=16492, T=10000, epsilon=Fraction(252, 16492))
        assert not ob.negligible
        assert 0 < ob.bound <= 10000

    def test_log_bound_comparable_when_saturated(self):
        # even fully underflowed bounds stay ordered through log-space
        a = overflow_bound(A=2, C=10, M=16000, T=100, epsilon=Fraction(1, 2))
        b = overflow_bound(A=2, C=10, M=16492, T=100, epsilon=Fraction(1, 2))
        assert a.negligible and b.negligible
        assert b.log_bound < a.log_bound


class TestInvariantFuzz:
    def test_necessary_and_sufficient_never_both(self):
        rng = random.Random(7)
        for _ in range(500):
            k = rng.randint(1, 4)
            classes = [
                (rng.randint(1, 6), rng.randint(1, 6), Fraction(rng.randint(0, 8), rng.randint(1, 4)))
                for _ in range(k)
            ]
            budgets = tuple(rng.randint(0, 8) for _ in range(k))
            capacity = rng.randint(1, 600)
            nec = check_necessary_known(classes, capacity)
            suf = check_sufficient_known(
                [(l, o) for l, o, _ in classes],
                budgets,
                capacity,
                rates=[r for _, _, r in classes],
            )
            assert not (nec.necessary_violated and suf.sufficient_holds), (
                classes,
                budgets,
                capacity,
            )

    def test_checks_total_on_valid_inputs(self):
        rng = random.Random(11)
        for _ in range(200):
            pairs = [
                (rng.randint(1, 30), rng.randint(1, 30)) for _ in range(rng.randint(1, 5))
            ]
            dist = LengthDistribution(pairs, [rng.randint(1, 5) for _ in pairs])
            check_necessary_unknown(dist, Fraction(rng.randint(0, 50), 7), rng.randint(1, 10 ** 6))


class TestBuildReport:
    def test_known_variant_with_budgets(self):
        rep = build_report(
            capacity=CAPACITY,
            classes=with_rates(Fraction(5, 3)),
            budgets=(4, 4, 4),
        )
        assert rep.sufficient_holds is True
        assert not rep.necessary_violated
        assert rep.epsilon_slack == 1 - Fraction(16240, CAPACITY)
        doc = rep.as_dict()
        assert doc["sufficient"]["budgeted_load"] == 16240

    def test_known_variant_without_budgets(self):
        rep = build_report(capacity=CAPACITY, classes=with_rates(5))
        assert rep.necessary_violated
        assert rep.sufficient_holds is None
        assert rep.epsilon_slack is None

    def test_unknown_variant_with_bound(self):
        dist = LengthDistribution([(10, 20)], [1])
        rep = build_report(
            capacity=1640,
            length_dist=dist,
            rate=1,
            scalar_budget=2,
            horizon=1000,
        )
        assert rep.overflow is not None
        assert rep.overflow.epsilon == Fraction(1, 2)
        assert rep.epsilon_slack == Fraction(1, 2)

    def test_unknown_variant_overloaded_skips_bound(self):
        dist = LengthDistribution([(10, 20)], [1])
        rep = build_report(
            capacity=400, length_dist=dist, rate=2, scalar_budget=1, horizon=100
        )
        assert rep.necessary_violated
        assert rep.overflow is None

    def test_json_round_trip_loadable(self, tmp_path):
        import json

        rep = build_report(capacity=100, classes=[(1, 1, 1)], budgets=(2,))
        path = tmp_path / "stability.json"
        _write_json(path, rep.as_dict(), 1)
        doc = json.loads(path.read_text())
        assert doc["capacity"] == 100
        assert doc["necessary"]["verdict"] == "within_capacity"

    def test_requires_some_workload(self):
        with pytest.raises(ValueError):
            build_report(capacity=10)


class TestBudgetSearch:
    def small_spec(self, horizon=120):
        return WorkloadSpec.synthetic(
            [RequestClass(2, 3, Fraction(1, 2)), RequestClass(1, 2, Fraction(1, 2))],
            horizon=horizon,
            seed=0,
        )

    def test_singleton_grid(self):
        res = budget_search(
            self.small_spec(), 30, "flow_scalar", "token_throughput", grid=[1], seeds=[0]
        )
        assert res.best_budget == 1
        assert len(res.rows) == 1

    def test_repeat_runs_identical(self):
        kw = dict(
            spec=self.small_spec(),
            kv_capacity=30,
            policy="flow_scalar",
            objective="token_throughput",
            grid=[1, 2, 4],
            seeds=[0, 1],
        )
        a = budget_search(kw.pop("spec"), **kw)
        b = budget_search(self.small_spec(), **kw)
        assert a == b

    def test_starved_budget_loses(self):
        # one grid point too small to complete anything in the horizon
        res = budget_search(
            self.small_spec(),
            30,
            "flow_scalar",
            "request_throughput",
            grid=[Fraction(1, 1000), 2],
            seeds=[0, 1, 2],
        )
        assert res.best_budget == 2

    def test_latency_objective_minimizes(self):
        res = budget_search(
            self.small_spec(),
            30,
            "flow_scalar",
            "avg_latency",
            grid=[Fraction(1, 1000), 2],
            seeds=[0],
        )
        # the starved point has no completions: infinitely bad latency
        assert res.best_budget == 2

    def test_per_class_budget_grid(self):
        res = budget_search(
            self.small_spec(),
            30,
            "flow_per_class",
            "request_throughput",
            grid=[(1, 1), (2, 2)],
            seeds=[0],
        )
        assert res.best_budget in [(1, 1), (2, 2)]
        assert [row["budget"] for row in res.rows] == ["(1, 1)", "(2, 2)"]

    def test_csv_table(self, tmp_path):
        res = budget_search(
            self.small_spec(), 30, "flow_scalar", "token_throughput", grid=[1, 2], seeds=[0]
        )
        path = tmp_path / "search.csv"
        write_search_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("budget,objective_value")
        assert len(lines) == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            budget_search(self.small_spec(), 30, "flow_scalar", "token_throughput", grid=[])

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            budget_search(self.small_spec(), 30, "flow_scalar", "ttft", grid=[1])

    def test_unsearchable_policy_rejected(self):
        with pytest.raises(ValueError, match="searchable"):
            budget_search(self.small_spec(), 30, "mc", "token_throughput", grid=[1])


class TestBudgetSearchPinned:
    """search.csv bytes and the best point of every objective for each
    searchable policy, recorded before the objectives and the "better" test
    moved to the oracle's. The first point of each grid completes nothing,
    so its latency columns read inf."""

    GRIDS = {
        "flow_scalar": [Fraction(1, 10**6), 1, Fraction(3, 2), 3],
        "flow_per_class": [(0, 0), (1, 1), (2, 1)],
        "alpha_protection": [Fraction(99, 100), Fraction(1, 2), 0],
        "amin": [1000, 1, 3],
    }
    # (policy, objective, sha256 of search.csv, best_budget, best_value)
    PINNED = [
        ("flow_scalar", "avg_latency", "dd01006d8a3f9a9ed85d839dbedebad53164daa16262f0118efcd8c810b23ac5", 3, 2.4841772151898733),
        ("flow_scalar", "p95_latency", "8b1988f2bc4a72a365a970e9e746e30ee78fdbdd35eb47258aeb41ef0565b5bc", 3, 3.0),
        ("flow_scalar", "request_throughput", "b1b472bed89dbfe3f4fca91adf1ebdd5db17e15fafb899ad9be8a566755d97f8", 3, 1.1583333333333332),
        ("flow_scalar", "token_throughput", "f9f0a9e0d0d06094100e84ba9f01d5d4de1b0a00e2b7088e55cca0d1fef33738", 3, 2.841666666666667),
        ("flow_per_class", "avg_latency", "8930e6f6c8a57c7951e85abd4fda76e1098c903096976c08036908ce81c505c7", (2, 1), 2.8166666666666664),
        ("flow_per_class", "p95_latency", "e88090117061a818919f0e339671f37dd65dd15eb6b125384ebd418c3e88c666", (2, 1), 4.0),
        ("flow_per_class", "request_throughput", "faf6a57214890d12871ee7893d46dddbc3938b6fd70c0f4fa0244e11b7cf643b", (1, 1), 1.1583333333333332),
        ("flow_per_class", "token_throughput", "088eb8571781d9394eb919a995a3524985d6b0db47c6ad8b7b1e308bc6679694", (1, 1), 2.841666666666667),
        ("alpha_protection", "avg_latency", "592f4658dbd7cb3bf2df4f6729d90018af8bf25543ec4d78f75b3e685e79d881", 0, 2.4772727272727275),
        ("alpha_protection", "p95_latency", "924478da59f32eee9cd001e72685d61586a6ab86d53f5008663498c560e4a1d6", 0, 3.0),
        ("alpha_protection", "request_throughput", "c81445535df8d1946477869a6858e4c08f03ee98431a4cf690d283336546af84", Fraction(1, 2), 1.1583333333333332),
        ("alpha_protection", "token_throughput", "5e362fbbb585bb2d874ce658d9957dd6ea74b9227440e3ef709c4abc7a2073a0", Fraction(1, 2), 2.841666666666667),
        ("amin", "avg_latency", "8c30964fca27d2681eecaf9d8d74a6c95a2bd4b5110da38ef0953221dc49a79c", 1, 2.4651898734177218),
        ("amin", "p95_latency", "7ccd8fd91e65aba37da094e75972e7339405c4c456cabe6b6dbecfc7bcd450d8", 1, 3.0),
        ("amin", "request_throughput", "094d6f6085de8106ada645bf415c1968c678443d30e88384f5b7d8dfa577b9fa", 1, 1.1583333333333332),
        ("amin", "token_throughput", "fe99d03b4541eb4d17ac9769fb4c55403708a2df69336072b76856f943290ed5", 1, 2.841666666666667),
    ]

    @pytest.mark.parametrize("policy, objective, digest, best_budget, best_value", PINNED)
    def test_pinned(self, tmp_path, policy, objective, digest, best_budget, best_value):
        spec = WorkloadSpec.synthetic(
            [RequestClass(2, 3, Fraction(1, 2)), RequestClass(1, 2, Fraction(1, 2))], horizon=60
        )
        res = budget_search(spec, 30, policy, objective, self.GRIDS[policy], seeds=[0, 1])
        assert res.rows[0]["completed"] == 0
        path = tmp_path / "search.csv"
        write_search_csv(res, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert (res.best_budget, res.best_value) == (best_budget, best_value)
