"""Statistical check suite: gating, verdicts, and threshold arithmetic."""

import os
from fractions import Fraction

import pytest

from kvflow import checks
from kvflow.core import RequestClass
from kvflow.workload import TraceRecord, WorkloadSpec

run_slow = pytest.mark.skipif(
    not os.environ.get("KVFLOW_SLOW"),
    reason="full-size statistical run; set KVFLOW_SLOW=1 to enable",
)

BIG_CLASSES = [
    RequestClass(10, 20, Fraction(5, 3)),
    RequestClass(10, 40, Fraction(5, 3)),
    RequestClass(10, 60, Fraction(5, 3)),
]


def small_known_spec(rate=1, horizon=1500):
    classes = [RequestClass(3, 4, Fraction(rate)), RequestClass(2, 3, Fraction(rate))]
    return WorkloadSpec.synthetic(classes, horizon=horizon)


class TestBudgetedNoOverflow:
    def test_sufficient_budgets_pass(self):
        spec = small_known_spec()
        # budgeted load 2*22 + 2*12 = 68 < 100, budgets exceed both rates
        result = checks.check_budgeted_no_overflow(spec, (2, 2), 100, seeds=range(5))
        assert result.passed
        assert result.details["usage_bound"] == 68
        assert len(result.details["runs"]) == 5
        assert all(r["overflow_slots"] == 0 for r in result.details["runs"])

    def test_insufficient_budgets_skip(self):
        spec = WorkloadSpec.synthetic(BIG_CLASSES, horizon=100)
        # 5*410 + 4*1220 + 4*2430 = 16650 > 16492: memory precondition fails
        result = checks.check_budgeted_no_overflow(spec, (5, 4, 4), 16492, seeds=(0,))
        assert result.skipped
        assert "precondition" in result.reason
        assert result.details["sufficiency"]["memory_condition"] is False

    def test_hidden_outputs_skip(self):
        spec = WorkloadSpec.synthetic(BIG_CLASSES, horizon=100, outputs_known=False)
        assert checks.check_budgeted_no_overflow(spec, (4, 4, 4), 16492).skipped

    def test_trace_skip(self):
        spec = WorkloadSpec.from_trace(
            [TraceRecord(2, 2)] * 50, rate=1, horizon=50, outputs_known=True
        )
        assert checks.check_budgeted_no_overflow(spec, (1,), 100).skipped

    def test_zero_rate_classes_pass_trivially(self):
        classes = [RequestClass(3, 4, 0), RequestClass(2, 3, 0)]
        spec = WorkloadSpec.synthetic(classes, horizon=300)
        result = checks.check_budgeted_no_overflow(spec, (1, 1), 100, seeds=(0, 1))
        assert result.passed
        assert all(r["max_usage"] == 0 for r in result.details["runs"])

    def test_no_seeds_is_an_error(self):
        with pytest.raises(ValueError, match="at least one seed"):
            checks.check_budgeted_no_overflow(small_known_spec(), (2, 2), 100, seeds=())

    def test_deterministic(self):
        spec = small_known_spec()
        a = checks.check_budgeted_no_overflow(spec, (2, 2), 100, seeds=(0, 1))
        b = checks.check_budgeted_no_overflow(spec, (2, 2), 100, seeds=(0, 1))
        assert a.as_dict() == b.as_dict()

    def test_full_size_preset(self):
        spec = WorkloadSpec.synthetic(BIG_CLASSES, horizon=10000)
        result = checks.check_budgeted_no_overflow(spec, (4, 4, 4), 16492)
        assert result.passed
        assert result.details["usage_bound"] == 16240
        assert max(r["max_usage"] for r in result.details["runs"]) <= 16240


class TestExplosionThreshold:
    def test_frozen_arithmetic(self):
        got = checks.explosion_threshold(Fraction(20300), 16492, 2430)
        assert got == pytest.approx(0.8 * 3808 / 2430, rel=1e-12)

    def test_linearity_in_excess(self):
        base = checks.explosion_threshold(Fraction(130), 100, 10)
        doubled = checks.explosion_threshold(Fraction(160), 100, 10)
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_requires_overload(self):
        with pytest.raises(ValueError, match="does not exceed"):
            checks.explosion_threshold(Fraction(90), 100, 10)


class TestOverloadExplosion:
    def test_overloaded_mix_fails_every_policy_to_keep_up(self):
        # load 2 * 22 + 1 * 12 = 56 against capacity 30
        classes = [RequestClass(3, 4, Fraction(2)), RequestClass(2, 3, Fraction(1))]
        spec = WorkloadSpec.synthetic(classes, horizon=3000)
        result = checks.check_overload_explosion(
            spec, 30, budgets=(1, 1), seeds=(0, 1)
        )
        assert result.passed
        names = {row["policy"] for row in result.details["slopes"]}
        assert names == {
            "flow_per_class",
            "flow_scalar",
            "alpha_protection",
            "mc",
            "mc_sf",
            "amin",
        }
        assert all(
            row["slope"] >= result.details["threshold"] for row in result.details["slopes"]
        )
        assert result.details["left_out"] == []
        assert "left out" not in result.reason

    def test_stable_spec_skips(self):
        result = checks.check_overload_explosion(small_known_spec(), 10000, seeds=(0,))
        assert result.skipped
        assert "does not exceed" in result.reason

    def test_trace_replay_uses_empirical_load(self):
        records = [TraceRecord(3, 4)] * 4000
        spec = WorkloadSpec.from_trace(records, rate=2, horizon=1000)
        # empirical load 2 * 22 = 44 against capacity 30
        result = checks.check_overload_explosion(
            spec,
            30,
            policies=(
                ("flow_scalar", {"budget": 2}),
                ("amin", {"min_output": 1}),
                ("mc", {"assume_max_output": 4}),
            ),
            seeds=(0, 1),
        )
        assert result.passed
        assert result.details["offered_load"] == pytest.approx(44.0)
        names = {row["policy"] for row in result.details["slopes"]}
        assert names == {"flow_scalar", "amin", "mc"}

    def test_inapplicable_policies_are_left_out(self):
        records = [TraceRecord(3, 4)] * 4000
        spec = WorkloadSpec.from_trace(records, rate=2, horizon=500)
        result = checks.check_overload_explosion(spec, 30, seeds=(0,))
        names = {row["policy"] for row in result.details["slopes"]}
        # no classes, hidden outputs, mc lacks a worst-case length
        assert "flow_per_class" not in names
        assert "mc_sf" not in names
        assert "mc" not in names
        left_out = [entry.split(" (")[0] for entry in result.details["left_out"]]
        assert left_out == ["flow_per_class", "mc", "mc_sf"]
        assert result.reason.endswith("; left out: " + ", ".join(result.details["left_out"]))

    def test_no_applicable_policy_skips(self):
        records = [TraceRecord(3, 4)] * 4000
        spec = WorkloadSpec.from_trace(records, rate=2, horizon=500)
        result = checks.check_overload_explosion(spec, 30, policies=(("mc", {}), ("mc_sf", {})), seeds=(0,))
        assert result.skipped
        assert result.reason.startswith("no policy applies: mc (")
        assert "mc_sf (needs visible output lengths)" in result.reason

    def test_missing_budgets_named_when_nothing_applies(self):
        records = [TraceRecord(3, 4)] * 4000
        spec = WorkloadSpec.from_trace(records, rate=2, horizon=500)
        result = checks.check_overload_explosion(spec, 30, policies=(("flow_per_class", None),), seeds=(0,))
        assert result.skipped
        assert result.reason == "no policy applies: flow_per_class (needs per-class budgets)"

    @run_slow
    def test_full_size_preset(self):
        spec = WorkloadSpec.synthetic(
            [RequestClass(10, 20, 5), RequestClass(10, 40, 5), RequestClass(10, 60, 5)],
            horizon=50000,
        )
        result = checks.check_overload_explosion(
            spec,
            16492,
            budgets=(4, 4, 4),
            policies=(
                ("flow_per_class", None),
                ("flow_scalar", {"budget": 12}),
                ("alpha_protection", {"alpha": 0.6}),
                ("mc", {}),
                ("mc_sf", {}),
                ("amin", {"min_output": 20}),
            ),
        )
        assert result.passed
        assert result.details["threshold"] == pytest.approx(0.8 * 3808 / 2430, rel=1e-12)


class TestOverflowRarity:
    def test_wide_margin_passes(self):
        spec = small_known_spec(horizon=2000)
        # budget 1 * mean workload 16.5 against capacity 100
        result = checks.check_overflow_rarity(spec, 1, 100, seeds=range(5))
        assert result.passed
        assert result.details["epsilon"] > 0.8
        assert all(r["overflow_slots"] == 0 for r in result.details["runs"])

    def test_nonpositive_margin_skips(self):
        spec = small_known_spec()
        result = checks.check_overflow_rarity(spec, 10, 100, seeds=(0,))
        assert result.skipped
        assert "not positive" in result.reason

    def test_fractional_budget_respects_draw_cap(self):
        spec = small_known_spec(horizon=2000)
        result = checks.check_overflow_rarity(spec, "3/2", 100, seeds=(0, 1))
        assert result.passed
        assert result.details["draw_cap"] == 2

    def test_thin_margin_with_backlog_fails(self):
        # margin epsilon = 1 - (9/5 * 410)/750 = 12/750 > 0, but the
        # Bernoulli admission draw makes usage fluctuate well past +12
        classes = [RequestClass(10, 20, Fraction(4))]
        spec = WorkloadSpec.synthetic(classes, horizon=2000)
        result = checks.check_overflow_rarity(spec, "9/5", 750, seeds=(0,))
        assert result.verdict == checks.FAIL
        assert "overflow slots observed" in result.reason

    def test_no_seeds_is_an_error(self):
        with pytest.raises(ValueError, match="at least one seed"):
            checks.check_overflow_rarity(small_known_spec(horizon=2000), 1, 100, seeds=())

    def test_full_size_preset(self):
        spec = WorkloadSpec.synthetic(BIG_CLASSES, horizon=10000, outputs_known=False)
        result = checks.check_overflow_rarity(spec, 12, 16492)
        assert result.passed
        assert result.details["epsilon_exact"] == str(Fraction(252, 16492))
