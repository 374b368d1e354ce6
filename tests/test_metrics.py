"""Metrics tests: hand-computed reports, nearest-rank percentiles, the
event-log recomputation oracle, and exact CSV rows."""

import json
from fractions import Fraction

import numpy as np
import pytest

from kvflow.cli import _write_json, write_sweep_csv
from kvflow.core import Request, RequestClass, nearest_rank
from kvflow.engine import event_rows, run
from kvflow.metrics import (
    CSV_FIELDS,
    MetricsReport,
    _utilization,
    compute_metrics,
    least_squares_slope,
    recompute_from_events,
)
from kvflow.policies import FixedSchedule, make_policy
from kvflow.workload import WorkloadSpec, generate_arrivals
from references import read_sweep_csv, report_from_csv_row


def req(rid, l, o, arrival, known=True, class_id=None):
    return Request(
        id=rid,
        prompt_len=l,
        decode_len=o,
        arrival_slot=arrival,
        class_id=class_id,
        output_known=known,
    )


def report_from(latencies=(), horizon=10, usage=None, unfinished=None, **overrides):
    """Hand-build a report the way compute_metrics would."""
    n = len(latencies)
    ordered = sorted(latencies)
    fields = dict(
        policy="test",
        seed=0,
        horizon=horizon,
        kv_capacity=100,
        arrivals=n,
        completed=n,
        unfinished=0,
        latency_sum=sum(ordered),
        p95_latency=ordered[nearest_rank(n) - 1] if n else None,
        retained_tokens=0,
        wasted_tokens=0,
        overflow_events=0,
        eviction_events=0,
        kv_util_mean=0.0,
        kv_util_max=0.0,
        kv_util_std=0.0,
        queue_growth_slope=0.0,
    )
    fields.update(overrides)
    return MetricsReport(**fields)


class TestNearestRank:
    def test_hundred_values(self):
        # ceil(0.95 * 100) = 95
        assert nearest_rank(100) == 95

    def test_exact_multiple(self):
        # 0.95 * 20 = 19 exactly; float ceil would give 20 here
        assert nearest_rank(20) == 19

    def test_rounds_up(self):
        assert nearest_rank(21) == 20  # ceil(19.95)

    def test_single_value(self):
        assert nearest_rank(1) == 1

    def test_small_counts(self):
        # with n < 20 the p95 rank is just the maximum
        for n in range(1, 20):
            assert nearest_rank(n) == n

    def test_other_percentile(self):
        assert nearest_rank(10, 50, 100) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank(0)


class TestLeastSquaresSlope:
    def test_constant_series(self):
        assert least_squares_slope([7] * 100) == 0.0

    def test_identity_series(self):
        assert least_squares_slope(list(range(1, 101))) == pytest.approx(1.0)

    def test_affine_series(self):
        assert least_squares_slope([3 + 2 * t for t in range(50)]) == pytest.approx(2.0)

    def test_short_series(self):
        assert least_squares_slope([5]) == 0.0
        assert least_squares_slope([]) == 0.0


# the sizes cross numpy's pairwise-summation blocks (8 and 128 elements)
REDUCTION_SIZES = (0, 1, 2, 7, 8, 9, 127, 128, 129, 1_000, 50_000)


def slope_with_numpy_methods(y):
    """least_squares_slope written with ndarray.mean."""
    arr = np.asarray(y, dtype=np.float64)
    n = len(arr)
    if n < 2:
        return 0.0
    t = np.arange(1, n + 1, dtype=np.float64)
    tc = t - t.mean()
    return float(np.dot(tc, arr - arr.mean()) / np.dot(tc, tc))


class TestReductionBits:
    """_utilization and least_squares_slope call numpy's reduction ufuncs
    directly; they must give the same bits as the ndarray methods."""

    @pytest.mark.parametrize("n", REDUCTION_SIZES)
    def test_utilization_equals_ndarray_methods(self, n):
        rng = np.random.default_rng(n)
        cases = [
            (rng.integers(0, 16_493, n), 16_492),
            (rng.integers(0, 8, n), 7),
            (2**53 - rng.integers(0, 1_000, n), 2**62 - 1),
            (rng.integers(2**52, 2**53, n), 2**53 + 1),
        ]
        for usage, kv in cases:
            usage = usage.astype(np.int64)
            if n == 0:
                assert _utilization(usage, kv) == (0.0, 0.0, 0.0)
                continue
            u = usage.astype(np.float64) / float(kv)
            assert _utilization(usage, kv) == (float(u.mean()), float(u.max()), float(u.std()))

    @pytest.mark.parametrize("n", REDUCTION_SIZES)
    def test_slope_equals_ndarray_methods(self, n):
        rng = np.random.default_rng(n + 1)
        series = [
            rng.integers(0, 50, n),
            2**53 - rng.integers(0, 1_000, n),
            np.cumsum(rng.integers(0, 3, n)),
            rng.random(n) * 1e6,
        ]
        for y in series:
            assert least_squares_slope(y) == slope_with_numpy_methods(y)
            assert least_squares_slope(y.tolist()) == slope_with_numpy_methods(y)


class TestHandComputedReport:
    def run_one(self):
        # one request (l=2, o=5) arriving slot 1, activated immediately,
        # completing slot 5, over a 10-slot horizon
        arrivals = [[req(1, 2, 5, 1)]] + [[] for _ in range(9)]
        result = run(arrivals, FixedSchedule({1: [1]}), kv_capacity=100, record_events=True)
        return result, compute_metrics(result)

    def test_latency(self):
        _, m = self.run_one()
        assert m.avg_latency == 5
        assert m.p95_latency == 5

    def test_throughputs(self):
        _, m = self.run_one()
        assert m.request_throughput == Fraction(1, 10)
        assert m.token_throughput == Fraction(5, 10)

    def test_exact_count_recovery(self):
        _, m = self.run_one()
        assert m.request_throughput * m.horizon == m.completed
        assert m.token_throughput * m.horizon == m.retained_tokens

    def test_utilization(self):
        # footprints 3,4,5,6,7 then 0 for five slots, over capacity 100
        _, m = self.run_one()
        u = np.array([3, 4, 5, 6, 7, 0, 0, 0, 0, 0]) / 100.0
        assert m.kv_util_mean == pytest.approx(u.mean())
        assert m.kv_util_max == pytest.approx(0.07)
        assert m.kv_util_std == pytest.approx(u.std())

    def test_queue_slope_mixed_series(self):
        # unfinished is 1 for slots 1..4 (request in flight), 0 after
        _, m = self.run_one()
        assert m.queue_growth_slope < 0


class TestZeroCompletions:
    def test_no_arrivals(self):
        result = run([[] for _ in range(5)], FixedSchedule({}), kv_capacity=10)
        m = compute_metrics(result)
        assert m.completed == 0
        assert m.avg_latency is None
        assert m.p95_latency is None
        assert m.request_throughput == 0
        assert m.token_throughput == 0

    def test_never_activated(self):
        arrivals = [[req(1, 5, 5, 1)], [], []]
        m = compute_metrics(run(arrivals, FixedSchedule({}), kv_capacity=10))
        assert m.completed == 0
        assert m.unfinished == 1
        assert m.request_throughput == 0


class TestPercentileFromRuns:
    def test_latencies_one_to_hundred(self):
        # 100 requests with o = 1..100, all activated at their arrival
        # slot 1..100 staggered so each finishes alone; easier: activate
        # request k at slot 1 with o=k is infeasible at once, so build a
        # synthetic report instead and check the order statistic.
        m = report_from(latencies=list(range(1, 101)))
        assert m.p95_latency == 95
        assert m.avg_latency == Fraction(5050, 100)

    def test_p95_at_least_min(self):
        m = report_from(latencies=[4, 9, 2, 7])
        assert m.p95_latency >= min([4, 9, 2, 7])


class TestSerialization:
    def make_reports(self):
        arrivals = [[req(1, 2, 3, 1), req(2, 4, 1, 1)], [], [], []]
        r1 = run(arrivals, FixedSchedule({1: [1], 2: [2]}), kv_capacity=50)
        spec = WorkloadSpec.synthetic(
            [RequestClass(3, 4, Fraction(1, 2))], horizon=30, seed=1
        )
        r2 = run(generate_arrivals(spec, seed=1), make_policy("mc"), kv_capacity=40)
        return [compute_metrics(r1), compute_metrics(r2)]

    def test_csv_round_trip(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        assert read_sweep_csv(path)[0] == reports

    def test_csv_round_trip_zero_completions(self, tmp_path):
        m = report_from()
        path = tmp_path / "sweep.csv"
        write_sweep_csv([m], path)
        (back,), (aggregate,) = read_sweep_csv(path)
        assert back == m
        assert back.p95_latency is None
        assert aggregate["avg_latency"] == aggregate["p95_latency"] == ""

    def test_json_is_loadable(self, tmp_path):
        reports = self.make_reports()
        path = tmp_path / "metrics.json"
        _write_json(path, reports[0].as_dict(), 1)
        doc = json.loads(path.read_text())
        assert doc["completed"] == reports[0].completed
        assert doc["kv_utilization"]["max"] == reports[0].kv_util_max

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_sweep_csv(path)

    def test_rejects_short_row(self):
        with pytest.raises(ValueError):
            report_from_csv_row(["x", "1"])


def overloaded_run(policy_name, params, seed=0, horizon=400):
    classes = [
        RequestClass(4, 3, Fraction(2)),
        RequestClass(2, 6, Fraction(2)),
    ]
    spec = WorkloadSpec.synthetic(classes, horizon=horizon, seed=seed)
    pol = make_policy(policy_name, params)
    return run(
        generate_arrivals(spec, seed=seed),
        pol,
        kv_capacity=60,
        seed=seed,
        record_events=True,
    )


class TestEventLogRecompute:
    # The recomputation shares no state with the engine's counters, so
    # agreement pins both sides.
    @pytest.mark.parametrize(
        "name,params",
        [
            ("flow_per_class", {"budgets": (1, 1)}),
            ("flow_scalar", {"budget": 2}),
            ("alpha_protection", {"alpha": 0.5}),
            ("mc", {}),
            ("mc_sf", {}),
            ("amin", {"min_output": 3}),
        ],
    )
    def test_matches_direct_metrics(self, name, params):
        for seed in (0, 1, 2):
            result = overloaded_run(name, params, seed=seed)
            direct = compute_metrics(result)
            replayed = recompute_from_events(
                result.events,
                kv_capacity=result.kv_capacity,
                horizon=result.horizon,
                policy=result.policy_name,
                seed=result.seed,
            )
            assert replayed == direct
            # a plain row log, as parsed from the events CSV, replays alike
            rows = recompute_from_events(
                list(event_rows(result.events)),
                kv_capacity=result.kv_capacity,
                horizon=result.horizon,
                policy=result.policy_name,
                seed=result.seed,
            )
            assert rows == direct

    def test_token_accounting_bound(self):
        result = overloaded_run("flow_scalar", {"budget": 2})
        m = compute_metrics(result)
        # retained + wasted can undercount only by tokens still held by
        # requests left active at the end of the run
        assert m.retained_tokens + m.wasted_tokens <= result.generated_tokens
        slack = result.generated_tokens - m.retained_tokens - m.wasted_tokens
        if result.final_active == 0:
            assert slack == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            recompute_from_events([(1, "bogus", 1, 0)], kv_capacity=10, horizon=2)

    def test_rejects_out_of_horizon_slot(self):
        # slot 0 would otherwise index the last slot from the end
        for event in [(3, "arrive", 1, 0), (0, "decode_step", 1, 5), (3, "decode_step", 1, 5)]:
            with pytest.raises(ValueError, match="outside horizon"):
                recompute_from_events([event], kv_capacity=10, horizon=2)

    @pytest.mark.parametrize(
        "log, message",
        [
            ([(1, "complete", 5, 0)], "slot 1: complete of request 5 which is not active"),
            ([(1, "arrive", 1, 0), (2, "evict", 1, 0)], "slot 2: evict of request 1 which is not active"),
            (
                [(1, "arrive", 1, 0), (1, "activate", 1, 3), (2, "activate", 1, 6)],
                "slot 2: activate of request 1 which is not waiting",
            ),
            ([(1, "arrive", 1, 0), (2, "arrive", 1, 0)], "slot 2: arrive of request 1 which arrived before"),
            ([(1, "activate", 4, 3)], "slot 1: activate of request 4 which is not waiting"),
            (
                [(1, "arrive", 1, 0), (1, "activate", 1, 2), (1, "complete", 1, 0), (2, "activate", 1, 2)],
                "slot 2: activate of request 1 which is not waiting",
            ),
            (
                [(1, "arrive", 1, 0), (1, "activate", 1, 2), (1, "complete", 1, 0), (2, "complete", 1, 0)],
                "slot 2: complete of request 1 which is not active",
            ),
        ],
    )
    def test_rejects_inconsistent_log(self, log, message):
        with pytest.raises(ValueError, match=message):
            recompute_from_events(log, kv_capacity=10, horizon=3)


class TestCsvFieldOrder:
    def test_integer_columns_precede_floats(self):
        # exact reconstruction depends on the integer columns being present
        idx = {name: i for i, name in enumerate(CSV_FIELDS)}
        assert idx["latency_sum"] < idx["avg_latency"]
        assert idx["completed"] < idx["request_throughput"]
        assert idx["retained_tokens"] < idx["token_throughput"]
