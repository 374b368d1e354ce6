"""System-level acceptance gate.

Nine end-to-end criteria, one test each, covering: the budgeted-load
arithmetic, no-overflow and no-eviction guarantees of per-class flow
control, the per-class queue recursion, queue explosion under overload
for every policy, the overflow-probability constant plus observed
overflow rarity under scalar flow control, exact cache-usage
decomposition from the activation log, weak dominance of the hindsight
oracle, bit-identical reruns, and the trace-to-comparison pipeline.

Each test prints one `criterion N ...: PASS` line when it succeeds; a
failing test is the corresponding FAIL line in the pytest report. The
numeric constants here are frozen expectations, not tunables.
"""

import csv
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kvflow import cli, engine, metrics, oracle, presets, stability
from kvflow.core import RequestClass, workload_tokens
from kvflow.engine import run as engine_run
from kvflow.policies import make_policy
from kvflow.workload import WorkloadSpec, generate_arrivals

KV_CAPACITY = 16492
BUDGETS = (4, 4, 4)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _passed(num, text):
    print(f"criterion {num} ({text}): PASS", flush=True)


def _classes(rate):
    rate = Fraction(rate)
    return [
        RequestClass(10, 20, rate),
        RequestClass(10, 40, rate),
        RequestClass(10, 60, rate),
    ]


def _spec(rate, horizon, outputs_known=True):
    return WorkloadSpec.synthetic(_classes(rate), horizon=horizon, outputs_known=outputs_known)


def test_criterion_1_budgeted_load_arithmetic():
    classes = _classes(Fraction(5, 3))
    stability.check_sufficient_known(classes, BUDGETS, KV_CAPACITY)  # warm caches
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        check = stability.check_sufficient_known(classes, BUDGETS, KV_CAPACITY)
        best = min(best, time.perf_counter() - start)
    assert check.budgeted_load == 16240
    assert check.budgeted_load < KV_CAPACITY == 16492
    assert check.memory_condition and check.rate_condition
    assert check.sufficient_holds
    assert 16240 == sum(
        b * workload_tokens(c.prompt_len, c.decode_len) for b, c in zip(BUDGETS, classes)
    )
    assert best < 0.001, f"analyzer took {best * 1e3:.3f} ms"
    _passed(1, "budgeted load is exactly 16240 < 16492, under 1 ms")


def test_criterion_2_per_class_budgets_never_overflow():
    start = time.perf_counter()
    worst_usage = 0
    for seed in range(20):
        res = engine_run(
            generate_arrivals(_spec(Fraction(5, 3), 10000), seed),
            make_policy("flow_per_class", {"budgets": BUDGETS}),
            KV_CAPACITY,
            seed=seed,
        )
        assert res.overflow_slots == 0, f"seed {seed} overflowed"
        assert res.eviction_count == 0, f"seed {seed} evicted"
        assert res.max_usage <= 16240, f"seed {seed} peaked at {res.max_usage}"
        worst_usage = max(worst_usage, res.max_usage)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    _passed(2, f"20 runs x 10000 slots: zero overflows/evictions, peak {worst_usage} <= 16240")


def test_criterion_3_waiting_queue_recursion_replay():
    for seed in range(5):
        stream = generate_arrivals(_spec(Fraction(5, 3), 2000), seed)
        res = engine_run(
            stream,
            make_policy("flow_per_class", {"budgets": BUDGETS}),
            KV_CAPACITY,
            seed=seed,
            track_classes=3,
        )
        counts = res.class_arrivals
        assert counts is not None
        q = np.zeros(3, dtype=np.int64)
        b = np.asarray(BUDGETS)
        expected = np.zeros_like(counts)
        for t in range(len(counts)):
            q = np.maximum(q + counts[t] - b, 0)
            expected[t] = q
        assert np.array_equal(res.class_waiting, expected), f"seed {seed} diverged"
    _passed(3, "per-class backlog equals the max(q + n - b, 0) replay at every slot, 5 seeds")


OVERLOAD_POLICIES = (
    ("flow_per_class", {"budgets": BUDGETS}),
    ("flow_scalar", {"budget": 12}),
    ("alpha_protection", {"alpha": 0.6}),
    ("mc", {}),
    ("mc_sf", {}),
    ("amin", {"min_output": 20}),
)

# excess load per slot over the largest per-request lifetime cost, with
# a 0.8 finite-horizon safety factor: 0.8 * (20300 - 16492) / 2430
EXPLOSION_SLOPE = 0.8 * (20300 - 16492) / 2430


@pytest.mark.slow
def test_criterion_4_overload_explodes_under_every_policy():
    assert EXPLOSION_SLOPE == pytest.approx(1.2537, abs=5e-4)
    start = time.perf_counter()
    slopes = {}
    policy_s = dict.fromkeys((name for name, _ in OVERLOAD_POLICIES), 0.0)

    def slope_of(arrivals, policy, seed):
        tick = time.perf_counter()
        report = metrics.compute_metrics(engine_run(arrivals, policy, KV_CAPACITY, seed=seed))
        policy_s[policy.name] += time.perf_counter() - tick
        return report.queue_growth_slope

    # seed-outer: each seed's 50 000-slot stream is generated once and
    # replayed under all six policies
    policies = [make_policy(name, params) for name, params in OVERLOAD_POLICIES]
    seeds = range(10)
    for seed, per_policy in zip(seeds, engine.sweep(_spec(5, 50000), policies, seeds, slope_of)):
        for (name, _), slope in zip(OVERLOAD_POLICIES, per_policy, strict=True):
            slopes[name] = min(slopes.get(name, math.inf), slope)
            assert slope >= EXPLOSION_SLOPE, (
                f"{name} seed {seed}: unfinished slope {slope:.3f} "
                f"below {EXPLOSION_SLOPE:.3f} req/slot"
            )
    elapsed = time.perf_counter() - start
    spent = ", ".join(f"{name} {s:.1f} s" for name, s in policy_s.items())
    assert elapsed < 300, (
        f"took {elapsed:.1f} s: generate_arrivals and the rest {elapsed - sum(policy_s.values()):.1f} s; "
        f"run and metrics per policy: {spent}"
    )
    floor = min(slopes.values())
    _passed(
        4,
        f"all six policies diverge at >= {floor:.2f} >= {EXPLOSION_SLOPE:.2f} req/slot, "
        f"{elapsed:.0f} s",
    )


def test_criterion_5_overflow_bound_and_observed_rarity():
    ob = stability.overflow_bound(A=2, C=1, M=10, T=100, epsilon=0.5)
    assert ob.constant == Fraction(1, 48)
    assert ob.bound == pytest.approx(100 * math.exp(-100 / 48), rel=1e-12)

    # the scalar budget satisfies the load-margin condition with
    # epsilon = 252/16492 > 0: 12 * 4060/3 = 16240 <= (1 - eps) * 16492
    spec = _spec(Fraction(5, 3), 10000, outputs_known=False)
    eps = 1 - Fraction(12) * spec.length_distribution().mean_workload() / KV_CAPACITY
    assert eps == Fraction(252, 16492)
    assert eps > 0

    observed = 0
    for seed in range(20):
        res = engine_run(
            generate_arrivals(spec, seed),
            make_policy("flow_scalar", {"budget": 12}),
            KV_CAPACITY,
            seed=seed,
        )
        observed += res.overflow_slots
    assert observed == 0
    _passed(5, "constant 1/48 and bound 100*exp(-100/48) exact; 0 overflows in 20x10000 slots")


def _usage_from_activation_log(events, lengths, horizon):
    """Independent cache-usage series: sum of l + q over live requests,
    with q the number of tokens decoded by the end of each slot."""
    active = {}
    spans = []
    for slot, kind, rid, _ in events:
        if kind == engine.EVENT_ACTIVATE:
            active[rid] = slot
        elif kind == engine.EVENT_EVICT:
            spans.append((rid, active.pop(rid), slot - 1))
        elif kind == engine.EVENT_COMPLETE:
            spans.append((rid, active.pop(rid), slot))
    for rid, s in active.items():
        spans.append((rid, s, horizon))
    usage = np.zeros(horizon, dtype=np.int64)
    for rid, s, e in spans:
        l, o = lengths[rid]
        for t in range(s, e + 1):
            q = t - s + 1
            assert q <= o, f"request {rid} decoded past its length"
            usage[t - 1] += l + q
    return usage


def test_criterion_6_usage_decomposes_over_activation_log():
    spec = _spec(Fraction(5, 3), 2000, outputs_known=False)
    evictions_seen = 0
    for kv_capacity in (KV_CAPACITY, 3000):
        for seed in range(10):
            stream = generate_arrivals(spec, seed)
            res = engine_run(
                stream,
                make_policy("flow_scalar", {"budget": 12}),
                kv_capacity,
                seed=seed,
                record_events=True,
            )
            lengths = {
                r.id: (r.prompt_len, r.decode_len) for slot in stream.slots for r in slot
            }
            rebuilt = _usage_from_activation_log(res.events, lengths, res.horizon)
            assert np.array_equal(rebuilt, res.usage), f"M={kv_capacity} seed {seed}"
            evictions_seen += res.eviction_count
    assert evictions_seen > 0, "the tight-capacity runs were supposed to evict"
    _passed(6, "sum of (l + q) over live requests equals recorded usage, 20 runs x 2000 slots")


ORACLE_CLASSES = ((2, 3), (1, 2), (3, 4), (2, 5))
ORACLE_POLICIES = (
    ("flow_per_class", {"budgets": (1, 1, 1, 1)}),
    ("flow_scalar", {"budget": 2}),
    ("alpha_protection", {"alpha": 0.5}),
    ("mc", {}),
    ("mc_sf", {}),
    ("amin", {"min_output": 1}),
)


def _random_offline_instance(rng, objective):
    n = int(rng.integers(1, 7))
    horizon = int(rng.integers(6, 21))
    reqs = []
    for i in range(n):
        k = int(rng.integers(0, len(ORACLE_CLASSES)))
        l, o = ORACLE_CLASSES[k]
        arrival = int(rng.integers(1, horizon + 1))
        reqs.append(oracle.OfflineRequest(i + 1, l, o, arrival, class_id=k))
    kv_capacity = int(rng.integers(8, 21))
    return oracle.OfflineInstance(tuple(reqs), kv_capacity, horizon, objective)


def test_criterion_7_oracle_weakly_dominates_and_objectives_conflict():
    start = time.perf_counter()
    rng = np.random.default_rng(20240816)
    checked = 0
    for _ in range(200):
        seeds = [_random_offline_instance(rng, obj) for obj in oracle.OBJECTIVES]
        for inst in seeds:
            for name, params in ORACLE_POLICIES:
                report = oracle.verify_policy_dominance(inst, make_policy(name, params))
                assert report.ok, (
                    f"{name} beat the oracle on {inst.objective}: "
                    f"policy {report.policy_value} vs oracle {report.oracle_value}"
                )
                checked += 1

    # one instance where doing less is right for latency: completing the
    # long request costs latency but carries most of the token mass
    triples = [(1, 10, 1), (1, 2, 1), (1, 2, 1)]
    lat = oracle.solve(oracle.OfflineInstance.build(triples, 11, 10, "avg_latency"))
    tok = oracle.solve(oracle.OfflineInstance.build(triples, 11, 10, "token_throughput"))
    assert lat.value == Fraction(2)
    assert tok.value == Fraction(14, 10)
    assert lat.schedule != tok.schedule
    assert tok.schedule[1] == 1
    # cross-evaluate to prove the conflict is strict in both directions
    _, lat_metrics = oracle.replay(
        oracle.OfflineInstance.build(triples, 11, 10, "avg_latency"), lat.schedule
    )
    _, tok_metrics = oracle.replay(
        oracle.OfflineInstance.build(triples, 11, 10, "token_throughput"), tok.schedule
    )
    assert oracle.objective_value(tok_metrics, "avg_latency") > lat.value
    assert oracle.objective_value(lat_metrics, "token_throughput") < tok.value

    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"took {elapsed:.1f} s"
    _passed(7, f"oracle weakly dominates in {checked} policy runs; objectives provably conflict")


def test_criterion_8_reruns_are_bit_identical(tmp_path):
    # library level: identical RunResults, event logs included
    cases = [
        ("mc", {}, _spec(Fraction(5, 3), 1500), KV_CAPACITY),
        ("flow_scalar", {"budget": 12}, _spec(Fraction(5, 3), 1500, outputs_known=False), 3000),
    ]
    for name, params, spec, kv_capacity in cases:
        runs = [
            engine_run(
                generate_arrivals(spec, 3),
                make_policy(name, params),
                kv_capacity,
                seed=3,
                record_events=True,
            )
            for _ in range(2)
        ]
        assert runs[0].events == runs[1].events
        assert np.array_equal(runs[0].usage, runs[1].usage)
        assert metrics.compute_metrics(runs[0]) == metrics.compute_metrics(runs[1])

    # file level: the command line twice over, byte for byte
    doc = {
        "workload": {
            "kind": "synthetic",
            "horizon": 500,
            "outputs_known": False,
            "classes": [
                {"prompt_len": 10, "decode_len": 20, "rate": "5/3"},
                {"prompt_len": 10, "decode_len": 40, "rate": "5/3"},
                {"prompt_len": 10, "decode_len": 60, "rate": "5/3"},
            ],
        },
        "kv_capacity": 3000,
        "policy": {"name": "flow_scalar", "params": {"budget": 12}},
        "seeds": [0, 4],
        "emit": {"metrics_json": True, "metrics_csv": True, "series_csv": True, "event_log": True},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    for out in ("a", "b"):
        assert cli.main(["run", "-c", str(cfg), "--out", str(tmp_path / out)]) == 0
    names = [
        f"{stem}_seed{seed}.{ext}"
        for seed in (0, 4)
        for stem, ext in (("metrics", "json"), ("series", "csv"), ("events", "csv"))
    ] + ["sweep.csv"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differed between reruns"
    _passed(8, "reruns reproduce event logs, series, and metric reports byte for byte")


def test_criterion_9_trace_pipeline(tmp_path, capsys):
    trace = presets.builtin_trace_path("trace_1k")
    assert cli.main(["ingest", str(trace), "--out", str(tmp_path / "ingest")]) == 0
    ingest_summary = json.loads(capsys.readouterr().out)
    assert ingest_summary["records"] == 1000
    assert ingest_summary["malformed"] == 0

    expected_roster = ["flow_scalar", "alpha_protection", "mc", "mc_sf", "amin"]
    for preset_name in ("trace_low", "trace_high"):
        out = tmp_path / preset_name
        code = cli.main(
            ["compare", "-c", str(CONFIG_DIR / f"{preset_name}.json"), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["policy"] for r in rows] == expected_roster
        by_name = {r["policy"]: r for r in rows}
        assert by_name["mc_sf"]["applicable"] == "no: needs visible output lengths"
        applicable = [r for r in rows if r["applicable"] == "yes"]
        assert len(applicable) == 4
        for row in applicable:
            assert float(row["kv_util_max"]) <= 1.0, f"{row['policy']} exceeded the cache"
            series = out / f"usage_{row['policy']}.csv"
            with open(series, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                next(reader)
                peak = max(int(cell) for r in reader for cell in r[1:])
            assert peak <= KV_CAPACITY, f"{row['policy']} series peaked at {peak}"
    _passed(9, "1000-record ingest plus both trace comparisons: 5-policy table, usage within cap")
