"""Arrival generation and trace ingestion."""

from __future__ import annotations

import gc
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kvflow import workload
from kvflow.core import RequestClass, workload_tokens
from kvflow.workload import (
    LengthDistribution,
    TraceRecord,
    WorkloadSpec,
    generate_arrivals,
    ingest_trace,
    sample_lengths_summary,
)

THREE_CLASSES = [
    RequestClass(10, 20, Fraction(5, 3)),
    RequestClass(10, 40, Fraction(5, 3)),
    RequestClass(10, 60, Fraction(5, 3)),
]


def flatten(stream):
    return [r for slot in stream.slots for r in slot]


class TestSyntheticArrivals:
    def test_deterministic_given_seed(self):
        spec = WorkloadSpec.synthetic(THREE_CLASSES, horizon=200, seed=42)
        a = generate_arrivals(spec)
        b = generate_arrivals(spec)
        ra, rb = flatten(a), flatten(b)
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert (x.id, x.prompt_len, x.decode_len, x.arrival_slot, x.class_id) == (
                y.id,
                y.prompt_len,
                y.decode_len,
                y.arrival_slot,
                y.class_id,
            )

    def test_seed_override_changes_stream(self):
        spec = WorkloadSpec.synthetic(THREE_CLASSES, horizon=300, seed=1)
        a = generate_arrivals(spec)
        b = generate_arrivals(spec, seed=2)
        assert [len(s) for s in a.slots] != [len(s) for s in b.slots]

    def test_empirical_mean_single_class(self):
        # Law of large numbers at T = 10000: the per-slot arrival count of a
        # rate-2 class stays within 2.5 standard errors of 2.
        spec = WorkloadSpec.synthetic(
            [RequestClass(5, 5, 2.0)], horizon=10000, seed=7
        )
        stream = generate_arrivals(spec)
        total = sum(len(s) for s in stream.slots)
        mean = total / 10000
        se = math.sqrt(2.0 / 10000)
        assert abs(mean - 2.0) <= 2.5 * se

    def test_per_class_rates_and_ids(self):
        spec = WorkloadSpec.synthetic(THREE_CLASSES, horizon=6000, seed=3)
        stream = generate_arrivals(spec)
        reqs = flatten(stream)
        # ids are unique, contiguous from 1, assigned in arrival order
        assert [r.id for r in reqs] == list(range(1, len(reqs) + 1))
        per_class = [0, 0, 0]
        for r in reqs:
            per_class[r.class_id] += 1
        lam = 5.0 / 3.0
        se = math.sqrt(lam / 6000)
        for k in range(3):
            assert abs(per_class[k] / 6000 - lam) <= 3.5 * se
        # counts matrix agrees with the materialized requests
        assert stream.class_counts is not None
        assert stream.class_counts.shape == (6000, 3)
        assert stream.class_counts.sum() == len(reqs)

    def test_within_slot_order_is_class_order(self):
        spec = WorkloadSpec.synthetic(THREE_CLASSES, horizon=500, seed=11)
        stream = generate_arrivals(spec)
        for slot in stream.slots:
            kinds = [r.class_id for r in slot]
            assert kinds == sorted(kinds)

    def test_outputs_known_flag_propagates(self):
        spec = WorkloadSpec.synthetic(THREE_CLASSES, horizon=50, seed=4, outputs_known=False)
        for r in flatten(generate_arrivals(spec)):
            assert not r.output_known
            assert r.decode_len in (20, 40, 60)

    def test_zero_rate_class_never_arrives(self):
        spec = WorkloadSpec.synthetic(
            [RequestClass(5, 5, 0), RequestClass(6, 6, 1.0)], horizon=400, seed=9
        )
        for r in flatten(generate_arrivals(spec)):
            assert r.class_id == 1


class TestPoissonCounts:
    SIZE = 4000

    def draw(self, rate):
        return workload.poisson_counts(rate, self.SIZE, np.random.default_rng([7, int(rate)]))

    @pytest.mark.parametrize(
        "rate,digest",
        [
            (3.0, "d5c37b967149a8a4bd7c561e236ce8d91a11be461107cc1e560f622e9477bf34"),
            (5.0, "c310495966a8ffd9d319841175c0992ca948d4e9a6f3876d56a22efd821cdbbd"),
            (12.0, "328898ded9d3912f2a4755e4b8553a9f243458742503f434d7e5e727534418e1"),
            (50.0, "efe23f03ee85a69d510a5fec13fd63244cae15ad87ecfc788a5db62288ef57de"),
            (workload.POISSON_RATE_CAP, "64c866a0d22091565b764cf77c8010551b535c6e529e462820f808b628761f96"),
        ],
    )
    def test_streams_up_to_the_cap_are_unchanged(self, rate, digest):
        counts = self.draw(rate)
        assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("rate", [744.0, 1000.0, 5000.0])
    def test_high_rates_keep_mean_and_variance(self, rate):
        # five standard errors of the sample mean and of the sample variance
        counts = self.draw(rate)
        assert abs(counts.mean() - rate) < 5 * math.sqrt(rate / self.SIZE)
        assert abs(counts.var() - rate) < 5 * rate * math.sqrt(2 / self.SIZE)


class TestGarbageCollectorState:
    """generate_arrivals pauses the cyclic collector while it builds the
    stream and must hand it back exactly as it found it."""

    @pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
    def gc_state(self, request):
        was = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if was:
            gc.enable()
        else:
            gc.disable()

    def test_generation_leaves_gc_as_found(self, gc_state):
        stream = generate_arrivals(WorkloadSpec.synthetic(THREE_CLASSES, horizon=200, seed=1))
        assert stream.total > 0
        assert gc.isenabled() is gc_state

    def test_negative_rate_leaves_gc_as_found(self, gc_state):
        broken = RequestClass(10, 20, 1)
        object.__setattr__(broken, "rate", -1)  # past the constructor's own check
        spec = WorkloadSpec.synthetic([THREE_CLASSES[0], broken], horizon=50, seed=1)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_arrivals(spec)
        assert gc.isenabled() is gc_state

    def test_failure_while_building_requests_leaves_gc_as_found(self, gc_state, monkeypatch):
        def failing_request(*args, **kwargs):
            raise RuntimeError("request construction failed")

        monkeypatch.setattr(workload, "Request", failing_request)
        spec = WorkloadSpec.synthetic(THREE_CLASSES, horizon=50, seed=1)
        with pytest.raises(RuntimeError, match="construction failed"):
            generate_arrivals(spec)
        assert gc.isenabled() is gc_state


class TestTraceArrivals:
    def records(self, n):
        return [TraceRecord(prompt_len=10 + i, decode_len=5 + i % 3) for i in range(n)]

    def test_records_consumed_in_file_order(self):
        spec = WorkloadSpec.from_trace(self.records(60), rate=2.0, horizon=200, seed=5)
        stream = generate_arrivals(spec)
        reqs = flatten(stream)
        assert [r.prompt_len for r in reqs] == [10 + i for i in range(len(reqs))]

    def test_exhaustion_flagged_and_remaining_slots_empty(self):
        spec = WorkloadSpec.from_trace(self.records(10), rate=5.0, horizon=100, seed=6)
        stream = generate_arrivals(spec)
        assert sum(len(s) for s in stream.slots) == 10
        assert stream.exhausted_slot is not None
        for slot in stream.slots[stream.exhausted_slot :]:
            assert slot == []

    def test_no_exhaustion_when_trace_suffices(self):
        spec = WorkloadSpec.from_trace(self.records(500), rate=1.0, horizon=50, seed=6)
        stream = generate_arrivals(spec)
        assert stream.exhausted_slot is None


class TestIngest:
    def write(self, tmp_path, lines, name="trace.jsonl"):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_jsonl_happy_path(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                json.dumps({"prompt_tokens": 12, "output_tokens": 34}),
                json.dumps({"prompt_tokens": 5, "output_tokens": 6, "id": "r2"}),
            ],
        )
        result = ingest_trace(p, "jsonl")
        assert [(r.prompt_len, r.decode_len) for r in result.records] == [(12, 34), (5, 6)]
        assert result.records[1].source_id == "r2"
        assert result.dropped_zero == 0
        assert result.malformed == []

    def test_jsonl_malformed_and_zero_length(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                json.dumps({"prompt_tokens": 12, "output_tokens": 34}),
                "{not valid json",
                json.dumps({"prompt_tokens": 12}),
                json.dumps({"prompt_tokens": 0, "output_tokens": 9}),
                json.dumps({"prompt_tokens": -3, "output_tokens": 9}),
                json.dumps({"prompt_tokens": 4, "output_tokens": 4}),
            ],
        )
        result = ingest_trace(p, "jsonl")
        assert [(r.prompt_len, r.decode_len) for r in result.records] == [(12, 34), (4, 4)]
        assert result.dropped_zero == 1
        lines = [line_no for line_no, _ in result.malformed]
        assert lines == [2, 3, 5]

    def test_raw_pairs_word_counts(self, tmp_path):
        p = self.write(
            tmp_path,
            [
                json.dumps({"prompt": "how are you today", "response": "fine thanks"}),
                json.dumps({"prompt": "hello", "response": ""}),
            ],
        )
        result = ingest_trace(p, "raw_pairs")
        assert [(r.prompt_len, r.decode_len) for r in result.records] == [(4, 2)]
        assert result.dropped_zero == 1

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_trace(tmp_path / "missing.jsonl", "jsonl")

    def test_unknown_format_rejected(self, tmp_path):
        p = self.write(tmp_path, ["{}"])
        with pytest.raises(ValueError):
            ingest_trace(p, "csv")


class TestSummaryAndDistribution:
    def test_summary_frozen(self):
        records = [
            TraceRecord(10, 20),
            TraceRecord(10, 40),
            TraceRecord(10, 60),
        ]
        s = sample_lengths_summary(records)
        assert s.count == 3
        assert s.prompt_mean == 10.0
        assert s.output_mean == 40.0
        # mean lifetime cost is exact: (410 + 1220 + 2430) / 3
        assert s.mean_workload == Fraction(4060, 3)
        assert s.max_len == 60
        # nearest-rank median of [20, 40, 60] is the 2nd order statistic
        assert s.output_percentiles[50] == 40
        assert s.output_percentiles[99] == 60

    def test_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_lengths_summary([])

    def test_distribution_from_classes(self):
        dist = LengthDistribution.from_classes(THREE_CLASSES)
        assert dist.mean_workload() == Fraction(4060, 3)
        assert dist.max_len() == 60

    def test_distribution_from_records_weights(self):
        records = [TraceRecord(10, 20), TraceRecord(10, 20), TraceRecord(10, 40)]
        dist = LengthDistribution.from_records(records)
        assert dist.mean_workload() == Fraction(410 + 410 + 1220, 3)
        expected = Fraction(
            2 * workload_tokens(10, 20) + workload_tokens(10, 40), 3
        )
        assert dist.mean_workload() == expected
