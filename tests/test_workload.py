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
from kvflow.core import Request, RequestClass, workload_tokens
from kvflow.presets import builtin_trace_path
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


def synthetic_spec():
    classes = [RequestClass(c.prompt_len, c.decode_len, c.rate) for c in THREE_CLASSES]
    return WorkloadSpec.synthetic(classes, horizon=200, seed=1)


def trace_spec():
    records = [TraceRecord(10 + i % 7, 5 + i % 3) for i in range(600)]
    return WorkloadSpec.from_trace(records, rate=2, horizon=200, seed=1)


class TestGarbageCollectorState:
    """generate_arrivals pauses the cyclic collector while it builds the
    stream and must hand it back exactly as it found it. make_spec gives
    the workload; the subclass below runs every test on a trace."""

    make_spec = staticmethod(synthetic_spec)

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

    @pytest.fixture
    def spec(self):
        return self.make_spec()

    def test_generation_leaves_gc_as_found(self, gc_state, spec):
        stream = generate_arrivals(spec)
        assert stream.total > 0
        assert gc.isenabled() is gc_state

    def test_collector_paused_while_building_requests(self, gc_state, spec, monkeypatch):
        seen = set()

        def watched_request(*args, **kwargs):
            seen.add(gc.isenabled())
            return Request(*args, **kwargs)

        monkeypatch.setattr(workload, "Request", watched_request)
        assert generate_arrivals(spec).total > 0
        assert seen == {False}
        assert gc.isenabled() is gc_state

    def test_negative_rate_leaves_gc_as_found(self, gc_state, spec):
        # past the constructors' own checks
        object.__setattr__(spec.classes[-1] if spec.kind == "synthetic" else spec, "rate", -1)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_arrivals(spec)
        assert gc.isenabled() is gc_state

    def test_failure_while_building_requests_leaves_gc_as_found(self, gc_state, spec, monkeypatch):
        def failing_request(*args, **kwargs):
            raise RuntimeError("request construction failed")

        monkeypatch.setattr(workload, "Request", failing_request)
        with pytest.raises(RuntimeError, match="construction failed"):
            generate_arrivals(spec)
        assert gc.isenabled() is gc_state


class TestGarbageCollectorStateTrace(TestGarbageCollectorState):
    make_spec = staticmethod(trace_spec)


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

    @pytest.mark.parametrize("n", [0, 1, 7, 19, 20, 51, 400])
    def test_matches_record_by_record_reference(self, n):
        # one record per request in file order; the first slot that wants a
        # record when none is left is the exhausted slot
        spec = WorkloadSpec.from_trace(self.records(n), rate=2.0, horizon=30, seed=8)
        stream = generate_arrivals(spec)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([8, workload.ARRIVAL_STREAM_TAG])))
        counts = workload.poisson_counts(2.0, 30, rng)
        left = list(spec.records)
        expected, exhausted = [], None
        for t, want in enumerate(counts.tolist(), start=1):
            slot = []
            for _ in range(want):
                if not left:
                    exhausted = exhausted or t
                    break
                rec = left.pop(0)
                rid = sum(map(len, expected)) + len(slot) + 1
                slot.append(Request(rid, rec.prompt_len, rec.decode_len, t, None, False))
            expected.append(slot)
        assert stream.slots == expected
        assert stream.exhausted_slot == exhausted
        assert stream.total == min(n, int(counts.sum()))

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


def reference_ingest(path, fmt="jsonl"):
    """ingest_trace written with json.loads on every stripped nonblank
    line: the definition of which lines it accepts and why it rejects the
    others."""
    if fmt not in ("jsonl", "raw_pairs"):
        raise ValueError(f"unknown trace format {fmt!r}")
    records, malformed = [], []
    dropped_zero = total = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                malformed.append((line_no, f"invalid json: {exc.msg}"))
                continue
            if not isinstance(obj, dict):
                malformed.append((line_no, "not an object"))
                continue
            if fmt == "jsonl":
                parsed = workload._parse_token_counts(obj)
            else:
                parsed = workload._parse_raw_pair(obj)
            if isinstance(parsed, str):
                malformed.append((line_no, parsed))
                continue
            prompt_len, decode_len, source_id = parsed
            if prompt_len <= 0 or decode_len <= 0:
                dropped_zero += 1
                continue
            records.append(
                TraceRecord(prompt_len=prompt_len, decode_len=decode_len, source_id=source_id, line_no=line_no)
            )
    return workload.IngestResult(records, total, malformed, dropped_zero)


def trace_line(prompt, output, **extra):
    return json.dumps({"prompt_tokens": prompt, "output_tokens": output, **extra})


GOOD = trace_line(3, 4)
# file contents as bytes, so line ends and a BOM reach the reader unchanged
INGEST_CASES = {
    "blank-and-whitespace": ("\n   \n\t\n" + GOOD + "\n \x0c \n\n" + trace_line(5, 6) + "   \n  \n").encode(),
    "crlf": (GOOD + "\r\n\r\n" + trace_line(5, 6) + "\r\n").encode(),
    "lone-cr": (GOOD + "\r" + trace_line(5, 6) + "\r\r" + "{broken\r").encode(),
    "bom": b"\xef\xbb\xbf" + (GOOD + "\n" + trace_line(5, 6) + "\n").encode(),
    "nan-and-infinity": "\n".join(
        [
            '{"prompt_tokens": NaN, "output_tokens": 2}',
            '{"prompt_tokens": 3, "output_tokens": Infinity}',
            '{"prompt_tokens": -Infinity, "output_tokens": 2}',
            '{"prompt_tokens": 3, "output_tokens": 4, "id": Infinity}',
            "NaN",
        ]
    ).encode(),
    "two-objects-and-garbage": "\n".join(
        [
            GOOD + GOOD,
            GOOD + " " + GOOD,
            GOOD + " x",
            GOOD + ",",
            GOOD + "]",
            "x" + GOOD,
            "{not valid json",
            "{'prompt_tokens': 3}",
            '{"prompt_tokens": 3, "output_tokens": 4,}',
            "]",
            GOOD,
        ]
    ).encode(),
    "value-over-two-lines": "\n".join(
        [
            '{"prompt_tokens": 3,',
            '"output_tokens": 4}',
            '{"k": [[1',
            '2]]}',
            '{"a":1}],[{"b":2}',
            GOOD,
        ]
    ).encode(),
    "not-an-object": "\n".join(["[1, 2]", "[" + GOOD + "]", "42", '"text"', "null", "true", "{}"]).encode(),
    "counts-and-ids": "\n".join(
        [
            trace_line(True, 4),
            trace_line(3, False),
            trace_line(3.0, 4),
            trace_line(3, 4.5),
            trace_line(-1, 4),
            trace_line(3, -4),
            trace_line(0, 4),
            trace_line(3, 0),
            trace_line(0, 0),
            json.dumps({"prompt_tokens": 3}),
            json.dumps({"output_tokens": 4}),
            trace_line("3", 4),
            trace_line(None, 4),
            trace_line(3, 4, id="r1"),
            trace_line(3, 4, id=None),
            trace_line(3, 4, id=17),
            trace_line(3, 4, id=[1, 2]),
            trace_line(10**30, 4),
        ]
    ).encode(),
}


class TestIngestMatchesJsonLoads:
    """ingest_trace decodes each line with the JSON scanner and must agree
    with json.loads on every line, reason texts included."""

    def write(self, tmp_path, data):
        p = tmp_path / "trace.jsonl"
        p.write_bytes(data)
        return p

    @pytest.mark.parametrize("case", sorted(INGEST_CASES))
    def test_jsonl_cases(self, tmp_path, case):
        p = self.write(tmp_path, INGEST_CASES[case])
        got = ingest_trace(p, "jsonl")
        want = reference_ingest(p, "jsonl")
        assert got == want
        assert got.total_lines > 0

    def test_raw_pairs(self, tmp_path):
        lines = [
            json.dumps({"prompt": "how are you today", "response": "fine thanks", "id": "a"}),
            json.dumps({"prompt": "hello", "response": ""}),
            json.dumps({"prompt": "  spaced   out  ", "response": "x\ty\nz"}),
            json.dumps({"prompt": 3, "response": "x"}),
            json.dumps({"prompt": "x"}),
            json.dumps(["prompt", "response"]),
            json.dumps({"prompt": "a b", "response": "c"}) + " trailing",
            "",
            json.dumps({"prompt": "a b", "response": "c d e", "id": None}),
        ]
        p = self.write(tmp_path, ("\r\n".join(lines) + "\r\n").encode())
        got = ingest_trace(p, "raw_pairs")
        assert got == reference_ingest(p, "raw_pairs")
        assert [(r.prompt_len, r.decode_len) for r in got.records] == [(4, 2), (2, 3), (2, 3)]

    def test_bundled_trace(self):
        path = builtin_trace_path("trace_1k")
        got = ingest_trace(path)
        assert got == reference_ingest(path)
        assert len(got.records) == 1000

    def test_overlong_count_raises_like_json_loads(self, tmp_path):
        p = self.write(tmp_path, (GOOD + "\n" + '{"prompt_tokens": ' + "9" * 4301 + ', "output_tokens": 1}\n').encode())
        with pytest.raises(ValueError) as want:
            reference_ingest(p)
        with pytest.raises(ValueError) as got:
            ingest_trace(p)
        assert type(got.value) is type(want.value) is ValueError
        assert str(got.value) == str(want.value)

    def test_records_are_immutable_named_tuples(self, tmp_path):
        rec = ingest_trace(self.write(tmp_path, (trace_line(3, 4, id="r") + "\n").encode())).records[0]
        assert rec == TraceRecord(3, 4, "r", 1) == (3, 4, "r", 1)
        assert rec._fields == ("prompt_len", "decode_len", "source_id", "line_no")
        assert TraceRecord(3, 4) == (3, 4, None, None)
        with pytest.raises(AttributeError):
            rec.prompt_len = 5


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
