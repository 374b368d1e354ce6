"""Workload specification, arrival generation, and trace ingestion.

Arrival counts are Poisson-distributed per slot. Sampling goes through CDF
inversion driven by uniforms from a PCG64 generator (a high rate as a sum
of lower ones), so a (spec, seed) pair reproduces the exact same stream on
any platform regardless of the numpy version's own poisson()
implementation.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from kvflow.core import (
    Rate,
    Request,
    RequestClass,
    integer,
    nearest_rank,
    nonnegative_rate,
    positive_int,
    workload_tokens,
)

ARRIVAL_STREAM_TAG = 0
# largest rate sampled by one CDF walk; exp(-500) is still a normal float
POISSON_RATE_CAP = 500.0
_BUILTIN_TRACES = ("trace_1k",)


def poisson_counts(rate: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample `size` Poisson(rate) counts by inverting uniforms.

    Vectorized over draws: walk the CDF upward, adding one to every draw
    whose uniform still exceeds it. The loop also stops once the pmf term
    underflows, which truncates a tail whose mass is far below float
    resolution.

    The walk starts from exp(-rate), which loses precision well before it
    underflows (near rate 745). A rate above POISSON_RATE_CAP is therefore
    split into ceil(rate / POISSON_RATE_CAP) equal parts whose samples are
    summed, which is exact by Poisson additivity; rates up to the cap take
    one walk and give the same stream as always.
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if rate <= POISSON_RATE_CAP:
        return _poisson_inversion(rate, size, rng)
    parts = math.ceil(rate / POISSON_RATE_CAP)
    counts = np.zeros(size, dtype=np.int64)
    for _ in range(parts):
        counts += _poisson_inversion(rate / parts, size, rng)
    return counts


def _poisson_inversion(rate: float, size: int, rng: np.random.Generator) -> np.ndarray:
    counts = np.zeros(size, dtype=np.int64)
    if rate == 0 or size == 0:
        return counts
    u = rng.random(size)
    pmf = np.exp(-rate)
    cdf = pmf
    k = 0
    pending = u > cdf
    while pending.any() and pmf > 0.0:
        k += 1
        pmf *= rate / k
        cdf += pmf
        counts[pending] += 1
        pending = u > cdf
    return counts


class TraceRecord(NamedTuple):
    """One (prompt length, output length) pair taken from a trace file.

    An immutable named tuple: a trace holds thousands of them, and a tuple
    is built in about a third of the time a frozen dataclass takes.
    """

    prompt_len: int
    decode_len: int
    source_id: Optional[Union[int, str]] = None
    line_no: Optional[int] = None


_new_tuple = tuple.__new__


@dataclass(frozen=True)
class WorkloadSpec:
    """Describes how requests arrive: synthetic class mix or trace replay.

    kind "synthetic" draws an independent Poisson(rate_k) count per class
    per slot. kind "trace" draws one Poisson(rate) count per slot and
    consumes trace records in file order. outputs_known controls whether
    policies may observe decode lengths. The horizon and the seed are kept
    as ints and a trace's rate as an int or a Fraction, checked when the
    spec is built.
    """

    kind: str
    horizon: int
    seed: int = 0
    outputs_known: bool = True
    classes: Optional[Tuple[RequestClass, ...]] = None
    records: Optional[Tuple[TraceRecord, ...]] = None
    rate: Optional[Rate] = None
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", positive_int("horizon", self.horizon))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
        if self.kind == "synthetic":
            if not self.classes:
                raise ValueError("synthetic workload needs at least one class")
        elif self.kind == "trace":
            if self.records is None:
                raise ValueError("trace workload needs records")
            object.__setattr__(self, "rate", nonnegative_rate("rate", self.rate))
        else:
            raise ValueError(f"unknown workload kind {self.kind!r}")

    @classmethod
    def synthetic(
        cls,
        classes: Sequence[RequestClass],
        horizon: int,
        seed: int = 0,
        outputs_known: bool = True,
    ) -> "WorkloadSpec":
        return cls(
            kind="synthetic",
            horizon=horizon,
            seed=seed,
            outputs_known=outputs_known,
            classes=tuple(classes),
        )

    @classmethod
    def from_trace(
        cls,
        records: Sequence[TraceRecord],
        rate: Rate,
        horizon: int,
        seed: int = 0,
        outputs_known: bool = False,
        trace_path: Optional[str] = None,
    ) -> "WorkloadSpec":
        return cls(
            kind="trace",
            horizon=horizon,
            seed=seed,
            outputs_known=outputs_known,
            records=tuple(records),
            rate=rate,
            trace_path=trace_path,
        )

    def length_distribution(self) -> Optional["LengthDistribution"]:
        """The (prompt, output) mix that arrivals draw from, or None for a
        synthetic mix whose rates are all 0: nothing arrives to weight it."""
        if self.kind == "synthetic":
            if not any(c.rate for c in self.classes):
                return None
            return LengthDistribution.from_classes(self.classes)
        return LengthDistribution.from_records(self.records)

    def total_rate(self) -> Fraction:
        if self.kind == "synthetic":
            return sum((c.rate for c in self.classes), Fraction(0))
        return Fraction(self.rate)


@dataclass
class ArrivalStream:
    """Materialized arrivals: one list of Requests per slot, 1-based slots.

    class_counts[t-1, k] is the number of class-k arrivals in slot t for
    synthetic workloads (None for traces). exhausted_slot is the 1-based
    slot where a trace ran out of records, if it did; later slots get no
    arrivals.
    """

    slots: List[List[Request]]
    horizon: int
    total: int
    class_counts: Optional[np.ndarray] = None
    exhausted_slot: Optional[int] = None

    def __iter__(self):
        return iter(self.slots)


def generate_arrivals(spec: WorkloadSpec, seed: Optional[int] = None) -> ArrivalStream:
    """Materialize the arrival stream for a spec.

    The explicit seed argument overrides spec.seed; identical inputs yield
    bit-identical streams. Request ids are assigned 1, 2, ... in arrival
    order (slot by slot; within a slot, class order for synthetic
    workloads, file order for traces).
    """
    run_seed = spec.seed if seed is None else integer("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([run_seed, ARRIVAL_STREAM_TAG])))
    if spec.kind == "synthetic":
        return _generate_synthetic(spec, rng)
    return _generate_trace(spec, rng)


def _generate_synthetic(spec: WorkloadSpec, rng: np.random.Generator) -> ArrivalStream:
    horizon = spec.horizon
    classes = spec.classes
    counts = np.zeros((horizon, len(classes)), dtype=np.int64)
    for k, cls in enumerate(classes):
        counts[:, k] = poisson_counts(float(cls.rate), horizon, rng)
    lengths = [(cls.prompt_len, cls.decode_len) for cls in classes]
    known = spec.outputs_known
    slots: List[List[Request]] = []
    next_id = 1
    # Requests hold no reference cycles, so the cyclic collector has nothing
    # to find among them; left on, it rescans the growing stream over and
    # over and costs more than the construction itself.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for t, row in enumerate(counts.tolist(), start=1):
            slot: List[Request] = []
            for k, n in enumerate(row):
                if n:
                    prompt_len, decode_len = lengths[k]
                    for rid in range(next_id, next_id + n):
                        slot.append(Request(rid, prompt_len, decode_len, t, k, known))
                    next_id += n
            slots.append(slot)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ArrivalStream(
        slots=slots,
        horizon=horizon,
        total=next_id - 1,
        class_counts=counts,
    )


def _generate_trace(spec: WorkloadSpec, rng: np.random.Generator) -> ArrivalStream:
    horizon = spec.horizon
    counts = poisson_counts(float(spec.rate), horizon, rng)
    records = spec.records
    slots: List[List[Request]] = []
    next_id = 1
    exhausted_slot: Optional[int] = None
    known = spec.outputs_known
    # as in _generate_synthetic: nothing built here forms a cycle
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for t, want in enumerate(counts.tolist(), start=1):
            taken = records[next_id - 1 : next_id - 1 + want]
            if len(taken) < want and exhausted_slot is None:
                exhausted_slot = t
            slots.append(
                [
                    Request(rid, prompt_len, decode_len, t, None, known)
                    for rid, (prompt_len, decode_len, _, _) in enumerate(taken, start=next_id)
                ]
            )
            next_id += len(taken)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ArrivalStream(
        slots=slots,
        horizon=horizon,
        total=next_id - 1,
        exhausted_slot=exhausted_slot,
    )


@dataclass
class IngestResult:
    """Outcome of reading a trace file.

    malformed holds (line number, reason) pairs for skipped lines;
    dropped_zero counts records whose prompt or output length was zero.
    """

    records: List[TraceRecord]
    total_lines: int
    malformed: List[Tuple[int, str]]
    dropped_zero: int


def builtin_trace_path(tag: str) -> Path:
    """Filesystem path of a bundled trace, by its short tag."""
    if tag not in _BUILTIN_TRACES:
        raise ValueError(f"unknown builtin trace {tag!r}; known: {', '.join(_BUILTIN_TRACES)}")
    return Path(str(resources.files("kvflow") / "data" / f"{tag}.jsonl"))


def resolve_trace_path(path: str) -> str:
    """Expand a builtin:<tag> reference; ordinary paths pass through."""
    if path.startswith("builtin:"):
        return str(builtin_trace_path(path[len("builtin:"):]))
    return path


def ingest_trace(path: Union[str, Path], fmt: str = "jsonl") -> IngestResult:
    """Read a trace file into TraceRecords, in file order.

    fmt "jsonl" expects objects with integer prompt_tokens / output_tokens
    (optional id); fmt "raw_pairs" expects prompt / response strings whose
    lengths are taken as whitespace word counts. Malformed lines are
    skipped and reported with their line number; zero-length records are
    dropped and counted. An unreadable file raises OSError.

    Each stripped nonblank line is decoded on its own, and accepted exactly
    when json.loads accepts it: the C scanner reads the line in one call,
    and a value that does not end at the end of the line goes to json.loads,
    which gives the reason text. (Decoding the joined file instead could
    credit values to the wrong lines.)
    """
    if fmt not in ("jsonl", "raw_pairs"):
        raise ValueError(f"unknown trace format {fmt!r}")
    parse = _parse_token_counts if fmt == "jsonl" else _parse_raw_pair
    scan = json.JSONDecoder().scan_once
    records: List[TraceRecord] = []
    malformed: List[Tuple[int, str]] = []
    dropped_zero = 0
    total = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                obj, end = scan(line, 0)
            except (json.JSONDecodeError, StopIteration):
                end = -1
            if end != len(line):
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    malformed.append((line_no, f"invalid json: {exc.msg}"))
                    continue
            if not isinstance(obj, dict):
                malformed.append((line_no, "not an object"))
                continue
            parsed = parse(obj)
            if isinstance(parsed, str):
                malformed.append((line_no, parsed))
                continue
            prompt_len, decode_len, source_id = parsed
            if prompt_len <= 0 or decode_len <= 0:
                dropped_zero += 1
                continue
            # tuple.__new__ skips the generated TraceRecord.__new__, which
            # costs as much again as the tuple itself
            records.append(_new_tuple(TraceRecord, (prompt_len, decode_len, source_id, line_no)))
    return IngestResult(
        records=records, total_lines=total, malformed=malformed, dropped_zero=dropped_zero
    )


def _parse_token_counts(obj: dict):
    try:
        prompt = obj["prompt_tokens"]
        output = obj["output_tokens"]
    except KeyError as exc:
        return f"missing field {exc.args[0]}"
    try:
        return integer("prompt_tokens", prompt, 0), integer("output_tokens", output, 0), obj.get("id")
    except ValueError as exc:
        return str(exc)


def _parse_raw_pair(obj: dict):
    try:
        prompt = obj["prompt"]
        response = obj["response"]
    except KeyError as exc:
        return f"missing field {exc.args[0]}"
    if not isinstance(prompt, str) or not isinstance(response, str):
        return "prompt and response must be strings"
    return len(prompt.split()), len(response.split()), obj.get("id")


@dataclass
class LengthSummary:
    count: int
    prompt_mean: float
    output_mean: float
    prompt_percentiles: dict
    output_percentiles: dict
    max_prompt: int
    max_output: int
    mean_workload: Fraction

    @property
    def max_len(self) -> int:
        return max(self.max_prompt, self.max_output)


def sample_lengths_summary(records: Sequence[TraceRecord]) -> LengthSummary:
    """Describe a record sample: length moments, percentiles, and the exact
    mean lifetime token cost."""
    if not records:
        raise ValueError("cannot summarize an empty record list")
    prompts = sorted(r.prompt_len for r in records)
    outputs = sorted(r.decode_len for r in records)
    n = len(records)
    total_w = sum(workload_tokens(r.prompt_len, r.decode_len) for r in records)
    pcts = (50, 90, 95, 99)
    return LengthSummary(
        count=n,
        prompt_mean=sum(prompts) / n,
        output_mean=sum(outputs) / n,
        prompt_percentiles={p: prompts[nearest_rank(n, p) - 1] for p in pcts},
        output_percentiles={p: outputs[nearest_rank(n, p) - 1] for p in pcts},
        max_prompt=prompts[-1],
        max_output=outputs[-1],
        mean_workload=Fraction(total_w, n),
    )


class LengthDistribution:
    """A weighted set of (prompt length, output length) pairs.

    Used by the load analyzers: the mean lifetime cost is kept exact as a
    Fraction, and max_len bounds every length in the support (the constant
    the overflow bound calls C).
    """

    def __init__(self, pairs: Sequence[Tuple[int, int]], weights: Sequence[Rate]):
        if not pairs:
            raise ValueError("distribution needs at least one pair")
        if len(pairs) != len(weights):
            raise ValueError("pairs and weights must have equal length")
        self.weights = [nonnegative_rate(f"weights[{i}]", w) for i, w in enumerate(weights)]
        total = sum(self.weights, Fraction(0))
        if total <= 0:
            raise ValueError("weights must have positive total")
        self.pairs = [
            (positive_int(f"pairs[{i}] prompt_len", l), positive_int(f"pairs[{i}] decode_len", o))
            for i, (l, o) in enumerate(pairs)
        ]
        self._total = total

    @classmethod
    def from_classes(cls, classes: Sequence[RequestClass]) -> "LengthDistribution":
        return cls(
            [(c.prompt_len, c.decode_len) for c in classes],
            [c.rate for c in classes],
        )

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "LengthDistribution":
        return cls([(r.prompt_len, r.decode_len) for r in records], [1] * len(records))

    def mean_workload(self) -> Fraction:
        acc = Fraction(0)
        for (l, o), w in zip(self.pairs, self.weights):
            acc += w * workload_tokens(l, o)
        return acc / self._total

    def max_len(self) -> int:
        return max(max(l, o) for l, o in self.pairs)
