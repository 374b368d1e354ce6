"""Brute-force references that tests compare the fast code against, and
the reader that checks what the library writes.

Nothing in kvflow runs these: each recomputes from scratch a fact that the
library keeps incrementally or answers with a faster method, or reads back
a file that the library only writes.
"""

import csv
import math
from dataclasses import fields
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from kvflow.core import SimState
from kvflow.metrics import CSV_FIELDS, MetricsReport
from kvflow.oracle import _Search


def usage(state: SimState) -> int:
    """Recompute end-of-slot cache usage over the active set.

    A request activated at slot s has generated clock - s + 1 tokens by the
    end of the current slot, so it holds prompt_len + clock - s + 1.
    """
    t = state.clock
    return sum(r.prompt_len + (t - r.activation_slot + 1) for r in state.active.values())


def peak_projection(entries: Iterable[Tuple[int, int, int]], horizon: int) -> List[int]:
    """Projected end-of-slot usage for each of the next `horizon` slots.

    entries are (prompt_len, generated, decode_len) triples for the active
    set. Every request decodes one token per slot and leaves at the end of
    the slot where generated reaches decode_len, so the entry at offset d
    counts prompt_len + generated + d for exactly the requests with
    generated + d <= decode_len.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    totals = [0] * horizon
    for prompt_len, generated, decode_len in entries:
        span = min(decode_len - generated, horizon)
        base = prompt_len + generated
        for d in range(1, span + 1):
            totals[d - 1] += base + d
    return totals


class FractionSearch(_Search):
    """The oracle's search with its optimistic bound built as a Fraction
    (math.inf for "no completions") at every node and compared with the
    incumbent value directly: the straightforward form of the bound that
    oracle._Search computes from integer pairs."""

    def _bound(self, depth: int):
        rest = [
            r.decode_len
            for r in self.order[depth:]
            if r.arrival_slot + r.decode_len - 1 <= self.horizon
        ]
        if self.objective == "request_throughput":
            return Fraction(len(self.lat) + len(rest), self.horizon)
        if self.objective == "token_throughput":
            return Fraction(self.tokens + sum(rest), self.horizon)
        if self.objective == "p95_latency":
            if self.lat:
                return Fraction(max(self.lat))
            return Fraction(min(rest)) if rest else math.inf
        total = sum(self.lat)
        n = len(self.lat)
        if n == 0 and not rest:
            return math.inf
        for b in sorted(rest):
            if n == 0 or b * n < total:
                total += b
                n += 1
            else:
                break
        return Fraction(total, n)

    def _prunable(self, depth: int) -> bool:
        if self.best_value is None:
            return False
        bound = self._bound(depth)
        if self.minimize:
            return bound >= self.best_value
        return bound <= self.best_value


# how report_from_csv_row reads each stored field, keyed by its annotation
CSV_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "Optional[int]": lambda text: None if text == "" else int(text),
}


def report_from_csv_row(row: Sequence[str]) -> MetricsReport:
    """Rebuild a report from a MetricsReport.to_csv_row() line, exactly:
    the integer columns carry everything the float renderings round."""
    if len(row) != len(CSV_FIELDS):
        raise ValueError(f"expected {len(CSV_FIELDS)} columns, got {len(row)}")
    get = dict(zip(CSV_FIELDS, row))
    return MetricsReport(**{f.name: CSV_PARSERS[f.type](get[f.name]) for f in fields(MetricsReport)})


def read_sweep_csv(path) -> Tuple[List[MetricsReport], List[dict]]:
    """Read a sweep file back: exact per-seed reports plus raw aggregate rows."""
    reports: List[MetricsReport] = []
    aggregates: List[dict] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(CSV_FIELDS):
            raise ValueError(f"{path} is not a sweep file (header {header})")
        seed_col = CSV_FIELDS.index("seed")
        for row in reader:
            if row[seed_col] == "aggregate":
                aggregates.append(dict(zip(CSV_FIELDS, row)))
            else:
                reports.append(report_from_csv_row(row))
    return reports, aggregates
