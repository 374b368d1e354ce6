"""The oracle's integer-pair bounds against the Fraction-built reference.

solve() prunes with bounds kept as (numerator, denominator) pairs of plain
ints; references.FractionSearch is the same search with each bound built
as a Fraction and compared with the incumbent directly. Equal pruning means
equal node counts, so the two must agree on value, schedule and nodes.
"""

from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kvflow import oracle
from kvflow.oracle import OBJECTIVES, OfflineInstance, solve
from references import FractionSearch


@st.composite
def instances(draw):
    horizon = draw(st.integers(1, 14))
    n = draw(st.integers(0, 6))
    # few distinct lengths, so equal values and tied schedules are common,
    # and decode lengths up to 6 against short horizons, so some instances
    # can complete nothing (inf under the latency objectives)
    triples = [
        (draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, horizon)))
        for _ in range(n)
    ]
    kv = draw(st.integers(max((l for l, _, _ in triples), default=0) + 1, 16))
    return OfflineInstance.build(triples, kv, horizon, draw(st.sampled_from(OBJECTIVES)))


def _same_search(inst):
    want = FractionSearch(inst).run()
    got = solve(inst)
    assert (got.value, got.schedule, got.nodes) == (want.value, want.schedule, want.nodes)
    return got


# nothing can complete: both latency objectives stay at inf
@example(OfflineInstance.build([(1, 5, 2), (2, 4, 3)], 8, 3, "avg_latency"))
@example(OfflineInstance.build([(1, 5, 2), (2, 4, 3)], 8, 3, "p95_latency"))
# identical requests: every objective ties across schedules
@example(OfflineInstance.build([(2, 3, 1)] * 4, 6, 8, "avg_latency"))
@example(OfflineInstance.build([(2, 3, 1)] * 4, 6, 8, "p95_latency"))
@example(OfflineInstance.build([(2, 3, 1)] * 4, 6, 8, "request_throughput"))
@example(OfflineInstance.build([(2, 3, 1)] * 4, 6, 8, "token_throughput"))
@settings(
    derandomize=True,
    max_examples=1000,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(instances())
def test_solve_matches_fraction_reference(inst):
    _same_search(inst)


def test_examples_cover_inf_and_ties():
    for objective in ("avg_latency", "p95_latency"):
        inf = _same_search(OfflineInstance.build([(1, 5, 2), (2, 4, 3)], 8, 3, objective))
        assert inf.value == float("inf")
    # only one of the identical requests fits at a time, and any of them
    # could take each turn: the first schedule found wins the tie
    tied = _same_search(OfflineInstance.build([(2, 3, 1)] * 4, 6, 8, "request_throughput"))
    assert tied.value == Fraction(2, 8)
    assert tied.schedule == {1: 1, 2: 4, 3: 7, 4: None}


SIX = [(2, 3, 1), (1, 2, 1), (3, 4, 2), (2, 5, 2), (1, 2, 3), (3, 4, 4)]


def test_no_fraction_outside_leaves(monkeypatch):
    made, leaves = [], []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    leaf_value = oracle._Search._leaf_value

    def counted_leaf(search):
        leaves.append(search.nodes)
        return leaf_value(search)

    monkeypatch.setattr(oracle, "Fraction", counting)
    monkeypatch.setattr(oracle._Search, "_leaf_value", counted_leaf)
    for objective in OBJECTIVES:
        made.clear()
        leaves.clear()
        solution = solve(OfflineInstance.build(SIX, 12, 14, objective))
        # a leaf makes at most one Fraction (none for inf); inner nodes,
        # which bound and prune, make none
        assert 0 < len(made) <= len(leaves) < solution.nodes // 2, objective
