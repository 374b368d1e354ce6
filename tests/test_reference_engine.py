"""A reference engine: the slot rules replayed literally over a run's
decisions, checked against every row of the fast engine's event log.

The reference reads only the decisions from the log -- which ids arrive,
are activated and are evicted in each slot -- and rebuilds every row of
the slot from the slot rules: arrivals, activations in the order given, an
overflow row when the projection exceeds the budget before the first
eviction, evictions, one decode row per active request in activation order
(a re-activated request goes last), and completions at activation +
decode_len - 1. It keeps its own active list and sums usage from scratch
for each row, with no calendar and no running counter. It also checks
that every eviction was needed: before a slot's last eviction the usage
is still over the budget (except under alpha_protection, which evicts the
whole active set by design).
"""

from collections import defaultdict

import numpy as np
import pytest

from kvflow.core import RequestClass
from kvflow.engine import event_rows, run
from kvflow.policies import make_policy
from kvflow.presets import builtin_trace_path
from kvflow.workload import WorkloadSpec, generate_arrivals, ingest_trace

POLICIES = [
    ("flow_per_class", {"budgets": [2, 2, 2]}),
    ("flow_scalar", {"budget": 7}),
    ("alpha_protection", {"alpha": "1/5"}),
    ("mc", {"assume_max_output": 60}),
    ("mc_sf", {}),
    ("amin", {"min_output": 2}),
]
KV = 1500


def replay(result, lengths, minimal=True):
    """Rebuild every slot's rows from the log's decisions and compare them
    with the log; return the number of evictions replayed. minimal also
    requires that no slot evicts more than it needs to."""
    by_slot = defaultdict(list)
    for row in event_rows(result.events):
        by_slot[row[0]].append(row)
    kv = result.kv_capacity
    active = {}  # id -> activation slot, in activation order
    evictions = 0
    for t in range(1, result.horizon + 1):
        rows = by_slot.pop(t, [])
        decided = lambda kind: [rid for _, k, rid, _ in rows if k == kind]
        # end-of-slot footprint of the active set if it decodes in slot t
        held = lambda: sum(lengths[rid][0] + t - s + 1 for rid, s in active.items())
        start = sum(lengths[rid][0] + t - s for rid, s in active.items())
        expected = [(t, "arrive", rid, start) for rid in decided("arrive")]
        for rid in decided("activate"):
            assert rid not in active, (t, rid)
            active[rid] = t
            expected.append((t, "activate", rid, held()))
        evicted = decided("evict")
        if held() > kv:
            expected.append((t, "overflow", -1, held()))
        else:
            assert not evicted, f"slot {t} evicts within budget"
        for rid in evicted:
            before = held()
            del active[rid]
            expected.append((t, "evict", rid, held()))
        if evicted and minimal:
            assert before > kv, f"slot {t}: its last eviction was not needed"
        evictions += len(evicted)
        usage = held()
        assert usage <= kv and usage == result.usage[t - 1], t
        expected += [(t, "decode_step", rid, usage) for rid in active]
        for rid in [rid for rid, s in active.items() if s + lengths[rid][1] - 1 == t]:
            del active[rid]
            expected.append((t, "complete", rid, held()))
        assert rows == expected, f"slot {t}"
    assert not by_slot, "rows past the horizon"
    assert len(active) == result.final_active
    return evictions


def overload_spec():
    classes = [RequestClass(10, o, 3) for o in (20, 40, 60)]
    return WorkloadSpec.synthetic(classes, horizon=80)


def hidden_spec():
    records = ingest_trace(builtin_trace_path("trace_1k")).records
    picks = np.random.default_rng(3).integers(0, len(records), size=400)
    return WorkloadSpec.from_trace([records[i] for i in picks.tolist()], rate=4, horizon=80, outputs_known=False)


@pytest.mark.parametrize("make_spec", [overload_spec, hidden_spec])
def test_log_replays_under_slot_rules(make_spec):
    spec = make_spec()
    arrivals = generate_arrivals(spec, seed=3)
    lengths = {r.id: (r.prompt_len, r.decode_len) for slot in arrivals.slots for r in slot}
    evictions = 0
    for name, params in POLICIES:
        policy = make_policy(name, params)
        if policy.applicable(spec) is not None:
            continue  # flow_per_class needs classes, mc_sf visible outputs
        r = run(arrivals, policy, kv_capacity=KV, seed=1, record_events=True)
        assert replay(r, lengths, minimal=name != "alpha_protection") == r.eviction_count, name
        evictions += r.eviction_count
    assert evictions > 0, "the stream was meant to overflow under some policy"
