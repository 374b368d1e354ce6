"""From a JSONL trace to a policy comparison.

Ingests the bundled 1000-record trace, summarizes its lengths, sizes
the offered load at two arrival rates (one inside capacity, one beyond
it), and replays the trace under every applicable policy. Output
lengths stay hidden from the policies, exactly as a server would see
them, which rules the shortest-first baseline out.
"""

from kvflow import (
    WorkloadSpec,
    check_necessary_unknown,
    compute_metrics,
    generate_arrivals,
    ingest_trace,
    make_policy,
    run,
)
from kvflow.policies import PolicyApplicabilityError
from kvflow.workload import builtin_trace_path, sample_lengths_summary

M = 16492
HORIZON = 400

POLICIES = [
    ("flow_scalar", {"budget": 12}),
    ("alpha_protection", {"alpha": 0.6}),
    ("mc", {"assume_max_output": 200}),  # worst-case length stands in for the unknown
    ("mc_sf", {}),
    ("amin", {"min_output": 1}),
]


def main() -> None:
    path = builtin_trace_path("trace_1k")
    ingest = ingest_trace(path)
    print(f"Ingested {len(ingest.records)} records from {path.name} "
          f"({ingest.total_lines} lines, {len(ingest.malformed)} malformed, "
          f"{ingest.dropped_zero} zero-length)")

    s = sample_lengths_summary(ingest.records)
    print(f"  prompt mean {s.prompt_mean:.1f} (p95 {s.prompt_percentiles[95]}, "
          f"max {s.max_prompt})")
    print(f"  output mean {s.output_mean:.1f} (p95 {s.output_percentiles[95]}, "
          f"max {s.max_output})")
    print(f"  mean lifetime cost {float(s.mean_workload):.1f} tokens per request")

    # The trace is finite, so even the overloaded rate drains before the
    # horizon ends; the burst cost shows up in latency, not in unfinished
    # counts.
    for rate in (10, 50):
        spec = WorkloadSpec.from_trace(ingest.records, rate=rate, horizon=HORIZON)
        load = check_necessary_unknown(spec.length_distribution(), rate, M)
        print(f"\nArrival rate {rate}/slot: offered load "
              f"{float(load.offered_load):.0f} tokens/slot, {load.verdict}")
        arrivals = generate_arrivals(spec, seed=0)
        print(f"  {'policy':<18}{'completed':>10}{'avg_lat':>9}{'p95_lat':>9}"
              f"{'evictions':>10}{'max_usage':>10}")
        for name, params in POLICIES:
            try:
                result = run(arrivals, make_policy(name, params), M, seed=0)
            except PolicyApplicabilityError as exc:
                print(f"  {name:<18}inapplicable: {exc}")
                continue
            m = compute_metrics(result)
            print(f"  {name:<18}{m.completed:>10}{float(m.avg_latency):>9.1f}"
                  f"{m.p95_latency:>9}{result.eviction_count:>10}"
                  f"{result.max_usage:>10}")


if __name__ == "__main__":
    main()
