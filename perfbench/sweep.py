"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/sweep.py --workload steady --seeds 5 --trace 1

Runs `run.py` once per (workload, seed), one at a time, and writes for each
workload and metric the values, their median and quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median. With --out it also records the
Python and numpy versions and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), action="append")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0 .. n-1")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = list(range(args.seeds))
    doc = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in args.workload or tuple(WORKLOADS):
        values, runs = {}, []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for key, m in result["metrics"].items():
                values.setdefault(key, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        doc["workloads"][name] = {
            "runs": runs,
            "metrics": {k: {"unit": v["unit"], **summarise(v["values"])} for k, v in values.items()},
        }
        for key, m in doc["workloads"][name]["metrics"].items():
            print(f"{name:13s} {key:34s} median {m['median']:>14.6g} {m['unit']:6s} spread {m['spread']:.4f}")
        print(f"{name:13s} correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs", flush=True)
    if args.out:
        import numpy

        doc["environment"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
