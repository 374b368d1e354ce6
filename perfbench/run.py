"""kvflow benchmark: one workload, measured in a closed loop, outputs checked.

    python3 perfbench/run.py --workload overload --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; kvflow is imported from `src/`. The seed picks
the workload's input variant (`seed % workloads.VARIANTS`). The run first
times set-up (importing kvflow and loading every config of the workload,
which ingests its traces) SETUP_REPS times, then runs units of the workload
back to back until `--seconds` have passed, at least MIN_UNITS of them, and
then times set-up SETUP_REPS times more. Every unit's outputs are checked
against `reference.json`.

With `--trace 0` the metrics are the end-to-end ones: the medians over units
of wall and CPU time and of the slot and request rates, the peak resident
memory of this process above what it held once set up (so the interpreter,
numpy and kvflow's own modules are left out), the median set-up time, and
the share of runs whose outputs were right. With `--trace 1` units
alternate between untraced and traced (see tracer.py); the metrics are the
medians of each layer metric over the traced units plus the tracing
overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when the run completed,
even if outputs were wrong (that shows as correct: false), and 2 when kvflow
cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import LAYER_METRICS, Tracer
from workloads import VARIANTS, WORKLOADS, failed_runs, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("slots_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_share", "share"),
)
TRACE_TOTALS = (("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead", "ratio"))
SETUP_REPS = 8  # set-up samples before the timed units, and as many after
MIN_UNITS = 3
WORKLOAD_NAMES = tuple(WORKLOADS)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _purge_kvflow() -> None:
    for name in [m for m in sys.modules if m == "kvflow" or m.startswith("kvflow.")]:
        del sys.modules[name]


def _setup_once(configs) -> float:
    """Import kvflow afresh and load every config; returns the seconds taken."""
    _purge_kvflow()
    gc.collect()  # the purged copy is garbage a fresh process would not have
    start = perf_counter()
    cli = importlib.import_module("kvflow.cli")
    overrides = argparse.Namespace(seed=None, out=None)
    for path, mode in configs:
        cli.load_experiment(str(path), overrides, mode)
    return perf_counter() - start


class Tally:
    """Runs attempted and failed over every unit of this process."""

    def __init__(self, bench, expected) -> None:
        self.bench = bench
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, index: int):
        """Run and check one unit; returns it, or None if it raised."""
        bench = self.bench
        runs = bench.runs_per_unit()
        self.attempted += runs
        gc.collect()  # no unit pays for, or holds memory beside, the last one's garbage
        try:
            unit = bench.run_unit(index)
        except Exception:
            traceback.print_exc()
            self.failed += runs
            return None
        bad, reasons = failed_runs(unit, self.expected.get(str(index % bench.units()), {}), runs)
        for reason in reasons:
            _log(f"{bench.name} unit {index}: {reason}")
        self.failed += bad
        return unit


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    variant = seed % VARIANTS
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        bench = WORKLOADS[name](variant, workdir)
        importlib.import_module("kvflow.cli")  # compile and cache once, untimed
        setup = [_setup_once(bench.configs) for _ in range(SETUP_REPS)]
        bench.after_import()
        gc.collect()
        floor_kb = _max_rss_kb()
        tally = Tally(bench, load_reference("full", name, variant))
        if trace:
            metrics = _traced(tally, seconds)
        else:
            metrics = _untraced(tally, seconds, setup, floor_kb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _untraced(tally: Tally, seconds: float, setup, floor_kb: int) -> dict:
    samples = []
    start = perf_counter()
    i = 0
    while i < MIN_UNITS or perf_counter() - start < seconds:
        unit = tally.run(i)
        if unit is not None:
            samples.extend(unit.samples)
        i += 1
    peak_kb = _max_rss_kb()
    # the second half of the set-up samples: taken after the units, so that a
    # slow spell of the shared machine weighs on only part of them
    setup = setup + [_setup_once(tally.bench.configs) for _ in range(SETUP_REPS)]
    values = {
        "wall_s": _median([s.wall_s for s in samples]),
        "cpu_s": _median([s.cpu_s for s in samples]),
        "slots_per_s": _median([s.slots / s.wall_s for s in samples]),
        "requests_per_s": _median([s.requests / s.wall_s for s in samples]),
        "peak_rss_mb": (peak_kb - floor_kb) / 1024,
        "setup_s": _median(setup),
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }
    _log(f"{tally.bench.name}: {i} units in {perf_counter() - start:.1f} s")
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}


def _traced(tally: Tally, seconds: float) -> dict:
    """Alternate untraced and traced runs of unit 0; layer medians plus overhead."""
    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = perf_counter()
    i = 0
    while i < 2 * MIN_UNITS or perf_counter() - start < seconds:
        if i % 2 == 0:
            unit = tally.run(0)
            if unit is not None:
                plain.append(unit.wall_s)
        else:
            tracer.reset()
            with tracer.installed():
                unit = tally.run(0)
            if unit is not None:
                traced.append(unit.wall_s)
                layers.append(tracer.layer_metrics())
        i += 1
    values = {key: _median([layer[key] for layer in layers]) for key, _ in LAYER_METRICS}
    values["trace.wall_s"] = _median(traced)
    values["trace.untraced_wall_s"] = _median(plain)
    values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] if plain else 0.0
    _log(f"{tally.bench.name}: {len(plain)} untraced and {len(traced)} traced units")
    return {key: {"value": values[key], "unit": unit} for key, unit in LAYER_METRICS + TRACE_TOTALS}


def _table(name: str, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{name:13s} {key:34s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _table(name, result)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "kvflow" / "__init__.py").is_file():
        _log(f"kvflow sources not found under {SRC}; run from a full checkout")
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        _table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
