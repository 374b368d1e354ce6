"""The benchmark's four workloads: inputs from a seed, one unit of work, digests.

Every workload is an offline batch driven in a closed loop by one caller:
the next unit starts when the previous one returns, in one process, with
`--jobs 1`. A unit is the smallest piece of work whose outputs can be
checked against the reference digests recorded in `reference.json`:

- overload / steady: one `kvflow compare` invocation over the synthetic
  three-class mix (one run per policy).
- trace_events: one `kvflow run` invocation per policy over a trace
  resampled from the bundled `trace_1k`, with the event log and the series
  CSV on, followed by `recompute_from_events` over the written log (parsed
  into rows first, outside the timed region).
- offline: one batch of small oracle instances (solve, dominance against the
  six policies, and `build_report`).

The seed picks one of `VARIANTS` recorded input sets (`seed % VARIANTS`), so
every seed has a reference digest to be checked against. kvflow is imported
lazily inside the functions below: `run.py` times its import and purges it
from `sys.modules` several times before any unit runs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRACE_1K = ROOT / "src" / "kvflow" / "data" / "trace_1k.jsonl"

VARIANTS = 32
KV_CAPACITY = 16492

# the synthetic_overloaded mix: l = 10 and o = 20/40/60, one rate for all classes
SYNTH_POLICIES = (
    ("flow_per_class", {"budgets": [4, 4, 4]}),
    ("flow_scalar", {"budget": 12}),
    ("alpha_protection", {"alpha": 0.6}),
    ("mc", {}),
    ("mc_sf", {}),
    ("amin", {"min_output": 20}),
)
# at rate 3 alpha_protection still overflows and evicts its whole active set
# each time (about 324k evictions per 10k slots), which would turn the steady
# workload into a second overload workload
STEADY_POLICIES = tuple(p for p in SYNTH_POLICIES if p[0] != "alpha_protection")

# hidden outputs: no class structure, and mc has to assume the trace's
# 200-token ceiling
TRACE_POLICIES = (
    ("flow_scalar", {"budget": 12}),
    ("alpha_protection", {"alpha": 0.6}),
    ("mc", {"assume_max_output": 200}),
    ("amin", {"min_output": 1}),
)

# the instance family of acceptance criterion 7
ORACLE_CLASSES = ((2, 3), (1, 2), (3, 4), (2, 5))
ORACLE_POLICIES = (
    ("flow_per_class", {"budgets": (1, 1, 1, 1)}),
    ("flow_scalar", {"budget": 2}),
    ("alpha_protection", {"alpha": 0.5}),
    ("mc", {}),
    ("mc_sf", {}),
    ("amin", {"min_output": 1}),
)
ORACLE_OBJECTIVES = ("avg_latency", "p95_latency", "request_throughput", "token_throughput")

# sizes: "full" is what the benchmark measures, "tiny" is for the self-test
SIZES = {
    "full": {"overload": 1000, "steady": 1500, "trace_events": 600, "offline": 30},
    "tiny": {"overload": 60, "steady": 60, "trace_events": 40, "offline": 2},
}
OFFLINE_BATCHES = 16  # distinct batches per variant; units cycle through them


class Run(NamedTuple):
    """One checked output: its label, digest and the simulated runs it covers."""

    label: str
    digest: str
    runs: int = 1


class Sample(NamedTuple):
    """Host time of the program calls for one timed piece of a unit."""

    wall_s: float
    cpu_s: float
    slots: int  # simulated slots, summed over the engine runs
    requests: int  # simulated arrivals, summed over the engine runs


class Unit(NamedTuple):
    """What one unit did: its timed samples and its checked outputs."""

    samples: List[Sample]
    outputs: List[Run]
    problems: List[str]  # checks that failed independently of the digests

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def _file_sha(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


class _Clock:
    """Accumulates wall and process CPU time over the timed program calls."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def timed(self):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w
            self.cpu += time.process_time() - c


def _cli(argv: List[str]) -> int:
    """Run the kvflow command line in this process, its output discarded."""
    from kvflow import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Workload:
    """Base: inputs for one variant, written under workdir."""

    name = ""
    policies: Tuple[Tuple[str, dict], ...] = ()

    def __init__(self, variant: int, workdir: Path, size: str = "full") -> None:
        self.variant = variant
        self.workdir = workdir
        self.scale = SIZES[size][self.name]
        workdir.mkdir(parents=True, exist_ok=True)
        self.configs: List[Tuple[Path, str]] = []  # (config path, load_experiment mode)
        self.prepare()

    def prepare(self) -> None:
        """Write the input files; runs before kvflow is imported."""

    def after_import(self) -> None:
        """Finish the inputs that need kvflow itself (not timed)."""

    def units(self) -> int:
        """Number of distinct units; unit i of a run is i % units()."""
        return 1

    def runs_per_unit(self) -> int:
        return len(self.policies)

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def _write_config(self, doc: dict, stem: str, mode: str) -> Path:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        self.configs.append((path, mode))
        return path


class CompareWorkload(Workload):
    """`kvflow compare` over the synthetic mix at one per-class rate."""

    rate = ""

    def prepare(self) -> None:
        self.out = self.workdir / "out"
        doc = {
            "workload": {
                "kind": "synthetic",
                "horizon": self.scale,
                "outputs_known": True,
                "classes": [
                    {"prompt_len": 10, "decode_len": o, "rate": self.rate} for o in (20, 40, 60)
                ],
            },
            "kv_capacity": KV_CAPACITY,
            "policies": [{"name": n, "params": p} for n, p in self.policies],
            "seeds": [self.variant],
            "outputs": str(self.out),
        }
        self.config = self._write_config(doc, "compare", "multi")

    def after_import(self) -> None:
        from kvflow import cli, workload

        spec = cli.parse_workload(json.loads(self.config.read_text())["workload"])
        self.arrivals = workload.generate_arrivals(spec, self.variant).total

    def run_unit(self, index: int) -> Unit:
        shutil.rmtree(self.out, ignore_errors=True)
        clock = _Clock()
        with clock.timed():
            rc = _cli(["compare", "-c", str(self.config), "--jobs", "1"])
        problems = [] if rc == 0 else [f"kvflow compare exited {rc}"]
        with open(self.out / "compare.csv", newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        header, rows = lines[0], {ln.split(",", 1)[0]: ln for ln in lines[1:]}
        outputs = []
        for name, _ in self.policies:
            row = rows.get(name, "")
            if ",yes," not in row:
                problems.append(f"{name}: compare row missing or inapplicable")
            usage = self.out / f"usage_{name}.csv"
            digest = _sha(header.encode(), row.encode(), usage.read_bytes()) if usage.exists() else ""
            outputs.append(Run(name, digest))
        n = len(self.policies)
        sample = Sample(clock.wall, clock.cpu, n * self.scale, n * self.arrivals)
        return Unit([sample], outputs, problems)


class Overload(CompareWorkload):
    name = "overload"
    policies = SYNTH_POLICIES
    rate = "5"


class Steady(CompareWorkload):
    name = "steady"
    policies = STEADY_POLICIES
    rate = "3"


def _read_events(path: Path):
    """The columns of an events CSV: slot, kind, request_id, usage_after.

    Integer columns are arrays and kinds are interned, so the parsed log
    adds little to the peak memory the benchmark reports.
    """
    slots, kinds, rids, usages = array("q"), [], array("q"), array("q")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for slot, kind, rid, usage in rows:
            slots.append(int(slot))
            kinds.append(sys.intern(kind))
            rids.append(int(rid))
            usages.append(int(usage))
    return slots, kinds, rids, usages


class TraceEvents(Workload):
    name = "trace_events"
    policies = TRACE_POLICIES
    rate = 12

    def prepare(self) -> None:
        with open(TRACE_1K, encoding="utf-8") as fh:
            pairs = [(d["prompt_tokens"], d["output_tokens"]) for d in map(json.loads, fh)]
        rng = np.random.default_rng([self.variant, 1])
        # enough records that the Poisson(12) stream never runs dry
        picks = rng.integers(0, len(pairs), size=self.rate * self.scale * 11 // 10 + 100)
        trace = self.workdir / "trace.jsonl"
        with open(trace, "w", encoding="utf-8") as fh:
            for i, j in enumerate(picks.tolist(), start=1):
                l, o = pairs[j]
                fh.write(json.dumps({"id": i, "prompt_tokens": l, "output_tokens": o}) + "\n")
        self.runs = []
        for name, params in self.policies:
            out = self.workdir / f"out_{name}"
            doc = {
                "workload": {
                    "kind": "trace",
                    "horizon": self.scale,
                    "outputs_known": False,
                    "trace_path": str(trace),
                    "format": "jsonl",
                    "rate": self.rate,
                },
                "kv_capacity": KV_CAPACITY,
                "policy": {"name": name, "params": params},
                "seeds": [self.variant],
                "outputs": str(out),
                "emit": {
                    "metrics_json": True,
                    "metrics_csv": True,
                    "series_csv": True,
                    "event_log": True,
                },
            }
            self.runs.append((name, self._write_config(doc, f"run_{name}", "single"), out))

    def run_unit(self, index: int) -> Unit:
        from kvflow import metrics

        clock = _Clock()
        outputs, problems = [], []
        requests = 0
        s = self.variant
        for name, config, out in self.runs:
            shutil.rmtree(out, ignore_errors=True)
            with clock.timed():
                rc = _cli(["run", "-c", str(config), "--jobs", "1"])
            if rc != 0:
                problems.append(f"{name}: kvflow run exited {rc}")
                outputs.append(Run(name, ""))
                continue
            files = [f"metrics_seed{s}.json", f"series_seed{s}.csv", f"events_seed{s}.csv", "sweep.csv"]
            digest = _sha(*(f"{f}:{_file_sha(out / f)}".encode() for f in files))
            outputs.append(Run(name, digest))
            written = json.loads((out / files[0]).read_text(encoding="utf-8"))
            requests += written["arrivals"]
            columns = _read_events(out / files[2])  # parsed untimed
            with clock.timed():
                again = metrics.recompute_from_events(
                    zip(*columns), KV_CAPACITY, self.scale, policy=name, seed=s
                )
            del columns
            if json.loads(json.dumps(again.as_dict())) != written:
                problems.append(f"{name}: recompute_from_events differs from compute_metrics")
        sample = Sample(clock.wall, clock.cpu, len(self.runs) * self.scale, requests)
        return Unit([sample], outputs, problems)


class Offline(Workload):
    name = "offline"
    policies = ORACLE_POLICIES

    def units(self) -> int:
        return OFFLINE_BATCHES

    def instances(self, index: int) -> list:
        """The batch: `scale` instances per objective, drawn like criterion 7."""
        from kvflow import oracle

        rng = np.random.default_rng([self.variant, index, 2])
        batch = []
        for _ in range(self.scale):
            for objective in ORACLE_OBJECTIVES:
                n = int(rng.integers(1, 7))
                horizon = int(rng.integers(6, 21))
                reqs = []
                for i in range(n):
                    k = int(rng.integers(0, len(ORACLE_CLASSES)))
                    l, o = ORACLE_CLASSES[k]
                    arrival = int(rng.integers(1, horizon + 1))
                    reqs.append(oracle.OfflineRequest(i + 1, l, o, arrival, class_id=k))
                kv = int(rng.integers(8, 21))
                batch.append(oracle.OfflineInstance(tuple(reqs), kv, horizon, objective))
        return batch

    def runs_per_unit(self) -> int:
        return self.scale * len(ORACLE_OBJECTIVES)

    def run_unit(self, index: int) -> Unit:
        from kvflow import oracle, stability
        from kvflow.core import RequestClass
        from kvflow.policies import make_policy

        batch = self.instances(index % OFFLINE_BATCHES)
        per_instance = len(self.policies)
        samples, doc, problems = [], [], []
        for inst in batch:
            counts = [0] * len(ORACLE_CLASSES)
            for r in inst.requests:
                counts[r.class_id] += 1
            classes = [
                RequestClass(l, o, Fraction(c, inst.horizon))
                for (l, o), c in zip(ORACLE_CLASSES, counts)
            ]
            clock = _Clock()
            with clock.timed():
                solution = oracle.solve(inst)
                dominance = [
                    oracle.verify_policy_dominance(inst, make_policy(name, params))
                    for name, params in self.policies
                ]
                report = stability.build_report(
                    inst.kv_capacity, classes=classes, budgets=(1,) * len(ORACLE_CLASSES)
                )
            samples.append(
                Sample(clock.wall, clock.cpu, per_instance * inst.horizon, per_instance * len(inst.requests))
            )
            flags = [(d.ok, str(d.oracle_value), str(d.policy_value)) for d in dominance]
            if not all(ok for ok, _, _ in flags):
                problems.append(f"a policy beat the oracle on {inst.as_dict()}")
            doc.append([solution.as_dict(), flags, report.as_dict()])
        digest = _sha(json.dumps(doc, sort_keys=True).encode())
        return Unit(samples, [Run("batch", digest, len(batch))], problems)


WORKLOADS: Dict[str, type] = {w.name: w for w in (Overload, Steady, TraceEvents, Offline)}

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(size: str, name: str, variant: int) -> Dict[str, Dict[str, str]]:
    """Recorded digests for one workload variant: unit index -> label -> digest."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return doc.get(size, {}).get(name, {}).get(str(variant), {})


def failed_runs(unit: Unit, expected: Dict[str, str], runs: int) -> Tuple[int, List[str]]:
    """Simulated runs of a unit whose outputs are wrong, with the reasons.

    A failed independent check fails the whole unit; otherwise every output
    whose digest differs from the recorded one fails the runs it covers.
    """
    if unit.problems:
        return runs, list(unit.problems)
    bad, reasons = 0, []
    for out in unit.outputs:
        if expected.get(out.label) != out.digest:
            bad += out.runs
            reasons.append(f"{out.label}: digest {out.digest or '-'} != recorded {expected.get(out.label)}")
    if sum(out.runs for out in unit.outputs) != runs:
        return runs, reasons + [f"expected {runs} runs, the unit produced {len(unit.outputs)} outputs"]
    return bad, reasons
