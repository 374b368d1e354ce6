"""Command-line front end: configured runs, comparisons, and analyses.

Subcommands
    run            one policy over one workload, one run per seed
    compare        several policies on one shared workload, summary table
    stability      static load and capacity analysis of a config
    budget-search  grid search over a policy's admission parameter
    oracle         exact offline schedule for a small instance
    ingest         normalize a raw trace file and summarize it

Every command is driven by a single JSON config document (--config);
--seed, --out, --jobs, and --format override or extend it. Progress and
human-readable tables go to stderr; stdout carries one machine-readable
summary document, rendered as JSON or flat CSV per --format.

Exit status is 0 on success, 1 on a runtime failure, and 2 on an invalid
configuration; every code-2 message names the offending config field.
Output files are written atomically (temp file plus rename), and every
CSV emitted here reads back with the stdlib csv module.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from kvflow import metrics, oracle, presets, stability, workload
from kvflow.core import EngineError, as_fraction, positive_int, rational
from kvflow.engine import run as engine_run, write_events_csv
from kvflow.oracle import OBJECTIVES
from kvflow.policies import POLICIES, Policy, make_policy
from kvflow.workload import WorkloadSpec, generate_arrivals, ingest_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

EMIT_FLAGS = ("metrics_json", "metrics_csv", "series_csv", "event_log")

_MISSING = object()


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config parsing


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def _field(doc: dict, key: str, where: str, types, default=_MISSING):
    """Fetch doc[key] with a type check; error messages name where.key."""
    label = f"{where}{key}"
    if key not in doc:
        if default is _MISSING:
            raise ConfigError(f"missing field '{label}'")
        return default
    value = doc[key]
    if types is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"field '{label}' must be a boolean, got {value!r}")
    elif not isinstance(value, types):
        kind = getattr(types, "__name__", None) or "/".join(t.__name__ for t in types)
        raise ConfigError(f"field '{label}' must be a {kind}, got {value!r}")
    return value


def _positive_int(doc: dict, key: str, where: str) -> int:
    try:
        return positive_int(f"field '{where}{key}'", _field(doc, key, where, object))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_rate(value, label: str) -> Fraction:
    try:
        return as_fraction(rational(f"field '{label}'", value, lambda r: r >= 0, "nonnegative"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_workload(doc, where: str = "workload") -> WorkloadSpec:
    """Build a WorkloadSpec from the config's workload block."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{where}' must be an object")
    prefix = where + "."
    kind = _field(doc, "kind", prefix, str)
    horizon = _positive_int(doc, "horizon", prefix)
    if kind == "synthetic":
        known = _field(doc, "outputs_known", prefix, bool, True)
        raw_classes = _field(doc, "classes", prefix, list)
        if not raw_classes:
            raise ConfigError(f"field '{prefix}classes' must not be empty")
        classes = []
        for i, entry in enumerate(raw_classes):
            label = f"{prefix}classes[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"field '{label}' must be an object")
            classes.append(
                workload.RequestClass(
                    prompt_len=_positive_int(entry, "prompt_len", label + "."),
                    decode_len=_positive_int(entry, "decode_len", label + "."),
                    rate=_parse_rate(entry.get("rate", 0), label + ".rate"),
                )
            )
        return WorkloadSpec.synthetic(classes, horizon=horizon, outputs_known=known)
    if kind == "trace":
        known = _field(doc, "outputs_known", prefix, bool, False)
        raw_path = _field(doc, "trace_path", prefix, str)
        fmt = _field(doc, "format", prefix, str, "jsonl")
        if fmt not in ("jsonl", "raw_pairs"):
            raise ConfigError(f"field '{prefix}format' must be 'jsonl' or 'raw_pairs', got {fmt!r}")
        rate = _parse_rate(_field(doc, "rate", prefix, object), prefix + "rate")
        try:
            resolved = presets.resolve_trace_path(raw_path)
        except ValueError as exc:
            raise ConfigError(f"field '{prefix}trace_path': {exc}") from None
        try:
            ingested = ingest_trace(resolved, fmt)
        except OSError as exc:
            raise ConfigError(f"field '{prefix}trace_path': cannot read {resolved}: {exc}") from None
        if not ingested.records:
            raise ConfigError(f"field '{prefix}trace_path': {resolved} yielded no usable records")
        return WorkloadSpec.from_trace(
            ingested.records,
            rate=rate,
            horizon=horizon,
            outputs_known=known,
            trace_path=raw_path,
        )
    raise ConfigError(f"field '{prefix}kind' must be 'synthetic' or 'trace', got {kind!r}")


def parse_policy_block(doc, label: str, search: bool = False) -> Tuple[str, dict]:
    """Extract (name, params) from a policy block and check the params. With
    search, the policy must declare a searched parameter: params leave it out
    (the grid sets it), and the rest are checked on their own."""
    if not isinstance(doc, dict):
        raise ConfigError(f"field '{label}' must be an object")
    name = _field(doc, "name", label + ".", str)
    if name == "oracle":
        raise ConfigError(
            f"field '{label}.name': the exact offline solver runs through the 'oracle' subcommand"
        )
    if name not in POLICIES:
        raise ConfigError(
            f"field '{label}.name': unknown policy {name!r}; known: {', '.join(POLICIES)}"
        )
    params = dict(_field(doc, "params", label + ".", dict, {}))
    searched = POLICIES[name].searched
    if search and searched is None:
        searchable = ", ".join(n for n, cls in POLICIES.items() if cls.searched)
        raise ConfigError(f"field '{label}.name': {name!r} has no searchable parameter; searchable: {searchable}")
    try:
        if search:
            params.pop(searched, None)
            POLICIES[name].check_params(params, omit=searched)
        else:
            make_policy(name, params)
    except ValueError as exc:
        raise ConfigError(f"field '{label}.params': {exc}") from None
    return name, params


@dataclass
class ExperimentConfig:
    """A fully parsed config document plus command-line overrides."""

    path: str
    raw: dict
    spec: WorkloadSpec
    workload_key: str
    kv_capacity: int
    policies: List[Tuple[str, dict]]
    seeds: List[int]
    out_dir: Path
    emit: Dict[str, bool]


def _parse_seeds(raw: dict, override: Optional[Sequence[int]], required: bool = True) -> List[int]:
    if override is not None:
        seeds = list(override)
    else:
        seeds = _field(raw, "seeds", "", list, [])
        for s in seeds:
            if isinstance(s, bool) or not isinstance(s, int):
                raise ConfigError(f"field 'seeds' must contain integers, got {s!r}")
    if not seeds:
        if not required:
            return [0]
        raise ConfigError("field 'seeds': at least one seed is required")
    for s in seeds:
        if s < 0:
            raise ConfigError(f"field 'seeds' must be nonnegative, got {s}")
    return [int(s) for s in seeds]


def _parse_emit(raw: dict) -> Dict[str, bool]:
    flags = {"metrics_json": True, "metrics_csv": True, "series_csv": False, "event_log": False}
    block = _field(raw, "emit", "", dict, {})
    for key, value in block.items():
        if key not in EMIT_FLAGS:
            raise ConfigError(
                f"field 'emit.{key}' is unknown; known flags: {', '.join(EMIT_FLAGS)}"
            )
        if not isinstance(value, bool):
            raise ConfigError(f"field 'emit.{key}' must be a boolean, got {value!r}")
        flags[key] = value
    return flags


def load_experiment(path: str, args, mode: str) -> ExperimentConfig:
    """Load and validate one config document.

    mode 'single' requires exactly the 'policy' field, 'multi' accepts
    'policy' or a 'policies' list, 'analysis' makes the policy optional,
    and 'search' takes one policy without its searched parameter (the
    grid sets it).
    """
    raw = _load_json(path)
    spec = parse_workload(_field(raw, "workload", "", object))
    workload_key = json.dumps(raw["workload"], sort_keys=True)
    kv_capacity = _positive_int(raw, "kv_capacity", "")

    policies: List[Tuple[str, dict]] = []
    if mode == "single" or mode == "search":
        if "policy" not in raw and "policies" in raw:
            raise ConfigError(
                "missing field 'policy' (this command takes one policy; "
                "'policies' lists belong to compare)"
            )
        block = _field(raw, "policy", "", object)
        policies.append(parse_policy_block(block, "policy", search=mode == "search"))
    elif mode == "multi":
        if "policies" in raw:
            entries = _field(raw, "policies", "", list)
            if not entries:
                raise ConfigError("field 'policies' must not be empty")
            for i, entry in enumerate(entries):
                policies.append(parse_policy_block(entry, f"policies[{i}]"))
        elif "policy" in raw:
            policies.append(parse_policy_block(raw["policy"], "policy"))
        else:
            raise ConfigError("missing field 'policies' (or a single 'policy')")
    elif mode == "analysis":
        if "policy" in raw:
            policies.append(parse_policy_block(raw["policy"], "policy"))
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown mode {mode!r}")

    seeds = _parse_seeds(raw, getattr(args, "seed", None), required=mode != "analysis")
    out_dir = getattr(args, "out", None) or raw.get("outputs") or f"runs/{Path(path).stem}"
    if not isinstance(out_dir, (str, Path)):
        raise ConfigError(f"field 'outputs' must be a path string, got {out_dir!r}")
    return ExperimentConfig(
        path=str(path),
        raw=raw,
        spec=spec,
        workload_key=workload_key,
        kv_capacity=kv_capacity,
        policies=policies,
        seeds=seeds,
        out_dir=Path(out_dir),
        emit=_parse_emit(raw),
    )


def _require_applicable(
    name: str, params: dict, spec: WorkloadSpec, label: str = "policy.params", searched: Optional[str] = None
) -> Policy:
    """Build the policy; raise ConfigError naming label when params are
    invalid, and naming 'policy' (with the searched parameter's value, if
    given) when it cannot run on the workload (compare writes a 'no: ...' row
    instead)."""
    try:
        policy = make_policy(name, params)
    except ValueError as exc:
        raise ConfigError(f"field '{label}': {exc}") from None
    reason = policy.applicable(spec)
    if reason is not None:
        where = f" with {searched} {getattr(policy, searched)}" if searched else ""
        raise ConfigError(f"field 'policy': {name}{where} cannot run on this workload: {reason}")
    return policy


def _single_config_path(args) -> str:
    paths = args.config or []
    if len(paths) != 1:
        raise ConfigError("exactly one --config is required")
    return paths[0]


# ---------------------------------------------------------------------------
# output helpers


def _atomic_write(path: Path, write_fn) -> None:
    """Run write_fn against a temp file, then rename it over path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_summary(doc: dict, fmt: str) -> None:
    """Print the machine summary to stdout as JSON or a two-line CSV."""
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    flat = {
        key: json.dumps(value) if isinstance(value, (dict, list)) else value
        for key, value in doc.items()
    }
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(flat))
    w.writeheader()
    w.writerow(flat)
    sys.stdout.write(buf.getvalue())


def _fnum(value) -> Optional[float]:
    if value is None:
        return None
    return float(value)


# ---------------------------------------------------------------------------
# running


def _run_task(task):
    """One (spec, policy, seed) run; module-level so worker processes can import it."""
    spec, name, params, kv_capacity, seed, record_events = task
    arrivals = generate_arrivals(spec, seed)
    result = engine_run(arrivals, make_policy(name, params), kv_capacity, seed=seed, record_events=record_events)
    return result, metrics.compute_metrics(result)


def _compare_task(task):
    """Every policy on one seed's stream, generated once and replayed.

    Per policy, in order: its usage series and metrics. The rest of a run
    is dropped before the next one starts.
    """
    spec, policies, kv_capacity, seed = task
    arrivals = generate_arrivals(spec, seed)
    outs = []
    for name, params in policies:
        result = engine_run(arrivals, make_policy(name, params), kv_capacity, seed=seed)
        outs.append((result.usage, metrics.compute_metrics(result)))
        del result
    return outs


def _map_tasks(fn, tasks, jobs: int):
    """Yield fn over tasks in submission order, in-process or across worker
    processes; in-process, a task starts only once the caller took the
    previous result."""
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        yield from pool.map(fn, tasks)


def _aggregate_row(reports: Sequence[metrics.MetricsReport]) -> List[str]:
    """Mean and population std of every numeric sweep column, as 'm±s'."""
    row: List[str] = []
    for name in metrics.CSV_FIELDS:
        if name == "policy":
            row.append(reports[0].policy)
        elif name == "seed":
            row.append("aggregate")
        else:
            vals = [_fnum(getattr(r, name)) for r in reports]
            vals = [v for v in vals if v is not None]
            if not vals:
                row.append("")
            else:
                mean = statistics.fmean(vals)
                std = statistics.pstdev(vals)
                row.append(f"{mean:.6g}±{std:.6g}")
    return row


def write_sweep_csv(reports: Sequence[metrics.MetricsReport], path) -> None:
    """Per-seed metric rows plus one trailing aggregate (mean±std) row."""

    def _write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(metrics.CSV_FIELDS)
            for rep in reports:
                w.writerow(rep.to_csv_row())
            if reports:
                w.writerow(_aggregate_row(reports))

    _atomic_write(Path(path), _write)


def read_sweep_csv(path) -> Tuple[List[metrics.MetricsReport], List[dict]]:
    """Read a sweep file back: exact per-seed reports plus raw aggregate rows."""
    reports: List[metrics.MetricsReport] = []
    aggregates: List[dict] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(metrics.CSV_FIELDS):
            raise ValueError(f"{path} is not a sweep file (header {header})")
        seed_col = metrics.CSV_FIELDS.index("seed")
        for row in reader:
            if row[seed_col] == "aggregate":
                aggregates.append(dict(zip(metrics.CSV_FIELDS, row)))
            else:
                reports.append(metrics.MetricsReport.from_csv_row(row))
    return reports, aggregates


def _emit_run_outputs(cfg: ExperimentConfig, seed: int, result, report) -> List[str]:
    written = []
    out = cfg.out_dir
    if cfg.emit["metrics_json"]:
        path = out / f"metrics_seed{seed}.json"
        _atomic_write(path, report.write_json)
        written.append(path.name)
    if cfg.emit["series_csv"]:
        path = out / f"series_seed{seed}.csv"
        _atomic_write(path, result.write_series_csv)
        written.append(path.name)
    if cfg.emit["event_log"]:
        path = out / f"events_seed{seed}.csv"
        _atomic_write(path, lambda tmp: write_events_csv(result.events, tmp))
        written.append(path.name)
    return written


def cmd_run(args) -> int:
    cfg = load_experiment(_single_config_path(args), args, mode="single")
    name, params = cfg.policies[0]
    _require_applicable(name, params, cfg.spec)
    tasks = [(cfg.spec, name, params, cfg.kv_capacity, seed, cfg.emit["event_log"]) for seed in cfg.seeds]
    reports = []
    for result, report in _map_tasks(_run_task, tasks, args.jobs):
        # written as it arrives: only the report outlives a seed's run
        reports.append(report)
        _emit_run_outputs(cfg, report.seed, result, report)
        del result
        avg = report.avg_latency
        _status(
            f"seed {report.seed}: completed {report.completed}/{report.arrivals}, "
            f"avg latency {'n/a' if avg is None else f'{float(avg):.3f}'}, "
            f"max usage {int(report.kv_util_max * cfg.kv_capacity + 0.5)}/{cfg.kv_capacity}, "
            f"overflow slots {report.overflow_events}"
        )
    if cfg.emit["metrics_csv"]:
        sweep = cfg.out_dir / "sweep.csv"
        write_sweep_csv(reports, sweep)
        _status(f"wrote {sweep}")
    summary = {
        "command": "run",
        "policy": name,
        "seeds": cfg.seeds,
        "kv_capacity": cfg.kv_capacity,
        "horizon": cfg.spec.horizon,
        "outputs": str(cfg.out_dir),
        "completed_mean": statistics.fmean(r.completed for r in reports),
        "overflow_events_mean": statistics.fmean(r.overflow_events for r in reports),
        "eviction_events_mean": statistics.fmean(r.eviction_events for r in reports),
        "kv_util_max": max(r.kv_util_max for r in reports),
    }
    _emit_summary(summary, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare

COMPARE_FIELDS = (
    "policy",
    "params",
    "applicable",
    "seeds",
    "avg_latency",
    "p95_latency",
    "request_throughput",
    "token_throughput",
    "overflow_events",
    "eviction_events",
    "kv_util_max",
)


def _mean_or_blank(values: List[Optional[float]]) -> str:
    present = [v for v in values if v is not None]
    if not present:
        return ""
    return repr(statistics.fmean(present))


def _compare_row(label: str, params: dict, reports: Sequence[metrics.MetricsReport]) -> dict:
    return {
        "policy": label,
        "params": json.dumps(params, sort_keys=True) if params else "",
        "applicable": "yes",
        "seeds": str(len(reports)),
        "avg_latency": _mean_or_blank([_fnum(r.avg_latency) for r in reports]),
        "p95_latency": _mean_or_blank([_fnum(r.p95_latency) for r in reports]),
        "request_throughput": _mean_or_blank([_fnum(r.request_throughput) for r in reports]),
        "token_throughput": _mean_or_blank([_fnum(r.token_throughput) for r in reports]),
        "overflow_events": _mean_or_blank([float(r.overflow_events) for r in reports]),
        "eviction_events": _mean_or_blank([float(r.eviction_events) for r in reports]),
        "kv_util_max": repr(max(r.kv_util_max for r in reports)),
    }


def _inapplicable_row(label: str, params: dict, reason: str) -> dict:
    row = {name: "" for name in COMPARE_FIELDS}
    row["policy"] = label
    row["params"] = json.dumps(params, sort_keys=True) if params else ""
    row["applicable"] = f"no: {reason}"
    return row


def write_usage_series_csv(seeds: Sequence[int], usages: Sequence, path) -> None:
    """Per-slot cache usage, one column per seed."""

    def _write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["slot"] + [f"usage_seed{s}" for s in seeds])
            slots = range(1, len(usages[0]) + 1)
            w.writerows(zip(slots, *(map(int, u) for u in usages), strict=True))

    _atomic_write(Path(path), _write)


def _policy_labels(policies: Sequence[Tuple[str, dict]]) -> List[str]:
    labels = []
    seen: Dict[str, int] = {}
    for name, _ in policies:
        n = seen.get(name, 0)
        seen[name] = n + 1
        labels.append(name if n == 0 else f"{name}_{n + 1}")
    return labels


def cmd_compare(args) -> int:
    paths = args.config or []
    if not paths:
        raise ConfigError("at least one --config is required")
    cfgs = [load_experiment(p, args, mode="multi") for p in paths]
    base = cfgs[0]
    for other in cfgs[1:]:
        if other.workload_key != base.workload_key:
            raise ConfigError(
                f"field 'workload' differs between {base.path} and {other.path}; "
                "compare needs one shared workload"
            )
        if other.kv_capacity != base.kv_capacity:
            raise ConfigError(
                f"field 'kv_capacity' differs between {base.path} "
                f"({base.kv_capacity}) and {other.path} ({other.kv_capacity})"
            )
    policies = [p for cfg in cfgs for p in cfg.policies]
    labels = _policy_labels(policies)
    spec, seeds, kv = base.spec, base.seeds, base.kv_capacity
    out = args.out and Path(args.out) or base.out_dir
    reasons = [make_policy(name, params).applicable(spec) for name, params in policies]
    runnable = [p for p, reason in zip(policies, reasons) if reason is None]
    # one task per seed runs every applicable policy on that seed's stream
    tasks = [(spec, runnable, kv, seed) for seed in seeds]
    per_seed = list(_map_tasks(_compare_task, tasks, args.jobs)) if runnable else []
    by_policy = zip(*per_seed)
    rows: List[dict] = []
    for label, (name, params), reason in zip(labels, policies, reasons):
        if reason is not None:
            _status(f"{label}: inapplicable ({reason})")
            rows.append(_inapplicable_row(label, params, reason))
            continue
        outs = next(by_policy)  # one entry per seed, in seed order
        reports = [rep for _, rep in outs]
        rows.append(_compare_row(label, params, reports))
        write_usage_series_csv(seeds, [usage for usage, _ in outs], out / f"usage_{label}.csv")
        _status(
            f"{label}: completed {statistics.fmean(r.completed for r in reports):.1f}, "
            f"overflow slots {statistics.fmean(r.overflow_events for r in reports):.1f}"
        )

    table = out / "compare.csv"

    def _write(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=list(COMPARE_FIELDS))
            w.writeheader()
            w.writerows(rows)

    _atomic_write(table, _write)
    _status(f"wrote {table}")
    _emit_summary(
        {
            "command": "compare",
            "kv_capacity": kv,
            "seeds": seeds,
            "table": str(table),
            "rows": rows,
        },
        args.format,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability


def cmd_stability(args) -> int:
    cfg = load_experiment(_single_config_path(args), args, mode="analysis")
    spec = cfg.spec
    policy = _require_applicable(*cfg.policies[0], spec) if cfg.policies else Policy()
    declared = {p.name: getattr(policy, p.name) for p in policy.parameters}  # none without a policy
    if spec.outputs_known and spec.classes is not None:
        report = stability.build_report(cfg.kv_capacity, classes=spec.classes, budgets=declared.get("budgets"))
    else:
        report = stability.build_report(
            cfg.kv_capacity,
            length_dist=spec.length_distribution(),
            rate=spec.total_rate(),
            scalar_budget=declared.get("budget"),
            activation_cap=declared.get("cap"),
            horizon=spec.horizon,
        )
    path = cfg.out_dir / "stability.json"
    _atomic_write(path, report.write_json)
    _status(f"offered load {float(report.offered_load):.1f} vs capacity {cfg.kv_capacity}")
    _status(f"necessary condition violated: {report.necessary_violated}")
    if report.sufficient is not None:
        _status(f"sufficient condition holds: {report.sufficient.sufficient_holds}")
    if report.overflow is not None:
        _status(f"overflow probability bound: {report.overflow.render()}")
    _status(f"wrote {path}")
    _emit_summary(report.as_dict(), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# budget search


def _jsonable_budget(point):
    if isinstance(point, tuple):
        return list(point)
    if isinstance(point, Fraction):
        return str(point)
    return point


def cmd_budget_search(args) -> int:
    path = _single_config_path(args)
    cfg = load_experiment(path, args, mode="search")
    name, params = cfg.policies[0]
    searched = POLICIES[name].searched
    search = _field(cfg.raw, "search", "", dict)
    objective = _field(search, "objective", "search.", str)
    if objective not in OBJECTIVES:
        raise ConfigError(
            f"field 'search.objective': unknown objective {objective!r}; "
            f"known: {', '.join(OBJECTIVES)}"
        )
    raw_grid = _field(search, "grid", "search.", list)
    if not raw_grid:
        raise ConfigError("field 'search.grid' must not be empty")
    grid = []
    for i, value in enumerate(raw_grid):
        policy = _require_applicable(name, {**params, searched: value}, cfg.spec, f"search.grid[{i}]", searched)
        grid.append(getattr(policy, searched))  # as kept: a list as a tuple, a float as a Fraction
    result = stability.budget_search(
        cfg.spec,
        cfg.kv_capacity,
        name,
        objective,
        grid,
        seeds=cfg.seeds,
        params=params,
    )
    csv_path = cfg.out_dir / "search.csv"
    _atomic_write(csv_path, result.write_csv)
    summary = {
        "command": "budget-search",
        "policy": name,
        "objective": objective,
        "seeds": cfg.seeds,
        "best_budget": _jsonable_budget(result.best_budget),
        "best_value": result.best_value,
        "grid_size": len(grid),
        "table": str(csv_path),
    }
    json_path = cfg.out_dir / "search.json"
    _atomic_write(
        json_path,
        lambda tmp: Path(tmp).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8"),
    )
    _status(f"best {objective}: {result.best_value} at budget {result.best_budget}")
    _status(f"wrote {csv_path}")
    _emit_summary(summary, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    path = _single_config_path(args)
    raw = _load_json(path)
    instance_doc = _field(raw, "instance", "", dict)
    try:
        instance = oracle.OfflineInstance.from_dict(instance_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'instance': {exc}") from None
    try:
        solution = oracle.solve(instance)
    except ValueError as exc:
        raise ConfigError(f"field 'instance': {exc}") from None
    _, report = oracle.replay(instance, solution.schedule)
    out_dir = Path(args.out or raw.get("outputs") or f"runs/{Path(path).stem}")
    doc = {
        "command": "oracle",
        "instance": instance.as_dict(),
        "solution": solution.as_dict(),
        "metrics": report.as_dict(),
    }
    out_path = out_dir / "oracle.json"
    _atomic_write(
        out_path,
        lambda tmp: Path(tmp).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8"),
    )
    placed = sum(1 for slot in solution.schedule.values() if slot is not None)
    _status(
        f"objective {instance.objective}: optimum {solution.as_dict()['value']} "
        f"({placed}/{len(instance.requests)} requests activated, "
        f"{solution.nodes} nodes explored)"
    )
    _status(f"wrote {out_path}")
    _emit_summary(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    result = ingest_trace(args.trace, args.trace_format)
    out_dir = Path(args.out or "runs/ingest")
    records_path = out_dir / "ingested.jsonl"

    def _write_records(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in result.records:
                rid = rec.source_id if rec.source_id is not None else rec.line_no
                fh.write(
                    json.dumps(
                        {
                            "id": rid,
                            "prompt_tokens": rec.prompt_len,
                            "output_tokens": rec.decode_len,
                        }
                    )
                    + "\n"
                )

    _atomic_write(records_path, _write_records)
    summary = {
        "command": "ingest",
        "source": str(args.trace),
        "records": len(result.records),
        "total_lines": result.total_lines,
        "malformed": len(result.malformed),
        "dropped_zero": result.dropped_zero,
        "normalized": str(records_path),
    }
    if result.records:
        stats = workload.sample_lengths_summary(result.records)
        summary.update(
            {
                "prompt_mean": stats.prompt_mean,
                "output_mean": stats.output_mean,
                "max_prompt": stats.max_prompt,
                "max_output": stats.max_output,
                "mean_workload_tokens": float(stats.mean_workload),
                "prompt_p95": stats.prompt_percentiles[95],
                "output_p95": stats.output_percentiles[95],
            }
        )
    summary_path = out_dir / f"summary.{args.format}"
    if args.format == "json":
        _atomic_write(
            summary_path,
            lambda tmp: Path(tmp).write_text(
                json.dumps(summary, indent=2) + "\n", encoding="utf-8"
            ),
        )
    else:

        def _write_csv(tmp):
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                w = csv.DictWriter(fh, fieldnames=list(summary))
                w.writeheader()
                w.writerow(summary)

        _atomic_write(summary_path, _write_csv)
    for line_no, reason in result.malformed[:5]:
        _status(f"line {line_no}: {reason}")
    if len(result.malformed) > 5:
        _status(f"... and {len(result.malformed) - 5} more malformed lines")
    _status(f"kept {len(result.records)}/{result.total_lines} records")
    _status(f"wrote {records_path} and {summary_path}")
    _emit_summary(summary, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvflow",
        description="Discrete-time simulator of token-budgeted request admission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs: bool = True, seeds: bool = True):
        p.add_argument("--config", "-c", action="append", metavar="PATH", help="JSON config document")
        if seeds:
            p.add_argument("--seed", action="append", type=int, default=None, help="override config seeds (repeatable)")
        p.add_argument("--out", default=None, metavar="DIR", help="override the output directory")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="stdout summary format")

    p = sub.add_parser("run", help="run one policy over one workload, once per seed")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several policies on one shared workload")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stability", help="static load and capacity analysis")
    common(p, jobs=False, seeds=False)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("budget-search", help="grid search over an admission parameter")
    common(p, jobs=False)
    p.set_defaults(func=cmd_budget_search)

    p = sub.add_parser("oracle", help="exact offline schedule for a small instance")
    common(p, jobs=False, seeds=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ingest", help="normalize a raw trace file")
    p.add_argument("trace", metavar="PATH", help="trace file to read")
    p.add_argument("--trace-format", choices=("jsonl", "raw_pairs"), default="jsonl")
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EngineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
