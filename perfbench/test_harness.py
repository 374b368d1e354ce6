"""Self-test of the benchmark harness (not part of the kvflow test suite).

    python3 -m pytest perfbench/test_harness.py

Each workload runs at its tiny size and must match the tiny reference
digests; deliberately altered outputs must be counted as failed runs; the
traced run must reproduce the untraced digests; and run.py must refuse to
run without the kvflow sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, failed_runs, load_reference  # noqa: E402


def _tiny(name, variant, tmp_path):
    bench = WORKLOADS[name](variant, tmp_path / name, "tiny")
    bench.after_import()
    return bench


def _check(bench, unit, index=0):
    expected = load_reference("tiny", bench.name, bench.variant).get(str(index), {})
    return failed_runs(unit, expected, bench.runs_per_unit())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("variant", [0, 7])
def test_tiny_unit_matches_reference(name, variant, tmp_path):
    bench = _tiny(name, variant, tmp_path)
    unit = bench.run_unit(0)
    assert _check(bench, unit) == (0, [])
    assert unit.samples and all(s.wall_s > 0 and s.slots > 0 and s.requests > 0 for s in unit.samples)


def test_altered_compare_output_fails_one_run(tmp_path, monkeypatch):
    bench = _tiny("overload", 0, tmp_path)
    real_cli = workloads._cli

    def cli_then_tamper(argv):
        rc = real_cli(argv)
        with open(bench.out / "usage_mc.csv", "a", encoding="utf-8") as fh:
            fh.write("0,0\n")
        return rc

    monkeypatch.setattr(workloads, "_cli", cli_then_tamper)
    bad, reasons = _check(bench, bench.run_unit(0))
    assert bad == 1 and reasons[0].startswith("mc:")


def test_altered_event_log_fails_the_unit(tmp_path, monkeypatch):
    bench = _tiny("trace_events", 0, tmp_path)
    real_cli = workloads._cli

    def cli_then_tamper(argv):
        rc = real_cli(argv)
        out = Path(json.loads(Path(argv[2]).read_text())["outputs"])
        events = out / "events_seed0.csv"
        header, rest = events.read_text().split("\n", 1)
        events.write_text(f"{header}\n1,overflow,-1,0\n{rest}")
        return rc

    monkeypatch.setattr(workloads, "_cli", cli_then_tamper)
    bad, reasons = _check(bench, bench.run_unit(0))
    assert bad == bench.runs_per_unit()
    assert any("recompute_from_events differs" in r for r in reasons)


def test_altered_oracle_result_fails_the_batch(tmp_path, monkeypatch):
    from kvflow import oracle

    bench = _tiny("offline", 0, tmp_path)
    real_solve = oracle.solve
    monkeypatch.setattr(oracle, "solve", lambda inst: dataclasses.replace(real_solve(inst), nodes=0))
    bad, _ = _check(bench, bench.run_unit(0))
    assert bad == bench.runs_per_unit()


def test_traced_unit_reproduces_digests_and_restores_modules(tmp_path):
    from kvflow import cli, engine, oracle

    originals = (engine.run, cli.engine_run, oracle.solve, engine.Engine.step)
    tracer = Tracer()
    for name in sorted(WORKLOADS):
        bench = _tiny(name, 0, tmp_path)
        tracer.reset()
        with tracer.installed():
            unit = bench.run_unit(0)
        assert _check(bench, unit) == (0, [])
        layers = tracer.layer_metrics()
        assert set(layers) == {key for key, _ in LAYER_METRICS}
        assert layers["engine.runs"] > 0 and layers["engine.slots"] > 0
        assert layers["engine.step_us_p99"] >= layers["engine.step_us_p50"] > 0
    assert (engine.run, cli.engine_run, oracle.solve, engine.Engine.step) == originals


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "offline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
