"""Command-line interface tests: config validation, outputs, exit codes."""

import csv
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kvflow import cli, engine, metrics, oracle, stability
from kvflow.engine import run as engine_run
from kvflow.policies import make_policy
from kvflow.workload import WorkloadSpec, generate_arrivals
from kvflow.core import RequestClass
from references import read_sweep_csv


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def base_config(**overrides):
    doc = {
        "workload": {
            "kind": "synthetic",
            "horizon": 200,
            "outputs_known": True,
            "classes": [
                {"prompt_len": 4, "decode_len": 3, "rate": 2},
                {"prompt_len": 2, "decode_len": 6, "rate": "3/2"},
            ],
        },
        "kv_capacity": 90,
        "policy": {"name": "mc", "params": {}},
        "seeds": [0, 1],
    }
    doc.update(overrides)
    return doc


def library_reports(doc, seeds):
    """What the library computes directly for a config, seed by seed."""
    classes = [
        RequestClass(c["prompt_len"], c["decode_len"], Fraction(str(c["rate"])))
        for c in doc["workload"]["classes"]
    ]
    spec = WorkloadSpec.synthetic(
        classes,
        horizon=doc["workload"]["horizon"],
        outputs_known=doc["workload"].get("outputs_known", True),
    )
    out = []
    for seed in seeds:
        policy = make_policy(doc["policy"]["name"], doc["policy"].get("params", {}))
        res = engine_run(generate_arrivals(spec, seed), policy, doc["kv_capacity"], seed=seed)
        out.append(metrics.compute_metrics(res))
    return out


class TestConfigErrors:
    def check(self, tmp_path, doc, needle, name="cfg.json"):
        code = cli.main(["run", "-c", write_config(tmp_path, doc, name)])
        assert code == cli.EXIT_CONFIG
        return needle

    def test_missing_workload(self, tmp_path, capsys):
        doc = base_config()
        del doc["workload"]
        self.check(tmp_path, doc, "workload")
        assert "'workload'" in capsys.readouterr().err

    def test_missing_policy(self, tmp_path, capsys):
        doc = base_config()
        del doc["policy"]
        self.check(tmp_path, doc, "policy")
        assert "'policy'" in capsys.readouterr().err

    def test_zero_seeds(self, tmp_path, capsys):
        code = cli.main(["run", "-c", write_config(tmp_path, base_config(seeds=[]))])
        assert code == cli.EXIT_CONFIG
        assert "'seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_repeated_seed(self, tmp_path, capsys, where):
        doc = base_config(seeds=[0, 1, 0] if where == "config" else [1])
        out = tmp_path / "out"
        argv = ["run", "-c", write_config(tmp_path, doc), "--out", str(out)]
        if where == "flag":
            argv += ["--seed", "0", "--seed", "0"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "'seeds'" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_type(self, tmp_path, capsys):
        code = cli.main(["run", "-c", write_config(tmp_path, base_config(seeds=[0, "x"]))])
        assert code == cli.EXIT_CONFIG
        assert "'seeds'" in capsys.readouterr().err

    def test_unknown_policy(self, tmp_path, capsys):
        doc = base_config(policy={"name": "fifo"})
        self.check(tmp_path, doc, "fifo")
        assert "'policy.name'" in capsys.readouterr().err

    def test_oracle_is_not_a_run_policy(self, tmp_path, capsys):
        doc = base_config(policy={"name": "oracle"})
        self.check(tmp_path, doc, "oracle")
        assert "oracle" in capsys.readouterr().err

    def test_policy_missing_parameter(self, tmp_path, capsys):
        doc = base_config(policy={"name": "flow_per_class", "params": {}})
        self.check(tmp_path, doc, "budgets")
        assert "budgets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy, wrong",
        [
            ({"name": "flow_per_class", "params": {"budgets": "444"}}, "budgets"),
            ({"name": "flow_per_class", "params": {"budgets": [4.7, 4]}}, "budgets"),
            ({"name": "flow_per_class", "params": {"budgets": [True, 4]}}, "budgets"),
            ({"name": "flow_per_class", "params": {"budgets": 5}}, "budgets"),
            ({"name": "flow_scalar", "params": {"budget": True}}, "budget"),
            ({"name": "flow_scalar", "params": {"budget": 2, "cap": 3.5}}, "cap"),
            ({"name": "mc", "params": {"assume_max_output": 20.5}}, "assume_max_output"),
            ({"name": "mc", "params": {"assume_max_output": True}}, "assume_max_output"),
            ({"name": "amin", "params": {"min_output": 2.5}}, "min_output"),
        ],
    )
    def test_policy_parameter_of_the_wrong_kind(self, tmp_path, capsys, policy, wrong):
        doc = base_config(policy=policy)
        doc["workload"]["classes"].append({"prompt_len": 1, "decode_len": 1, "rate": 1})
        self.check(tmp_path, doc, wrong)
        assert f"field 'policy.params': {wrong} must be" in capsys.readouterr().err

    def test_policies_list_rejected_by_run(self, tmp_path, capsys):
        doc = base_config()
        doc["policies"] = [doc.pop("policy")]
        self.check(tmp_path, doc, "policy")
        err = capsys.readouterr().err
        assert "'policy'" in err and "compare" in err

    def test_unknown_emit_flag(self, tmp_path, capsys):
        doc = base_config(emit={"metrics_json": True, "plots": True})
        self.check(tmp_path, doc, "plots")
        assert "'emit.plots'" in capsys.readouterr().err

    def test_bad_horizon(self, tmp_path):
        doc = base_config()
        doc["workload"]["horizon"] = 0
        self.check(tmp_path, doc, "horizon")

    def test_unknown_workload_kind(self, tmp_path, capsys):
        doc = base_config()
        doc["workload"]["kind"] = "replay"
        self.check(tmp_path, doc, "kind")
        assert "'workload.kind'" in capsys.readouterr().err

    def test_bad_rate(self, tmp_path, capsys):
        doc = base_config()
        doc["workload"]["classes"][0]["rate"] = "5/0"
        self.check(tmp_path, doc, "rate")
        assert "rate" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["1e100000000", "1e-100000000", "7" * 100_000])
    def test_huge_rate_string_is_refused_before_parsing(self, tmp_path, capsys, rate):
        doc = base_config()
        doc["workload"]["classes"][0]["rate"] = rate
        start = time.perf_counter()
        self.check(tmp_path, doc, "rate")
        assert time.perf_counter() - start < 1
        assert "field 'workload.classes[0].rate': number string" in capsys.readouterr().err

    def test_missing_kv_capacity(self, tmp_path, capsys):
        doc = base_config()
        del doc["kv_capacity"]
        self.check(tmp_path, doc, "kv_capacity")
        assert "'kv_capacity'" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        assert cli.main(["run", "-c", str(path)]) == cli.EXIT_CONFIG

    def test_config_missing_file(self, tmp_path):
        assert cli.main(["run", "-c", str(tmp_path / "absent.json")]) == cli.EXIT_CONFIG

    def test_missing_trace_file(self, tmp_path, capsys):
        doc = base_config()
        doc["workload"] = {
            "kind": "trace",
            "horizon": 50,
            "trace_path": str(tmp_path / "absent.jsonl"),
            "rate": 1,
        }
        self.check(tmp_path, doc, "trace_path")
        assert "'workload.trace_path'" in capsys.readouterr().err

    def test_unknown_builtin_trace(self, tmp_path):
        doc = base_config()
        doc["workload"] = {
            "kind": "trace",
            "horizon": 50,
            "trace_path": "builtin:missing",
            "rate": 1,
        }
        self.check(tmp_path, doc, "trace_path")

    def test_empty_classes(self, tmp_path):
        doc = base_config()
        doc["workload"]["classes"] = []
        self.check(tmp_path, doc, "classes")

    def test_no_config_flag(self, capsys):
        assert cli.main(["run"]) == cli.EXIT_CONFIG
        assert "--config" in capsys.readouterr().err

    def test_two_configs_for_run(self, tmp_path):
        p1 = write_config(tmp_path, base_config(), "a.json")
        p2 = write_config(tmp_path, base_config(), "b.json")
        assert cli.main(["run", "-c", p1, "-c", p2]) == cli.EXIT_CONFIG

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        doc = base_config(
            policy={"name": "flow_scalar", "params": {"budget": 1}},
            kv_capacity=6,
        )
        doc["workload"]["classes"] = [{"prompt_len": 30, "decode_len": 10, "rate": 1}]
        code = cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_RUNTIME
        assert "error" in capsys.readouterr().err

    def test_series_past_int64_is_an_error_not_a_traceback(self, tmp_path, capsys):
        doc = base_config(policy={"name": "flow_scalar", "params": {"budget": 1}}, kv_capacity=2**70)
        doc["workload"]["classes"] = [{"prompt_len": 2**64, "decode_len": 3, "rate": 1}]
        code = cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_RUNTIME
        assert f"error: series usage holds {2**64 + 1}" in capsys.readouterr().err

    def test_capacity_past_int64_with_small_requests(self, tmp_path, capsys):
        # the counts stay small, so the run works; the ledger's int64
        # vector refuses such a capacity
        doc = base_config(policy={"name": "flow_scalar", "params": {"budget": 1}}, kv_capacity=2**70)
        assert cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        capsys.readouterr()
        doc["policy"] = {"name": "mc", "params": {}}
        code = cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(tmp_path / "p")])
        assert code == cli.EXIT_RUNTIME
        assert "error: kv_capacity must be below 2**62 for a ledger policy" in capsys.readouterr().err


class TestRun:
    def test_outputs_and_exit(self, tmp_path, capsys):
        doc = base_config(emit={"series_csv": True, "event_log": True})
        out = tmp_path / "out"
        code = cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(out)])
        assert code == cli.EXIT_OK
        for seed in (0, 1):
            assert (out / f"metrics_seed{seed}.json").exists()
            assert (out / f"series_seed{seed}.csv").exists()
            assert (out / f"events_seed{seed}.csv").exists()
        assert (out / "sweep.csv").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "run"
        assert summary["policy"] == "mc"
        assert summary["seeds"] == [0, 1]

    def test_metrics_match_library(self, tmp_path, capsys):
        doc = base_config()
        out = tmp_path / "out"
        assert cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        capsys.readouterr()
        expected = library_reports(doc, [0, 1])
        for seed, want in zip((0, 1), expected):
            got = json.loads((out / f"metrics_seed{seed}.json").read_text())
            assert got == want.as_dict()
        reports, aggregates = read_sweep_csv(out / "sweep.csv")
        assert len(aggregates) == 1
        assert aggregates[0]["seed"] == "aggregate"
        for got, want in zip(reports, expected):
            assert got == want

    def test_seed_override(self, tmp_path, capsys):
        doc = base_config()
        out = tmp_path / "out"
        code = cli.main(
            ["run", "-c", write_config(tmp_path, doc), "--out", str(out), "--seed", "7"]
        )
        assert code == 0
        capsys.readouterr()
        assert (out / "metrics_seed7.json").exists()
        assert not (out / "metrics_seed0.json").exists()
        reports, _ = read_sweep_csv(out / "sweep.csv")
        assert [r.seed for r in reports] == [7]

    def test_emit_flags_off(self, tmp_path, capsys):
        doc = base_config(emit={"metrics_json": False, "metrics_csv": False})
        out = tmp_path / "out"
        assert cli.main(["run", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        capsys.readouterr()
        assert not list(out.glob("*")) if out.exists() else True

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        doc = base_config(seeds=[3], emit={"event_log": True})
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "-c", cfg, "--out", str(a)]) == 0
        assert cli.main(["run", "-c", cfg, "--out", str(b)]) == 0
        capsys.readouterr()
        for name in ("metrics_seed3.json", "events_seed3.csv", "sweep.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_jobs_match_sequential(self, tmp_path, capsys):
        doc = base_config(seeds=[0, 1, 2])
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "-c", cfg, "--out", str(a)]) == 0
        assert cli.main(["run", "-c", cfg, "--out", str(b), "--jobs", "3"]) == 0
        capsys.readouterr()
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_each_seed_written_before_the_next_runs(self, tmp_path, capsys, monkeypatch):
        doc = base_config(seeds=[0, 1, 2], emit={"series_csv": True, "event_log": True})
        cfg = write_config(tmp_path, doc)
        one, two = tmp_path / "jobs1", tmp_path / "jobs2"
        real_seed = engine._sweep_seed
        started, missing = [], []

        def sweep_seed(spec, policies, fn, seed):
            for prev in started:
                for name in (f"metrics_seed{prev}.json", f"series_seed{prev}.csv", f"events_seed{prev}.csv"):
                    if not (one / name).exists():
                        missing.append(name)
            started.append(seed)
            return real_seed(spec, policies, fn, seed)

        monkeypatch.setattr(engine, "_sweep_seed", sweep_seed)
        assert cli.main(["run", "-c", cfg, "--out", str(one), "--jobs", "1"]) == 0
        monkeypatch.undo()
        assert started == [0, 1, 2] and missing == []
        assert cli.main(["run", "-c", cfg, "--out", str(two), "--jobs", "2"]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in one.iterdir())
        assert len(names) == 10 and names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def test_csv_summary_format(self, tmp_path, capsys):
        doc = base_config(seeds=[0])
        out = tmp_path / "out"
        code = cli.main(
            ["run", "-c", write_config(tmp_path, doc), "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 1
        assert rows[0]["command"] == "run"
        assert rows[0]["policy"] == "mc"


def compare_config(known=True, policies=None):
    doc = base_config()
    doc["workload"]["outputs_known"] = known
    del doc["policy"]
    doc["policies"] = policies or [
        {"name": "flow_per_class", "params": {"budgets": [2, 2]}},
        {"name": "mc", "params": {}},
        {"name": "mc_sf", "params": {}},
    ]
    doc["seeds"] = [0, 1]
    return doc


class TestCompare:
    def read_table(self, out):
        with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def test_known_workload_all_applicable(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, compare_config(known=True))
        assert cli.main(["compare", "-c", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        rows = self.read_table(out)
        assert [r["policy"] for r in rows] == ["flow_per_class", "mc", "mc_sf"]
        assert all(r["applicable"] == "yes" for r in rows)
        for r in rows:
            assert float(r["kv_util_max"]) <= 1.0
        for name in ("flow_per_class", "mc", "mc_sf"):
            assert (out / f"usage_{name}.csv").exists()

    def test_unknown_workload_marks_inapplicable(self, tmp_path, capsys):
        policies = [
            {"name": "flow_scalar", "params": {"budget": 2}},
            {"name": "flow_per_class", "params": {"budgets": [2, 2]}},
            {"name": "mc", "params": {}},
            {"name": "mc_sf", "params": {}},
            {"name": "mc", "params": {"assume_max_output": 6}},
        ]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, compare_config(known=False, policies=policies))
        assert cli.main(["compare", "-c", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        rows = {r["policy"]: r for r in self.read_table(out)}
        assert rows["flow_scalar"]["applicable"] == "yes"
        assert rows["flow_per_class"]["applicable"].startswith("no:")
        assert rows["mc"]["applicable"].startswith("no:")
        assert "assume_max_output" in rows["mc"]["applicable"]
        assert rows["mc_sf"]["applicable"] == "no: needs visible output lengths"
        assert rows["mc_2"]["applicable"] == "yes"
        assert rows["mc_sf"]["avg_latency"] == ""
        assert not (out / "usage_mc_sf.csv").exists()
        assert (out / "usage_mc_2.csv").exists()

    def test_usage_series_matches_library(self, tmp_path, capsys):
        doc = compare_config(known=True, policies=[{"name": "mc", "params": {}}])
        out = tmp_path / "out"
        assert cli.main(["compare", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        capsys.readouterr()
        series_doc = dict(doc)
        series_doc["policy"] = {"name": "mc", "params": {}}
        expected = library_reports(series_doc, [0, 1])
        with open(out / "usage_mc.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["slot", "usage_seed0", "usage_seed1"]
            rows = list(reader)
        assert len(rows) == doc["workload"]["horizon"]
        max_usage = max(int(r[1]) for r in rows)
        assert max_usage == pytest.approx(expected[0].kv_util_max * doc["kv_capacity"])

    def test_table_row_values_are_seed_means(self, tmp_path, capsys):
        doc = compare_config(known=True, policies=[{"name": "mc", "params": {}}])
        out = tmp_path / "out"
        assert cli.main(["compare", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        capsys.readouterr()
        lib_doc = dict(doc)
        lib_doc["policy"] = {"name": "mc", "params": {}}
        expected = library_reports(lib_doc, [0, 1])
        row = self.read_table(out)[0]
        want = sum(float(r.request_throughput) for r in expected) / 2
        assert float(row["request_throughput"]) == pytest.approx(want, rel=1e-12)
        assert int(row["seeds"]) == 2

    def test_multiple_configs_must_share_workload(self, tmp_path, capsys):
        a = write_config(tmp_path, compare_config(known=True), "a.json")
        mismatched = compare_config(known=True)
        mismatched["workload"]["horizon"] = 99
        b = write_config(tmp_path, mismatched, "b.json")
        assert cli.main(["compare", "-c", a, "-c", b]) == cli.EXIT_CONFIG
        assert "'workload'" in capsys.readouterr().err

    def test_multiple_configs_must_share_capacity(self, tmp_path, capsys):
        a = write_config(tmp_path, compare_config(known=True), "a.json")
        mismatched = compare_config(known=True)
        mismatched["kv_capacity"] = 91
        b = write_config(tmp_path, mismatched, "b.json")
        assert cli.main(["compare", "-c", a, "-c", b]) == cli.EXIT_CONFIG
        assert "'kv_capacity'" in capsys.readouterr().err

    def test_multiple_configs_merge_policies(self, tmp_path, capsys):
        doc_a = compare_config(known=True, policies=[{"name": "mc", "params": {}}])
        doc_b = compare_config(
            known=True, policies=[{"name": "flow_scalar", "params": {"budget": 2}}]
        )
        out = tmp_path / "out"
        a = write_config(tmp_path, doc_a, "a.json")
        b = write_config(tmp_path, doc_b, "b.json")
        assert cli.main(["compare", "-c", a, "-c", b, "--out", str(out)]) == 0
        capsys.readouterr()
        assert [r["policy"] for r in self.read_table(out)] == ["mc", "flow_scalar"]

    def test_parallel_jobs_match_sequential(self, tmp_path, capsys):
        policies = [
            {"name": "flow_scalar", "params": {"budget": 2}},
            {"name": "mc_sf", "params": {}},  # inapplicable: outputs are hidden
            {"name": "mc", "params": {"assume_max_output": 6}},
            {"name": "amin", "params": {"min_output": 1}},
        ]
        doc = compare_config(known=False, policies=policies)
        doc["seeds"] = [0, 1, 2]
        cfg = write_config(tmp_path, doc)
        outs, summaries = [], []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["compare", "-c", cfg, "--out", str(out), "--jobs", jobs]) == 0
            summaries.append(json.loads(capsys.readouterr().out))
            outs.append(out)
        a, b = outs
        assert summaries[0]["rows"] == summaries[1]["rows"]
        names = sorted(p.name for p in a.iterdir())
        assert names == ["compare.csv", "usage_amin.csv", "usage_flow_scalar.csv", "usage_mc.csv"]
        assert sorted(p.name for p in b.iterdir()) == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert [r["applicable"] for r in self.read_table(a)] == [
            "yes",
            "no: needs visible output lengths",
            "yes",
            "yes",
        ]

    def test_compare_requires_some_policy(self, tmp_path):
        doc = compare_config(known=True)
        del doc["policies"]
        assert cli.main(["compare", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG


class TestApplicability:
    """run, stability and budget-search refuse a policy that cannot run on
    the workload (exit 2, naming the 'policy' field); compare writes a
    'no: ...' row for it and runs the rest."""

    FLOW_PER_CLASS = {"name": "flow_per_class", "params": {"budgets": [2, 2]}}

    def trace_config(self):
        workload = {
            "kind": "trace",
            "horizon": 50,
            "trace_path": "builtin:trace_1k",
            "rate": 2,
            "outputs_known": True,
        }
        return base_config(workload=workload, policy=self.FLOW_PER_CLASS)

    def test_run_flow_per_class_on_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.trace_config())
        assert cli.main(["run", "-c", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'policy': flow_per_class cannot run on this workload: needs class structure" in err
        assert not (tmp_path / "out").exists()

    def test_budget_search_flow_per_class_on_trace(self, tmp_path, capsys):
        doc = self.trace_config()
        doc["search"] = {"objective": "avg_latency", "grid": [[1, 1], [2, 2]]}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["budget-search", "-c", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'policy': flow_per_class with budgets (1, 1) cannot run" in err
        assert "needs class structure" in err

    def test_stability_flow_per_class_on_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.trace_config())
        assert cli.main(["stability", "-c", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'policy': flow_per_class cannot run on this workload: needs class structure" in err
        assert not (tmp_path / "out").exists()

    def test_stability_budget_count_must_match_classes(self, tmp_path, capsys):
        doc = base_config(policy=self.FLOW_PER_CLASS)
        doc["workload"]["classes"].append({"prompt_len": 3, "decode_len": 2, "rate": 1})
        cfg = write_config(tmp_path, doc)
        assert cli.main(["stability", "-c", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'policy': flow_per_class cannot run on this workload" in err
        assert "needs one budget per class, got 2 for 3 classes" in err

    @pytest.mark.parametrize("count", [2, 4])
    def test_compare_budget_count_must_match_classes(self, tmp_path, capsys, count):
        # three classes: two budgets stopped every run at class id 2 and lost
        # the whole table, four left the last budget unread
        doc = compare_config(
            policies=[
                {"name": "flow_per_class", "params": {"budgets": [1] * count}},
                {"name": "mc", "params": {}},
            ]
        )
        doc["workload"]["classes"].append({"prompt_len": 3, "decode_len": 2, "rate": 1})
        out = tmp_path / "out"
        assert cli.main(["compare", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out / "compare.csv", newline="", encoding="utf-8") as fh:
            rows = {r["policy"]: r["applicable"] for r in csv.DictReader(fh)}
        assert rows == {
            "flow_per_class": f"no: needs one budget per class, got {count} for 3 classes",
            "mc": "yes",
        }
        assert not (out / "usage_flow_per_class.csv").exists()


class TestStability:
    def test_known_sufficient(self, tmp_path, capsys):
        doc = {
            "workload": {
                "kind": "synthetic",
                "horizon": 100,
                "outputs_known": True,
                "classes": [
                    {"prompt_len": 10, "decode_len": 20, "rate": "5/3"},
                    {"prompt_len": 10, "decode_len": 40, "rate": "5/3"},
                    {"prompt_len": 10, "decode_len": 60, "rate": "5/3"},
                ],
            },
            "kv_capacity": 16492,
            "policy": {"name": "flow_per_class", "params": {"budgets": [4, 4, 4]}},
        }
        out = tmp_path / "out"
        code = cli.main(["stability", "-c", write_config(tmp_path, doc), "--out", str(out)])
        assert code == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["sufficient_holds"] is True
        assert summary["necessary_violated"] is False
        on_disk = json.loads((out / "stability.json").read_text())
        assert on_disk == summary
        assert on_disk["sufficient"]["budgeted_load"] == 16240

    def test_overloaded_still_exit_zero(self, tmp_path, capsys):
        doc = {
            "workload": {
                "kind": "synthetic",
                "horizon": 100,
                "outputs_known": True,
                "classes": [{"prompt_len": 10, "decode_len": 60, "rate": 5}],
            },
            "kv_capacity": 1000,
        }
        code = cli.main(
            ["stability", "-c", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["necessary_violated"] is True

    def test_unknown_variant_reports_bound(self, tmp_path, capsys):
        doc = {
            "workload": {
                "kind": "synthetic",
                "horizon": 10000,
                "outputs_known": False,
                "classes": [
                    {"prompt_len": 10, "decode_len": 20, "rate": "5/3"},
                    {"prompt_len": 10, "decode_len": 40, "rate": "5/3"},
                    {"prompt_len": 10, "decode_len": 60, "rate": "5/3"},
                ],
            },
            "kv_capacity": 16492,
            "policy": {"name": "flow_scalar", "params": {"budget": 12}},
        }
        out = tmp_path / "out"
        assert cli.main(["stability", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["overflow_bound"] is not None
        assert summary["overflow_bound"]["epsilon_exact"] == str(Fraction(252, 16492))

    def test_policy_optional(self, tmp_path, capsys):
        doc = {
            "workload": {
                "kind": "synthetic",
                "horizon": 100,
                "classes": [{"prompt_len": 2, "decode_len": 2, "rate": 1}],
            },
            "kv_capacity": 50,
        }
        assert cli.main(
            ["stability", "-c", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        ) == 0
        assert json.loads(capsys.readouterr().out)["necessary_violated"] is False

    def test_zero_rate_mix_offers_no_load_whether_outputs_show(self, tmp_path, capsys):
        # every class leaves out its rate, which defaults to 0
        for known in (True, False):
            doc = {
                "workload": {
                    "kind": "synthetic",
                    "horizon": 100,
                    "outputs_known": known,
                    "classes": [{"prompt_len": 2, "decode_len": 2}, {"prompt_len": 3, "decode_len": 5}],
                },
                "kv_capacity": 50,
                "policy": {"name": "flow_scalar", "params": {"budget": 2}},
            }
            out = tmp_path / str(known)
            assert cli.main(["stability", "-c", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_OK
            summary = json.loads(capsys.readouterr().out)
            assert summary["offered_load"] == 0 and summary["necessary_violated"] is False
            assert summary["overflow_bound"] is None


class TestBudgetSearch:
    def search_config(self, **search):
        return {
            "workload": {
                "kind": "synthetic",
                "horizon": 150,
                "classes": [{"prompt_len": 3, "decode_len": 4, "rate": 1}],
            },
            "kv_capacity": 60,
            "policy": {"name": "flow_scalar", "params": {}},
            "seeds": [0, 1],
            "search": search or {"objective": "request_throughput", "grid": [1, 2]},
        }

    def test_matches_library(self, tmp_path, capsys):
        doc = self.search_config(objective="request_throughput", grid=[1, "3/2", 2])
        out = tmp_path / "out"
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        spec = WorkloadSpec.synthetic([RequestClass(3, 4, 1)], horizon=150)
        want = stability.budget_search(
            spec, 60, "flow_scalar", "request_throughput",
            [1, Fraction(3, 2), 2], seeds=(0, 1),
        )
        assert summary["best_budget"] == cli._jsonable_budget(want.best_budget)
        assert summary["best_value"] == want.best_value
        assert (out / "search.csv").exists()
        assert json.loads((out / "search.json").read_text()) == summary

    def test_per_class_grid(self, tmp_path, capsys):
        doc = self.search_config(objective="token_throughput", grid=[[1], [2]])
        doc["policy"] = {"name": "flow_per_class", "params": {}}
        out = tmp_path / "out"
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_budget"] in ([1], [2])

    def test_grid_value_the_policy_rejects(self, tmp_path, capsys):
        doc = self.search_config(objective="avg_latency", grid=[1, 0])
        out = tmp_path / "out"
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "field 'search.grid[1]': budget must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_value_of_the_wrong_kind(self, tmp_path, capsys):
        doc = self.search_config(objective="avg_latency", grid=[1, 2.5])
        doc["policy"] = {"name": "amin", "params": {}}
        out = tmp_path / "out"
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "field 'search.grid[1]': min_output must be a positive integer, got 2.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["abc", 3.5])
    def test_fixed_parameter_is_blamed_on_params(self, tmp_path, capsys, cap):
        doc = self.search_config(objective="avg_latency", grid=[1, 2])
        doc["policy"]["params"] = {"cap": cap}
        out = tmp_path / "out"
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"field 'policy.params': cap must be a positive integer, got {cap!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_objective(self, tmp_path, capsys):
        doc = self.search_config(objective="goodput", grid=[1])
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "'search.objective'" in capsys.readouterr().err

    def test_empty_grid(self, tmp_path, capsys):
        doc = self.search_config(objective="avg_latency", grid=[])
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "'search.grid'" in capsys.readouterr().err

    def test_missing_search_block(self, tmp_path, capsys):
        doc = self.search_config()
        del doc["search"]
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "'search'" in capsys.readouterr().err

    def test_unsearchable_policy(self, tmp_path, capsys):
        doc = self.search_config()
        doc["policy"] = {"name": "mc", "params": {}}
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "'policy.name'" in capsys.readouterr().err


class TestAnalysisArtifactsPinned:
    """stability.json of every shipped config under each of its policies that
    can run there (and under none), and search.json and search.csv of
    budget-search with int, fraction-string, float and list grid points:
    digests recorded before the policies declared their parameters."""

    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    # (config, policy or None, sha256 of stability.json)
    STABILITY = [
        ('synthetic_known', None, '17b96a4d53afb44fba025d4e71cdce7611685996c93dde8d31f16ba75a7acf62'),
        ('synthetic_known', 'flow_per_class', 'fe7a6124b676ddb20a0c4d134b42924f4e6c747d5f3882ac0aeb14ab48632283'),
        ('synthetic_overloaded', None, '0a066484ad379d71d158ce91a99faf15e25b065d102aec19082399119264ff44'),
        ('synthetic_overloaded', 'flow_per_class', '702278aeb4ff10242e252aa1758ecd0f351cc5bb233bed82772d7020f8c6199d'),
        ('synthetic_overloaded', 'flow_scalar', '0a066484ad379d71d158ce91a99faf15e25b065d102aec19082399119264ff44'),
        ('synthetic_overloaded', 'alpha_protection', '0a066484ad379d71d158ce91a99faf15e25b065d102aec19082399119264ff44'),
        ('synthetic_overloaded', 'mc', '0a066484ad379d71d158ce91a99faf15e25b065d102aec19082399119264ff44'),
        ('synthetic_overloaded', 'mc_sf', '0a066484ad379d71d158ce91a99faf15e25b065d102aec19082399119264ff44'),
        ('synthetic_overloaded', 'amin', '0a066484ad379d71d158ce91a99faf15e25b065d102aec19082399119264ff44'),
        ('synthetic_unknown', None, '17b96a4d53afb44fba025d4e71cdce7611685996c93dde8d31f16ba75a7acf62'),
        ('synthetic_unknown', 'flow_scalar', '838f6efe5b222d9e576287b37cd90f572183413f1583c28ac73320ffb9c7d224'),
        ('trace_high', None, '07287736eea28d4e69aa7d748f2f0bddc1894e0e5ea64c986ad043bb459d7acc'),
        ('trace_high', 'flow_scalar', '07287736eea28d4e69aa7d748f2f0bddc1894e0e5ea64c986ad043bb459d7acc'),
        ('trace_high', 'alpha_protection', '07287736eea28d4e69aa7d748f2f0bddc1894e0e5ea64c986ad043bb459d7acc'),
        ('trace_high', 'mc', '07287736eea28d4e69aa7d748f2f0bddc1894e0e5ea64c986ad043bb459d7acc'),
        ('trace_high', 'amin', '07287736eea28d4e69aa7d748f2f0bddc1894e0e5ea64c986ad043bb459d7acc'),
        ('trace_low', None, '1118c0ee78177c2679516eceac88b86fffe630d9a12daa3749e4aae693c0893b'),
        ('trace_low', 'flow_scalar', '1118c0ee78177c2679516eceac88b86fffe630d9a12daa3749e4aae693c0893b'),
        ('trace_low', 'alpha_protection', '1118c0ee78177c2679516eceac88b86fffe630d9a12daa3749e4aae693c0893b'),
        ('trace_low', 'mc', '1118c0ee78177c2679516eceac88b86fffe630d9a12daa3749e4aae693c0893b'),
        ('trace_low', 'amin', '1118c0ee78177c2679516eceac88b86fffe630d9a12daa3749e4aae693c0893b'),
    ]

    GRIDS = {
        "flow_scalar": [1, "3/2", 2.5, 3],
        "flow_per_class": [[0, 0], [1, 1], [2, 1]],
        "alpha_protection": ["99/100", 0.5, 0],
        "amin": [1000, 1, 3],
    }
    # (policy, objective, sha256 of search.json, sha256 of search.csv)
    SEARCH = [
        ('flow_scalar', 'avg_latency', '2b85433f4d9a6ff2e826a2f8da28e0967c7a68cd4d412eb03bd375f245efb72c', 'afc3d8332a716f67237a490c6f483e6ee110d7bf782242475d5afbc1877d90dd'),
        ('flow_scalar', 'request_throughput', '3591502bdf1530d322c1c6b559316af52f0ee0953c277794dc27e9b9f9354356', '428851b9a44e69c806272e71c53800f1530b7382afabe8fce6f1784bd51d25d2'),
        ('flow_per_class', 'avg_latency', '8d1b844aa8966e4edd640948335671cb2ac0d735511cfe66df65d06383e11b1b', '8930e6f6c8a57c7951e85abd4fda76e1098c903096976c08036908ce81c505c7'),
        ('flow_per_class', 'request_throughput', 'f3955cadbdd7f4a77e08d044e57cd1a7b38301ee536d0ac859f342f392aef5ea', 'faf6a57214890d12871ee7893d46dddbc3938b6fd70c0f4fa0244e11b7cf643b'),
        ('alpha_protection', 'avg_latency', 'b8783452dce0b9c1ae023716ec78cef3b791ad281fa6d1fd09febbd60ba4e02b', '592f4658dbd7cb3bf2df4f6729d90018af8bf25543ec4d78f75b3e685e79d881'),
        ('alpha_protection', 'request_throughput', 'a2b9e7e5a5b510fe87c418512215e9fced9ce008e594f120490734e03a1211e4', 'c81445535df8d1946477869a6858e4c08f03ee98431a4cf690d283336546af84'),
        ('amin', 'avg_latency', 'caccc5c0285a50922fe6b72649d7fc4e25d3183bc18ba376db370c2b4eebd546', '8c30964fca27d2681eecaf9d8d74a6c95a2bd4b5110da38ef0953221dc49a79c'),
        ('amin', 'request_throughput', '461a7253f96f36fc0707d0c7511ebb9fdeea7c9fa38138c98c7d5caa0a3e7739', '094d6f6085de8106ada645bf415c1968c678443d30e88384f5b7d8dfa577b9fa'),
    ]

    @pytest.mark.parametrize("config, policy, digest", STABILITY)
    def test_stability_json(self, tmp_path, capsys, config, policy, digest):
        doc = json.loads((self.CONFIG_DIR / f"{config}.json").read_text(encoding="utf-8"))
        blocks = doc.pop("policies", None) or [doc.pop("policy")]
        if policy is not None:
            doc["policy"] = next(b for b in blocks if b["name"] == policy)
        out = tmp_path / "out"
        assert cli.main(["stability", "-c", write_config(tmp_path, doc), "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256((out / "stability.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("policy, objective, json_digest, csv_digest", SEARCH)
    def test_search_json(self, tmp_path, capsys, monkeypatch, policy, objective, json_digest, csv_digest):
        doc = {
            "workload": {
                "kind": "synthetic",
                "horizon": 60,
                "classes": [
                    {"prompt_len": 2, "decode_len": 3, "rate": "1/2"},
                    {"prompt_len": 1, "decode_len": 2, "rate": "1/2"},
                ],
            },
            "kv_capacity": 30,
            "policy": {"name": policy, "params": {}},
            "seeds": [0, 1],
            "search": {"objective": objective, "grid": self.GRIDS[policy]},
        }
        monkeypatch.chdir(tmp_path)  # search.json names its table by this relative path
        assert cli.main(["budget-search", "-c", write_config(tmp_path, doc), "--out", "out"]) == cli.EXIT_OK
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "out" / "search.json").read_bytes()).hexdigest() == json_digest
        assert hashlib.sha256((tmp_path / "out" / "search.csv").read_bytes()).hexdigest() == csv_digest


class TestOracle:
    def instance_config(self):
        return {
            "instance": {
                "requests": [
                    {"id": 1, "prompt_len": 1, "decode_len": 10, "arrival_slot": 1},
                    {"id": 2, "prompt_len": 1, "decode_len": 2, "arrival_slot": 1},
                    {"id": 3, "prompt_len": 1, "decode_len": 2, "arrival_slot": 1},
                ],
                "kv_capacity": 11,
                "horizon": 10,
                "objective": "token_throughput",
            }
        }

    def test_solves_and_writes(self, tmp_path, capsys):
        doc = self.instance_config()
        out = tmp_path / "out"
        assert cli.main(["oracle", "-c", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        inst = oracle.OfflineInstance.from_dict(doc["instance"])
        want = oracle.solve(inst)
        assert summary["solution"]["value"] == "7/5"
        assert summary["solution"] == want.as_dict()
        assert json.loads((out / "oracle.json").read_text()) == summary

    def test_malformed_instance(self, tmp_path, capsys):
        doc = self.instance_config()
        del doc["instance"]["requests"][0]["decode_len"]
        assert cli.main(["oracle", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "'instance'" in capsys.readouterr().err

    def test_missing_instance(self, tmp_path, capsys):
        assert cli.main(["oracle", "-c", write_config(tmp_path, {})]) == cli.EXIT_CONFIG
        assert "'instance'" in capsys.readouterr().err

    def test_infeasible_instance(self, tmp_path, capsys):
        doc = self.instance_config()
        doc["instance"]["requests"][0]["prompt_len"] = 99
        doc["instance"]["kv_capacity"] = 20
        assert cli.main(["oracle", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        assert "'instance'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("requests", 0, "prompt_len"), 2.5),
            (("requests", 0, "prompt_len"), True),
            (("requests", 0, "prompt_len"), "3"),
            (("requests", 1, "arrival_slot"), 1.0),
            (("requests", 2, "id"), "3"),
            (("kv_capacity",), 10.5),
            (("horizon",), 10.0),
        ],
    )
    def test_non_integer_field_is_refused_before_search(self, tmp_path, capsys, monkeypatch, path, value):
        doc = self.instance_config()
        *parents, name = path
        target = doc["instance"]
        for key in parents:
            target = target[key]
        target[name] = value
        searches = []
        monkeypatch.setattr(oracle._Search, "run", lambda self: searches.append(self))
        assert cli.main(["oracle", "-c", write_config(tmp_path, doc)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "field 'instance'" in err and name in err and repr(value) in err
        assert not searches


class TestIngest:
    def write_trace(self, tmp_path, lines, name="trace.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_normalizes_and_summarizes(self, tmp_path, capsys):
        lines = [
            json.dumps({"id": i, "prompt_tokens": 3 + i, "output_tokens": 5})
            for i in range(10)
        ]
        lines.insert(3, "not json at all")
        lines.insert(7, json.dumps({"prompt_tokens": 0, "output_tokens": 4}))
        trace = self.write_trace(tmp_path, lines)
        out = tmp_path / "out"
        assert cli.main(["ingest", trace, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 10
        assert summary["malformed"] == 1
        assert summary["dropped_zero"] == 1
        kept = [json.loads(l) for l in (out / "ingested.jsonl").read_text().splitlines()]
        assert len(kept) == 10
        assert all(set(r) == {"id", "prompt_tokens", "output_tokens"} for r in kept)
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_raw_pairs_format(self, tmp_path, capsys):
        lines = [json.dumps({"prompt": "a b c", "response": "x y"})]
        trace = self.write_trace(tmp_path, lines)
        out = tmp_path / "out"
        assert cli.main(["ingest", trace, "--trace-format", "raw_pairs", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 1
        kept = json.loads((out / "ingested.jsonl").read_text())
        assert kept["prompt_tokens"] == 3
        assert kept["output_tokens"] == 2

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code = cli.main(["ingest", str(tmp_path / "absent.jsonl")])
        assert code == cli.EXIT_RUNTIME
        assert "error" in capsys.readouterr().err

    def test_csv_summary(self, tmp_path, capsys):
        trace = self.write_trace(
            tmp_path, [json.dumps({"prompt_tokens": 2, "output_tokens": 3})]
        )
        out = tmp_path / "out"
        assert cli.main(["ingest", trace, "--out", str(out), "--format", "csv"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["records"] == "1"
        assert (out / "summary.csv").exists()


class TestParserShape:
    def test_subcommands_exist(self):
        parser = cli.build_parser()
        text = parser.format_help()
        for name in ("run", "compare", "stability", "budget-search", "oracle", "ingest"):
            assert name in text

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["replay"])
        assert exc.value.code == 2
