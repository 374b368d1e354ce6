"""Shipped preset configs (configs/*.json): what each encodes, and that it loads."""

import argparse
from pathlib import Path

import pytest

from kvflow import cli
from kvflow.workload import builtin_trace_path, resolve_trace_path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _args(**kw):
    ns = argparse.Namespace(seed=None, out=None, jobs=1, format="json")
    for k, v in kw.items():
        setattr(ns, k, v)
    return ns


class TestPresetFiles:
    def test_builtin_trace_resolves(self):
        path = builtin_trace_path("trace_1k")
        assert path.exists()
        assert resolve_trace_path("builtin:trace_1k") == str(path)
        assert resolve_trace_path("/tmp/x.jsonl") == "/tmp/x.jsonl"
        with pytest.raises(ValueError, match="unknown builtin trace"):
            builtin_trace_path("missing")


class TestPresetContents:
    @pytest.mark.parametrize("name", ("synthetic_known", "synthetic_unknown"))
    def test_single_policy_presets_load(self, name):
        cfg = cli.load_experiment(str(CONFIG_DIR / f"{name}.json"), _args(), mode="single")
        assert cfg.kv_capacity == 16492
        assert cfg.spec.horizon == 10000
        assert len(cfg.spec.classes) == 3
        assert cfg.seeds == [0]

    def test_known_preset_is_budgeted_under_capacity(self):
        cfg = cli.load_experiment(
            str(CONFIG_DIR / "synthetic_known.json"), _args(), mode="single"
        )
        name, params = cfg.policies[0]
        assert name == "flow_per_class"
        total = sum(
            b * c.lifetime_tokens for b, c in zip(params["budgets"], cfg.spec.classes)
        )
        assert total == 16240 < cfg.kv_capacity

    def test_unknown_preset_hides_outputs(self):
        cfg = cli.load_experiment(
            str(CONFIG_DIR / "synthetic_unknown.json"), _args(), mode="single"
        )
        assert cfg.spec.outputs_known is False
        assert cfg.policies[0][0] == "flow_scalar"

    def test_overloaded_preset_exceeds_capacity(self):
        cfg = cli.load_experiment(
            str(CONFIG_DIR / "synthetic_overloaded.json"), _args(), mode="multi"
        )
        load = sum(c.rate * c.lifetime_tokens for c in cfg.spec.classes)
        assert load == 20300 > cfg.kv_capacity
        assert [n for n, _ in cfg.policies] == [
            "flow_per_class",
            "flow_scalar",
            "alpha_protection",
            "mc",
            "mc_sf",
            "amin",
        ]

    @pytest.mark.parametrize("name,rate", (("trace_low", 10), ("trace_high", 50)))
    def test_trace_presets_load_the_bundled_sample(self, name, rate):
        cfg = cli.load_experiment(str(CONFIG_DIR / f"{name}.json"), _args(), mode="multi")
        assert cfg.spec.kind == "trace"
        assert cfg.spec.rate == rate
        assert len(cfg.spec.records) == 1000
        assert cfg.spec.outputs_known is False
        assert [n for n, _ in cfg.policies] == [
            "flow_scalar",
            "alpha_protection",
            "mc",
            "mc_sf",
            "amin",
        ]

    def test_trace_rates_straddle_capacity(self):
        low = cli.load_experiment(str(CONFIG_DIR / "trace_low.json"), _args(), mode="multi")
        mean_w = low.spec.length_distribution().mean_workload()
        assert 10 * mean_w < 16492 < 50 * mean_w
