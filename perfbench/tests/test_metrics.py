"""BENCHMARK.json and the metrics a traced run prints stay in step."""

import json
from pathlib import Path

import pimsner_lab
from layers import layer_metrics
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    printed = layer_metrics(Tracer(), pimsner_lab, ROOT / "src", 0.0, 0.0, 0)
    assert [m["name"] for m in declared] == list(printed)
    assert [m["unit"] for m in declared] == [unit for _, unit in printed.values()]
