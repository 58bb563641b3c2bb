"""BENCHMARK.json and run.py name the same workloads and metrics."""
import json

import run
from workloads import WORKLOADS


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    t = run.tail([float(i) for i in range(1, 21)])
    assert t == {"percentile": 50, "value": 10.0, "samples": 20}
