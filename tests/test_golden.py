"""The benchmark's output gate in the test suite: every workload of
``BENCHMARK.json`` runs once on the golden seed through perfbench's runner,
and its outputs must match ``perfbench/golden/seed42.json`` (CSVs byte for
byte).  perfbench is only imported, never changed."""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  perfbench/run.py
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((ROOT / "perfbench" / "golden" / "seed42.json").read_text())


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_golden_round_passes(name, tmp_path):
    runner = run.Runner(run.load_cli(), WORKLOADS[name], tmp_path, GOLDEN[name])
    runner.round(GOLDEN_SEED)
    assert runner.problems == []
    assert (runner.attempted, runner.failed) == (len(WORKLOADS[name].commands), 0)
