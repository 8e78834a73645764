"""Smoke test of the benchmark: a tiny configuration of every workload
reports every metric named in BENCHMARK.json, with its unit.

No timing is bounded, so a slow or noisy host cannot make it fail.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    _, result = run.measure(workload, seed=3, seconds=0.0, trace=trace, limit=4, setup_launches=1)
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert result["correct"]
    assert result["attempted"] >= 4
