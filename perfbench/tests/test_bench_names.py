"""Metric names and units agree between the code and BENCHMARK.json and follow its rules."""

import json
import re
from pathlib import Path

import layers
import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_name_and_unit_is_well_formed():
    for table in (spec.END_TO_END, spec.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert not set(spec.END_TO_END) & set(spec.PER_LAYER)


def test_benchmark_json_lists_the_same_metrics():
    doc = benchmark_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spec.PER_LAYER
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_benchmark_json_lists_every_workload():
    import workloads

    names = [w["name"] for w in benchmark_json()["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)


def test_traced_run_produces_every_per_layer_metric():
    produced = set(layers.layer_values(layers.Recorder(), 1))
    produced |= {f"model.forward_us.{v}" for v in spec.VARIANTS}
    produced |= {"trace.overhead_ratio", "trace.self_share"}
    assert produced == set(spec.PER_LAYER)
    assert set(spec.COUNTS) <= produced
