"""The benchmark's output and BENCHMARK.json agree with the driver's contract."""

import json
import re

from e2ebench.deploy import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 15) <= 3420 + runs * 5


def test_names_units_and_bounds(spec):
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workload_table_matches(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_result_line_is_last_and_complete(spec, quick_outputs):
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        stdout = quick_outputs[trace]
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert isinstance(last["attempted"], int) and last["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in spec[declared]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == units
        for value in last["metrics"].values():
            assert isinstance(value["value"], (int, float))


def test_every_metric_is_printed_by_name_with_unit(spec, quick_outputs):
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        text = quick_outputs[trace]
        for workload in spec["workloads"]:
            assert f"# {workload['name']} " in text
        for metric in spec[declared]:
            assert re.search(
                rf"^{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                text,
                re.MULTILINE,
            ), metric["name"]
    assert "host.noise_frac" in quick_outputs["0"]
    assert "host.steal_frac" in quick_outputs["0"]


def test_end_to_end_metrics_are_never_zero(quick_outputs):
    last = json.loads(quick_outputs["0"].strip().splitlines()[-1])
    assert all(m["value"] > 0 for m in last["metrics"].values())
