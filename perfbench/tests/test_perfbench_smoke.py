"""Toy-size run of the benchmark: generator, one plain and one traced
operation per workload, output checks and metric assembly."""

import dataclasses
import filecmp
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import gen  # noqa: E402
import harness  # noqa: E402

TOY = {
    "merge-fft": {"d": 16},
    "merge-lora": {"d": 16, "lora_rank": 2},
    "merge-fft-t8-ties": {"d": 16},
    "analyze": {"d": 16, "opt_dim": 8, "opt_iters": 2},
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(harness.WORKLOADS)
    assert set(TOY) == set(harness.WORKLOADS)


def test_generator_is_byte_identical_per_seed(tmp_path):
    paths = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        paths.append(gen.write_merge_set(str(out), 5, "fft", 2, 1, 8))
    (base_a, tasks_a), (base_b, tasks_b) = paths
    for a, b in zip([base_a, *tasks_a], [base_b, *tasks_b]):
        assert filecmp.cmp(a, b, shallow=False)


@pytest.mark.parametrize("name", list(TOY))
def test_toy_run_checks_outputs_and_reports_every_metric(name):
    spec = _spec()
    wl = dataclasses.replace(harness.WORKLOADS[name], **TOY[name])
    result, info = harness.measure(ROOT, spec, name, seed=3, seconds=0, trace=True,
                                   wl=wl, min_help_launches=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    layers = harness.tracer.layer_stats([])
    assert {m["name"] for m in spec["per_layer"]} - set(layers) == {"trace.overhead_s"}
    assert set(info["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in info["end_to_end"].values())
    assert result["metrics"]["cli.command.busy_s"]["value"] > 0
    leftovers = os.listdir(os.path.join(ROOT, ".perfbench_work"))
    assert not [d for d in leftovers if d.endswith(f"-p{os.getpid()}")]
