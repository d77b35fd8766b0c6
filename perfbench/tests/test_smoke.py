"""Smoke test of the block-replay benchmark on tiny blocks.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import replay  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    name: dataclasses.replace(w, n_txns=40) for name, w in replay.WORKLOADS.items()
}
EXACT_COUNTS = ("conflict.table_entries", "binning.num_bins", "binning.max_bin_size")


def run_main(capsys, tmp_path, workload, trace, seed=7):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)]
    assert replay.main(argv, workloads=TINY, out_dir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(replay.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_printed_with_units(capsys, tmp_path, workload):
    lines, result = run_main(capsys, tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= len(replay.CONFIGS)
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines)


def test_per_layer_metrics_and_spans_written(capsys, tmp_path):
    lines, result = run_main(capsys, tmp_path, "faulty", trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"# {name} ") and line.endswith(f" {unit}") for line in lines)
    spans = json.loads((tmp_path / "faulty-seed7-trace1-spans.json").read_text())
    names = {s["name"] for s in spans}
    assert {"block", "workload.generate", "conflict.index_build", "conflict.lower_conflicts",
            "executor.serial", "scheduler.schedule", "executor.plan_build", "executor.execute",
            "check.block", *replay.CONFIGS} <= names
    for span in spans:
        assert span["start"] <= span["end"]
        assert span["parent"] is None or spans[span["parent"]]["block"] == span["block"]
    record = json.loads((tmp_path / "faulty-seed7-trace1.json").read_text())
    assert set(record["traffic_block0"]) == {"cp1", "cp2", "table_entries", "num_bins", "max_bin_size"}
    assert record["environment"]["threads"] == replay.THREADS


def test_exact_counts_repeat_for_a_seed(capsys, tmp_path):
    runs = [run_main(capsys, tmp_path, "hot", trace=1, seed=3)[1]["metrics"] for _ in range(2)]
    for name in EXACT_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"]
    assert runs[0]["binning.num_bins"]["value"] > 1


def test_crash_point_rotates_by_block():
    points = [replay.WORKLOADS["hot"].fault_plan("lockfree_crash", b).crash_point for b in range(8)]
    assert points == list(replay.CRASH_POINTS) * 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert replay.tail_pct(100) == 90
    assert replay.tail_pct(60) == 80
    assert replay.tail_pct(19) == 50
    for count in (20, 40, 50, 75, 100, 200, 1000):
        pct = replay.tail_pct(count)
        assert count - (pct * count + 99) // 100 >= replay.TAIL_MIN_BEYOND


def test_host_speed_rescales_cpu_and_keeps_sleeps():
    ref = replay.CALIB_REF_MS
    # 30 ms of CPU and 40 ms of sleep, on a host that runs at half speed
    assert replay.HostSpeed(2 * ref, 2 * ref).adjust(100.0, 60.0) == pytest.approx(70.0)
    # the same span on a host that steals half the CPU time
    assert replay.HostSpeed(2 * ref, ref).adjust(100.0, 30.0) == pytest.approx(70.0)
    assert replay.HostSpeed(ref, ref).adjust(100.0, 30.0) == pytest.approx(100.0)
