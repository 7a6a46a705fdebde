"""Tests of the benchmark itself (not part of the package's suite).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from twistedcubic import bulk, gfq, pg3  # noqa: E402


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in bench["per_layer"])
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("spec", [{"kind": "verify", "qs": [5]},
                                  {"kind": "queries", "qs": [5]}])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(spec, trace):
    result = run.run_workload("smoke", spec, seed=3, seconds=0.5, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spans.PER_LAYER if trace else list(run.END_TO_END)
    assert list(result["metrics"]) == list(want)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"layer.{layer}_s"] for layer in spans.LAYERS)
        assert layers + m["trace.untraced_s"] == pytest.approx(m["trace.wall_s"])
        assert m["trace.spans"] > 0 and m["trace.overhead_ratio"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_digest_fails(tmp_path):
    res = worker.run_verify([5], 0.0, str(tmp_path), {"5": "0" * 64})
    assert res["attempted"] == 1 and res["failed"] == 1
    assert "digest mismatch" in res["errors"][0]


def test_seed_digest_passes(tmp_path):
    res = worker.run_verify([5], 0.0, str(tmp_path), worker.load_digests())
    assert res["failed"] == 0


def test_corrupted_stabilizer_fails(monkeypatch):
    real = bulk.Engine.stabilizer_abcd
    monkeypatch.setattr(bulk.Engine, "stabilizer_abcd",
                        lambda self, line: real(self, line)[:-1])
    res = worker.run_queries(5, seed=1, seconds=0.2)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]


def test_wrapping_keeps_results(tmp_path):
    original = bulk.Engine.orbit_sweep
    recorder = spans.Recorder("test")
    recorder.install()
    try:
        res = worker.run_verify([5], 0.0, str(tmp_path), worker.load_digests())
        queries = worker.run_queries(5, seed=2, seconds=0.2)
    finally:
        recorder.uninstall()
    assert res["failed"] == 0 and queries["failed"] == 0
    assert bulk.Engine.orbit_sweep is original
    m = recorder.metrics(1.0)
    assert m["bulk.lines_classified"] == pg3.line_count(5)
    assert m["bulk.sweep_keys_generated"] == (5**3 - 5) * m["bulk.orbit_sweep.calls"]


def test_drawn_lines_are_seeded_valid_and_uniform():
    field = gfq.make_field(2)
    lines = worker.draw_lines(field, seed=7, count=35 * 400)
    assert lines[:50] == worker.draw_lines(field, seed=7, count=50)
    assert lines[:50] != worker.draw_lines(field, seed=8, count=50)
    counts = Counter(lines)
    assert len(counts) == pg3.line_count(2)
    for plucker in counts:
        assert pg3.line_from_plucker(field, plucker).plucker == plucker
    assert min(counts.values()) > 300 and max(counts.values()) < 500


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)["layer_map"]
    mapped = {m for entry in layer_map for m in entry["metrics"]}
    mapped |= {f"bulk.orbit_partition_s.{cls}" for cls in spans.PARTITION_CLASSES}
    mapped |= {f"census.check_s.{check}" for check in spans.CHECKS.values()}
    overall = [m for m in spans.PER_LAYER if m.split(".")[0] in ("layer", "trace")]
    assert mapped - {"bulk.orbit_partition_s.<class>", "census.check_s.<check>"} == (
        set(spans.PER_LAYER) - set(overall))


def test_missing_entry_point_fails_the_trace():
    recorder = spans.Recorder("test")
    with pytest.raises(AttributeError, match="renamed_away"):
        recorder.wrap(bulk.Engine, "renamed_away", "bulk.renamed_away")


def test_overhead_compares_the_same_operations():
    traced = {"latencies_s": [2.0, 2.0]}
    untraced = {"latencies_s": [1.0, 1.0, 0.5, 0.5]}
    assert run._overhead(traced, untraced) == 2.0


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
