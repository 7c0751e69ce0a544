"""Smoke test of the bench ladder.

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/ladder/test_ladder_smoke.py``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_ladder(root, *options):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "ladder", "run.py"),
         *options], cwd=root, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_workload_emits_every_declared_metric_quickly():
    benchmark = load_benchmark()
    started = time.perf_counter()
    sets = {
        "end_to_end": last_json(run_ladder(ROOT, "--scale", "0.01",
                                           "--launches", "1")),
        "per_layer": last_json(run_ladder(ROOT, "--scale", "0.01",
                                          "--trace", "1")),
    }
    elapsed = time.perf_counter() - started
    for kind, results in sets.items():
        declared = {m["name"]: m["unit"] for m in benchmark[kind]}
        assert set(results) == {w["name"] for w in benchmark["workloads"]}
        for name, result in results.items():
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, name
            assert result["correct"] is True, name
            assert result["failed"] == 0 and result["attempted"] >= 1, name
            units = {metric: entry["unit"]
                     for metric, entry in result["metrics"].items()}
            assert units == declared, name
    for result in sets["end_to_end"].values():
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
    assert elapsed < 10.0, "smoke ladder took %.1f s" % elapsed


def test_single_workload_prints_the_contract_object():
    result = last_json(run_ladder(ROOT, "--workload", "chain_repeat",
                                  "--seed", "5", "--seconds", "1",
                                  "--scale", "0.05", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m
                                      in load_benchmark()["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_ladder(str(tmp_path), "--workload", "chain_distinct",
                      "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
