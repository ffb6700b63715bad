"""Smoke tests of the benchmark at tiny sizes.

Each workload runs once at its smoke size (grow to n = 32, a 20-event
churn script, analyze at n = 13).  The tests check that every metric
``BENCHMARK.json`` declares is emitted with its unit, that every golden gate
trips on a deliberately corrupted output, and that the benchmark refuses to
run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grow-sweep", "simulate-churn", "analyze-exact")


def bench(workload, trace, *extra, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--size", "smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(workload, trace, kind):
    rc, result = bench(workload, trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_gate_trips_on_corrupted_output(workload):
    rc, result = bench(workload, 0, "--corrupt")
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, result = bench("grow-sweep", 0, root=str(tmp_path))
    assert rc != 0 and result is None
