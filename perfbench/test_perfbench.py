"""Self-tests of the benchmark, at the smoke sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PROBE_LAYER, WRAPS  # noqa: E402


def test_wrong_digest_counts_as_failed():
    good = run.run_workload(ROOT, "diagonals", 7, 0, trace=False, smoke=True)
    assert (good["correct"], good["attempted"], good["failed"]) == (True, 1, 0)
    bad = run.run_workload(ROOT, "diagonals", 7, 0, trace=False, smoke=True,
                           expected="0" * 64)
    assert (bad["correct"], bad["attempted"], bad["failed"]) == (False, 1, 1)


@pytest.mark.parametrize("seed", [1, 2])
def test_counter_digest_holds_for_any_seed(seed):
    res = run.run_workload(ROOT, "counter", seed, 0, trace=False, smoke=True)
    assert res["failed"] == 0


def test_smoke_prints_every_metric_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = set(proc.stdout.split("\n"))
    for w in bench["workloads"]:
        assert f"== {w['name']} (smoke: not a measurement)" in lines
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert f"   {m['name']} {m['unit']}" in lines


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_times_account_for_traced_time(workload):
    res = run.run_workload(ROOT, workload, 7, 0, trace=True, smoke=True)
    assert res["failed"] == 0
    m = {k: v["value"] for k, v in res["metrics"].items()}
    layers = {layer for _owner, _attr, layer in WRAPS} | {PROBE_LAYER}
    total = sum(m[k] for k in layers) + m["trace.remainder_s"]
    assert total == pytest.approx(m["trace.traced_s"], rel=1e-9)
    assert m["engine.step_s"] > 0 and m["engine.sites"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
