"""Tests of the benchmark itself; run with `python3 -m pytest perfbench` from the repository root."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_a_unit(name, trace):
    result, env = workloads.run(name, seed=3, seconds=0, trace=bool(trace), tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert UNIT.fullmatch(printed["unit"]) and printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert env["workers"] == workloads.MAKERS[name](3).workers
    json.dumps(result, allow_nan=False)


def test_corrupted_reference_value_is_a_failure():
    workload = workloads.MAKERS["sweep-recurrence-n7"](workloads.DEFAULT_SEED)
    reference = workloads.load_reference(workload, workloads.DEFAULT_SEED, tiny=False)
    (h0, _), (j0, _) = workload.blocks[0]
    key = f"kappa_j[{h0},{j0}]"
    reference[key] *= 1.001
    result, _ = workloads.run(workload.name, workloads.DEFAULT_SEED, seconds=0, trace=False, reference=reference)
    assert not result["correct"]
    assert result["failed"] == 1  # only the corrupted cell; every other cell matches the recorded value


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    stats = tracer.layer_stats()
    assert stats["inner"]["calls"] == 2 and stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["total_s"] - stats["inner"]["total_s"])
    assert 0.009 < stats["outer"]["self_s"] < 0.03


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = SPEC["command"] + ["--workload", workloads.WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
