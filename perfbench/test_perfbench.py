"""Smoke-size self-test of the benchmark.

Run from the repository root with ``python -m pytest perfbench -q``.
Each workload runs at tiny size in a temporary copy of the benchmark (so
its digest files stay out of the checkout); the metric names it prints
must be exactly those ``BENCHMARK.json`` declares, and a wrong estimate
must be counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import DigestBook, Reference
from workloads import Measurement, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _copy_benchmark(target: Path, with_src: bool) -> None:
    shutil.copytree(HERE, target / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_src:
        (target / "src").symlink_to(ROOT / "src", target_is_directory=True)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics(tmp_path, workload, trace):
    _copy_benchmark(tmp_path, with_src=True)
    done = _run(tmp_path, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_bare_directory_fails_without_result(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    done = _run(tmp_path, "cold_family", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


class _Result:
    def __init__(self, estimate, stderr=0.01):
        self.estimate = estimate
        self.stderr = stderr


def test_wrong_estimate_counts_as_failed():
    workload = Workload(seed=0, smoke=True, book=DigestBook(0))
    exact = Reference(exact=0.5 + 0j, shots_re=1000, shots_im=1000)
    m = Measurement()
    workload.check(m, "right", _Result(0.51 + 0.01j), exact)
    assert m.failed == 0
    workload.check(m, "wrong", _Result(0.9 + 0j), exact)
    workload.check(m, "noisy", _Result(float("nan")), Reference())
    workload.check(m, "outside", _Result(1.5), Reference())
    assert m.failed == 3


def test_changed_bits_count_as_failed():
    workload = Workload(seed=0, smoke=True, book=DigestBook(0))
    m = Measurement()
    workload.check(m, "op", _Result(0.5), Reference())
    workload.check(m, "op", _Result(0.5), Reference())
    assert m.failed == 0
    workload.check(m, "op", _Result(0.5000000000000001), Reference())
    assert m.failed == 1
