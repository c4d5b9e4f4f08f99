"""The driver's contract: one JSON object last, non-zero exit on a wrong solution or a missing library."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=120)


def test_traced_run_prints_every_per_layer_metric(spec):
    done = _run("--workload", "static-cc-fast", "--seed", "4", "--seconds", "0", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_injected_corruption_fails_the_run(spec):
    done = _run("--workload", "mm-stream", "--seed", "4", "--seconds", "0", "--trace", "0", "--smoke", "--inject-fault")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_without_the_library_there_is_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "cc-stream", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout.strip() == ""
