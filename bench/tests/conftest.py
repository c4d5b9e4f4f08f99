"""Shared set-up for the benchmark's self-tests: make ``bench`` importable, run the smoke once."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))


@pytest.fixture(scope="session")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def smoke(tmp_path_factory) -> dict:
    """The record of one ``run.py --smoke``: tiny inputs, all five workloads, untraced + traced."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "11", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text())
