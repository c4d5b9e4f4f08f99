"""The environment-variable surface of ``src/repro``: one backend switch, one oracle switch."""

from __future__ import annotations

import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def test_src_names_only_the_backend_and_contract_switches():
    found = {name for path in PACKAGE.rglob("*.py") for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    assert found == {"REPRO_BACKEND", "REPRO_CHECK_CONTRACTS"}
