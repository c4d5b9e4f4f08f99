"""``run.py --smoke`` emits exactly the metrics ``BENCHMARK.json`` names, and the workloads separate the layers."""

from __future__ import annotations

import os
import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][-1].startswith("bench/")
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer") for entry in spec[section]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_emits_every_named_metric_and_no_other(smoke, spec):
    assert list(smoke["workloads"]) == [w["name"] for w in spec["workloads"]]
    for record in smoke["workloads"].values():
        assert set(record["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(record["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert all(value["value"] > 0 for value in record["end_to_end"].values()), "end-to-end metrics are never 0"
        assert record["failed"] == 0 and record["attempted"] > 0


def test_static_rows_agree_and_only_resident_touches_the_wire(smoke):
    fast, resident = smoke["workloads"]["static-cc-fast"], smoke["workloads"]["static-cc-resident"]
    assert fast["stats"] == resident["stats"] and fast["solution_sha256"] == resident["solution_sha256"]
    counts = [
        name
        for name, entry in fast["per_layer"].items()
        if name.startswith(("runtime.session.", "runtime.wire.")) and entry["unit"] in ("count", "bytes")
    ]
    assert len(counts) >= 7 and all(fast["per_layer"][name]["value"] == 0 for name in counts)
    layers = resident["per_layer"]
    assert layers["runtime.session.fused_rounds"]["value"] > 0
    assert layers["runtime.session.block_calls"]["value"] > 0
    assert layers["runtime.wire.pipe_fallbacks"]["value"] == 0
    # a second slot, and with it cross-slot traffic, only where every worker and the driver have a core
    assert (layers["runtime.wire.cross_slot_messages"]["value"] > 0) == ((os.cpu_count() or 1) >= 3)


def test_workloads_separate_the_layers(smoke):
    layers = {name: record["per_layer"] for name, record in smoke["workloads"].items()}
    for name, metrics in layers.items():
        cancelled = metrics["graph.coalesce_cancelled_share"]["value"]
        assert (cancelled > 0) == (name == "cc-batch-churn")
    assert layers["mm-stream"]["mpc.coordinator.calls"]["value"] > 0
    assert layers["cc-stream"]["mpc.coordinator.calls"]["value"] == 0
    assert layers["cc-stream"]["dynamic_mpc.self_share"]["value"] > layers["mm-stream"]["dynamic_mpc.self_share"]["value"]
    assert layers["cc-stream"]["eulertour.calls"]["value"] > 0 and layers["cc-stream"]["eulertour.loop_self_s"]["value"] == 0
