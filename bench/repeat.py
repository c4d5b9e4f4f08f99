"""One repeat of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this file once per (workload, repeat) so that peak memory,
import cost and worker processes of one repeat cannot leak into the next.
Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

_ROOT = Path(__file__).resolve().parent.parent
if sys.path[0] == str(_ROOT / "bench"):
    # started as a script: the script directory would shadow the stdlib `trace`; the package root and `src` go there instead
    sys.path[0:1] = [str(_ROOT), str(_ROOT / "src")]

from bench.stats import canary_ms, percentile, percentile_or_none, proc_stat_fields  # noqa: E402

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds ``pid`` has consumed, from ``/proc/<pid>/stat``."""
    fields = proc_stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK if fields else 0.0


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _worker_pids() -> list[int]:
    import multiprocessing

    return [child.pid for child in multiprocessing.active_children() if child.pid is not None]


def _span_metrics(tracer, outcome) -> dict[str, float]:
    """Per-layer numbers read from the spans of the traced loop (root ``op``) and of set-up."""
    from bench import kernels

    op_s = tracer.root_s("op")

    def share(seconds: float) -> float:
        return seconds / op_s if op_s else 0.0

    algorithm_self = tracer.self_s("op", "op", "dynamic_mpc", "static_mpc.load", "static_mpc.run")
    sends = tracer.calls("op", "mpc.machine.send")
    trips = outcome.counters["runtime.session.driver_round_trips"]
    block_s = tracer.self_s("op", "runtime.session.block")
    metrics = {
        "graph.coalesce_calls": tracer.calls("op", "graph.coalesce"),
        "graph.coalesce_self_s": tracer.self_s("op", "graph.coalesce"),
        "dynamic_mpc.preprocess_s": tracer.total_s("setup", "dynamic_mpc.preprocess"),
        "dynamic_mpc.self_s": tracer.self_s("op", "dynamic_mpc"),
        "dynamic_mpc.self_share": share(tracer.self_s("op", "dynamic_mpc")),
        "eulertour.calls": tracer.calls("setup", "eulertour") + tracer.calls("op", "eulertour"),
        "eulertour.self_s": tracer.self_s("setup", "eulertour") + tracer.self_s("op", "eulertour"),
        "eulertour.loop_self_s": tracer.self_s("op", "eulertour"),
        "mpc.machine.send_calls": tracer.calls("op", "mpc.machine.send"),
        "mpc.machine.send_self_s": tracer.self_s("op", "mpc.machine.send"),
        "mpc.machine.unsized_send_share": tracer.count("op", "unsized_sends") / sends if sends else 0.0,
        "mpc.machine.load_calls": tracer.calls("op", "runtime.storage.load"),
        "mpc.machine.state_self_s": tracer.self_s("op", "mpc.machine.state"),
        "mpc.cluster.exchange_calls": tracer.calls("op", "runtime.transport.exchange"),
        "mpc.cluster.superstep_calls": tracer.calls("op", "mpc.cluster.superstep"),
        "mpc.cluster.superstep_s": tracer.total_s("op", "mpc.cluster.superstep"),
        "mpc.coordinator.calls": tracer.calls("op", "mpc.coordinator"),
        "mpc.coordinator.self_s": tracer.self_s("op", "mpc.coordinator"),
        "mpc.coordinator.self_share": share(tracer.self_s("op", "mpc.coordinator")),
        "mpc.layout.calls": tracer.calls("op", "mpc.layout"),
        "mpc.layout.self_s": tracer.self_s("op", "mpc.layout"),
        "mpc.metrics.calls": tracer.calls("op", "mpc.metrics"),
        "mpc.metrics.self_s": tracer.self_s("op", "mpc.metrics"),
        "runtime.transport.exchange_self_s": tracer.self_s("op", "runtime.transport.exchange"),
        "runtime.storage.calls": tracer.calls("op", "runtime.storage"),
        "runtime.storage.self_s": tracer.self_s("op", "runtime.storage"),
        "runtime.session.open_s": tracer.total_s("op", "runtime.session.open"),
        "runtime.session.close_s": tracer.total_s("op", "runtime.session.close"),
        "runtime.session.block_calls": tracer.calls("op", "runtime.session.block"),
        "runtime.session.block_s": block_s,
        "runtime.session.trip_ms": 1e3 * block_s / trips if trips else 0.0,
        "static_mpc.load_s": tracer.total_s("op", "static_mpc.load"),
        "static_mpc.run_s": tracer.total_s("op", "static_mpc.run"),
        "static_mpc.program_self_s": tracer.self_s("op", "static_mpc.program"),
        "trace.attributed_share": 1.0 - share(algorithm_self),
    }
    metrics.update(kernels.sizing_rates(tracer.payloads))
    metrics.update(kernels.wire_rates(tracer.inboxes))
    return metrics


def _layer_summary(tracer) -> dict:
    """count / self time / per-op p50, p95, p99 of every layer, per root — the trace file's first line."""
    summary: dict = {}
    for root, layers in tracer.layers.items():
        summary[root] = {"ops": len(tracer.roots[root]), "root_s": tracer.root_s(root), "layers": {}}
        for name, (calls, self_ns, _total) in layers.items():
            per_op = [ns / 1e6 for ns in tracer.per_op[root][name]]
            summary[root]["layers"][name] = {
                "calls": calls,
                "self_s": self_ns / 1e9,
                "ops_seen": len(per_op),
                "op_self_ms_p50": median(per_op),
                "op_self_ms_p95": percentile_or_none(per_op, 95),
                "op_self_ms_p99": percentile_or_none(per_op, 99),
            }
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inject-fault", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    canary_before = canary_ms()
    setup_started = perf_counter()
    # importing the library is part of what a user waits for before the first op
    from bench import trace as tracing
    from bench import check, workloads

    tracer = None
    if args.trace:
        # a smoke run measures nothing, so it can afford to check the leaf declarations on every workload
        tracer = tracing.Tracer(check_leaves=args.scale == "smoke")
        tracing.install(tracer, ("fast", "resident"))
        prepared = tracer.run("setup", workloads.prepare, args.workload, args.seed, args.scale)
        call = tracer.wrap(prepared.call, "op")
        # set-up was op 1; a workload of six ops still gets the spans of its last one
        tracer.sample_every = min(tracer.sample_every, len(prepared.calls) + 1)
    else:
        prepared = workloads.prepare(args.workload, args.seed, args.scale)
        call = prepared.call
    setup_s = perf_counter() - setup_started

    latencies: list[int] = []
    failed = 0
    first_error = ""
    workers = _worker_pids()
    cpu_before = (_cpu_s(os.getpid()), sum(_cpu_s(pid) for pid in workers))
    loop_started = perf_counter_ns()
    for arg, kind in zip(prepared.calls, prepared.kinds):
        started = perf_counter_ns()
        try:
            call(arg)
        except Exception:  # an op that raises is a failed op; the run goes on to report it
            failed += len(arg) if kind == "batch" else 1
            first_error = first_error or traceback.format_exc()
        latencies.append(perf_counter_ns() - started)
    loop_s = (perf_counter_ns() - loop_started) / 1e9
    cpu_after = (_cpu_s(os.getpid()), sum(_cpu_s(pid) for pid in workers))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + sum(_peak_rss_mb(pid) for pid in workers)

    if tracer is not None:
        outcome = tracer.run("finish", prepared.finish, bool(args.inject_fault))
        tracer.uninstall()
        outcome.checks["leaf_spans_reach_no_span"] = not tracer.leaf_violations
        if tracer.leaf_violations:
            first_error = first_error or f"spans opened inside a leaf span: {sorted(tracer.leaf_violations)}"
    else:
        outcome = prepared.finish(bool(args.inject_fault))
    if not all(outcome.checks.values()):
        failed = prepared.ops  # a wrong end state condemns every op that led to it

    ms = [ns / 1e6 for ns in latencies]
    by_kind = {kind: [t for t, k in zip(ms, prepared.kinds) if k == kind] for kind in ("insert", "delete")}
    streaming = bool(by_kind["insert"])
    stats = outcome.stats
    driver_cpu, worker_cpu = cpu_after[0] - cpu_before[0], cpu_after[1] - cpu_before[1]
    cores = min(os.cpu_count() or 1, prepared.slots + 1)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "attempted": prepared.ops,
        "failed": failed,
        "checks": outcome.checks,
        "error": first_error,
        "stats": asdict(stats),
        "solution_sha256": check.digest(outcome.solution),
        "calls": len(ms),
        "loop_s": loop_s,
        "end_to_end": {
            "ops_per_s": prepared.ops / loop_s,
            "call_ms_p50": median(ms),
            "setup_s": setup_s,
            "rounds_per_op": stats.rounds / prepared.ops,
            "words_per_op": stats.words / prepared.ops,
            "words_per_round_max": stats.words_per_round_max,
            "active_machines_max": stats.active_machines_max,
            "peak_rss_mb": peak_rss_mb,
        },
        # per-layer numbers that need no spans: measured on untraced repeats, free of tracing overhead
        "outside": {
            "graph.stream_gen_s": prepared.gen_s,
            # stream workloads only (0 elsewhere); both scales give them the samples these percentiles need,
            # and `percentile` raises rather than report a maximum under another name.  Deletes are
            # bimodal about the median — half of them cut a tree edge (~8 ms), half do not (~0.04 ms) —
            # so the quartiles watch one path each where a median would flip between them by seed
            "dynamic_mpc.call_ms_p99": percentile(ms, 99) if streaming else 0.0,
            "dynamic_mpc.insert_ms_p50": median(by_kind["insert"]) if streaming else 0.0,
            "dynamic_mpc.delete_ms_p25": percentile(by_kind["delete"], 25) if streaming else 0.0,
            "dynamic_mpc.delete_ms_p75": percentile(by_kind["delete"], 75) if streaming else 0.0,
            "dynamic_mpc.delete_ms_p95": percentile(by_kind["delete"], 95) if streaming else 0.0,
            "static_mpc.rounds": stats.rounds if prepared.kinds[0] == "recompute" else 0,
            "runtime.proc.spawn_s": max(0.0, prepared.warmup_s - median(ms) / 1e3) if prepared.warmup_s else 0.0,
            "runtime.proc.driver_cpu_s": driver_cpu,
            "runtime.proc.worker_cpu_s": worker_cpu,
            "runtime.proc.core_utilization": (driver_cpu + worker_cpu) / (loop_s * cores),
            **outcome.counters,
        },
    }
    if tracer is not None:
        result["spans"] = _span_metrics(tracer, outcome)
        if args.spans_out:
            tracer.write_spans(args.spans_out, {"workload": args.workload, "seed": args.seed, "roots": _layer_summary(tracer)})
    canary_after = canary_ms()
    result["host_canary_ms"] = [canary_before, canary_after]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
