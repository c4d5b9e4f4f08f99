"""Shared harness for the benchmark suite: workloads, sweeps, JSON output.

Every ``bench_table1_*`` module used to duplicate the same scaffolding —
sweep the input sizes, collect the Table 1 cost columns, time the update
stream with ``pytest-benchmark``, attach the growth shapes.  That lives
here now, together with the two pieces the perf trajectory needs:

* :func:`compare_backends` — run the identical workload under the
  ``reference`` and ``fast`` execution backends (:mod:`repro.runtime`),
  check the solutions and per-update round counts are identical, and
  measure the wall-clock speedup;
* :func:`emit_bench_json` — write machine-readable ``BENCH_<name>.json``
  files (backend name, wall-clock, round totals, speedup) at the repo root
  so successive runs leave a comparable perf record.

Run directly for a backend comparison on one workload::

    python benchmarks/runner.py --workload connectivity
    python benchmarks/runner.py --workload maximal-matching --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable

if __package__ in (None, ""):  # script mode: make `repro` importable
    _here = os.path.dirname(os.path.abspath(__file__))
    _src = os.path.abspath(os.path.join(_here, "..", "src"))
    if _src not in sys.path:
        sys.path.insert(0, _src)

from repro.analysis import classify_growth, format_table
from repro.config import DMPCConfig
from repro.graph import DynamicGraph
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream

#: input sizes (number of vertices) swept by the Table 1 benchmarks
SIZES = (32, 64, 128)
#: number of dynamic updates measured per size
UPDATES = 80

#: repo root — where the machine-readable BENCH_*.json records land
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sized_workload(n: int, *, weighted: bool = False, seed: int = 2019, backend: str | None = None):
    """A graph with ``2 n`` edges plus a mixed update stream for it."""
    m = 2 * n
    if weighted:
        graph = random_weighted_graph(n, m, seed=seed)
    else:
        graph = gnm_random_graph(n, m, seed=seed)
    stream = mixed_stream(n, UPDATES, seed=seed + 1, insert_probability=0.5, initial=graph, weighted=weighted)
    config = DMPCConfig.for_graph(n, 2 * m, backend=backend)
    return graph, stream, config


# ------------------------------------------------------------------ sweeping
@dataclass
class Sweep:
    """The Table 1 cost columns collected over the size sweep."""

    sizes: list[int] = field(default_factory=list)
    rows: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    machines: list = field(default_factory=list)
    words: list = field(default_factory=list)
    extras: list = field(default_factory=list)


def run_sweep(run_one_size: Callable[[int], tuple], sizes=SIZES) -> Sweep:
    """Run ``run_one_size`` at every size and collect the Table 1 columns.

    ``run_one_size(n)`` returns ``(row, summary)`` or ``(row, summary,
    extra)``; the growth classification uses each size's worst-case rounds
    per update.
    """
    sweep = Sweep(sizes=list(sizes))
    for n in sizes:
        result = run_one_size(n)
        row, summary = result[0], result[1]
        sweep.rows.append(row)
        sweep.rounds.append(summary.max_rounds)
        sweep.machines.append(summary.max_active_machines)
        sweep.words.append(summary.max_words_per_round)
        sweep.extras.append(result[2] if len(result) > 2 else None)
    return sweep


def record_table1(benchmark, kind: str, rows, sizes, rounds, machines, words) -> None:
    """Attach measured-vs-paper information to the benchmark record."""
    benchmark.extra_info["table1"] = [row.as_dict() for row in rows]
    benchmark.extra_info["rounds_growth"] = classify_growth(sizes, rounds)
    benchmark.extra_info["machines_growth"] = classify_growth(sizes, machines)
    benchmark.extra_info["words_growth"] = classify_growth(sizes, words)
    print()
    print(format_table(rows))
    print(
        f"growth over n={list(sizes)}: rounds -> {benchmark.extra_info['rounds_growth']}, "
        f"active machines -> {benchmark.extra_info['machines_growth']}, "
        f"words/round -> {benchmark.extra_info['words_growth']}"
    )


def record_sweep(benchmark, kind: str, sweep: Sweep) -> None:
    """Sweep-object flavour of :func:`record_table1` + JSON emission."""
    record_table1(benchmark, kind, sweep.rows, sweep.sizes, sweep.rounds, sweep.machines, sweep.words)
    emit_bench_json(
        f"table1_{kind}",
        {
            "bench": f"table1_{kind}",
            "backend": active_backend_name(),
            "sizes": sweep.sizes,
            "max_rounds": sweep.rounds,
            "max_active_machines": sweep.machines,
            "max_words_per_round": sweep.words,
            "rounds_growth": benchmark.extra_info["rounds_growth"],
            "machines_growth": benchmark.extra_info["machines_growth"],
            "words_growth": benchmark.extra_info["words_growth"],
            "table1": benchmark.extra_info["table1"],
        },
    )


def time_update_stream(benchmark, make_algorithm, graph, updates, *, rounds: int = 3) -> None:
    """Time per-update processing: fresh algorithm per timing round.

    This is the ``setup``/``process`` pair every Table 1 module used to
    spell out with module-global state.
    """
    state: dict[str, Any] = {}

    def setup():
        algorithm = make_algorithm()
        if graph is not None:
            algorithm.preprocess(graph)
        state["algorithm"] = algorithm

    def process():
        algorithm = state["algorithm"]
        for update in updates:
            algorithm.apply(update)

    benchmark.pedantic(process, setup=setup, rounds=rounds, iterations=1)


def active_backend_name() -> str:
    """The backend name the benchmark processes run under (for the JSON record)."""
    return os.environ.get("REPRO_BACKEND") or "reference"


# ----------------------------------------------------------------- JSON output
def emit_bench_json(name: str, payload: dict, directory: str | None = None) -> str:
    """Write a machine-readable ``BENCH_<name>.json`` record; return its path.

    Every record carries coalescing provenance: a perf number measured with
    another setting is not comparable, and the JSON must say which it was.
    A record that does not state ``coalesce`` ran the library default (off).
    """
    payload = dict(payload)
    payload.setdefault("coalesce", False)
    path = os.path.join(directory or REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ------------------------------------------------------- backend comparisons
@dataclass
class RunResult:
    """One timed execution of a workload under one backend."""

    solution: Any
    round_counts: list
    rounds_total: int
    words_total: int
    elapsed: float
    #: wire-path totals from :meth:`MetricsLedger.traffic_totals` — which
    #: physical path messages took on slot-routing backends (all zeros on
    #: driver-delivered backends)
    traffic: dict = field(default_factory=dict)
    #: rounds executed inside worker-driven fused blocks (resident backend
    #: with fusion on; zero everywhere else)
    fused_rounds: int = 0
    #: driver round trips actually paid — with fusion a K-round block costs
    #: one; equals the round count on every per-round backend
    driver_round_trips: int = 0


def _dynamic_runner(algorithm_cls, graph, stream, solution, **algorithm_kwargs):
    """Build a ``run(backend, shard_count, resident_slots, coalesce)`` closure for a dynamic workload."""
    n = max(1, graph.num_vertices)
    m = max(1, graph.num_edges, 2 * n)

    def run(backend, shard_count, resident_slots=None, coalesce=False) -> RunResult:
        config = DMPCConfig.for_graph(
            n, 2 * m, backend=backend, shard_count=shard_count, resident_slots=resident_slots
        )
        algorithm = algorithm_cls(config, coalesce=coalesce, **algorithm_kwargs)
        algorithm.preprocess(graph.copy())
        start = time.perf_counter()
        if coalesce:
            # Coalescing acts on batches, so the coalesced comparison runs
            # the batched ingestion path (chunks of 16, the bench default).
            from repro.graph import batched

            for chunk in batched(stream, 16):
                algorithm.apply_batch(chunk)
        else:
            for update in stream:
                algorithm.apply(update)
        elapsed = time.perf_counter() - start
        return RunResult(
            solution=solution(algorithm),
            round_counts=[(u.label, u.num_rounds) for u in algorithm.ledger.updates],
            rounds_total=algorithm.update_round_total(),
            words_total=algorithm.update_summary().total_words,
            elapsed=elapsed,
            traffic=algorithm.cluster.ledger.traffic_totals(),
            fused_rounds=algorithm.cluster.ledger.fused_rounds,
            driver_round_trips=algorithm.cluster.ledger.driver_round_trips,
        )

    return run


def _connectivity_workload(n: int, updates: int, seed: int):
    from repro.dynamic_mpc import DMPCConnectivity

    graph = gnm_random_graph(n, 2 * n, seed=seed)
    stream = list(mixed_stream(n, updates, seed=seed + 1, insert_probability=0.5, initial=graph))
    return _dynamic_runner(
        DMPCConnectivity, graph, stream,
        lambda alg: (sorted(sorted(c) for c in alg.components()), sorted(alg.spanning_forest())),
    )


def _matching_workload(n: int, updates: int, seed: int):
    from repro.dynamic_mpc import DMPCMaximalMatching

    graph = gnm_random_graph(n, 2 * n, seed=seed)
    stream = list(mixed_stream(n, updates, seed=seed + 1, insert_probability=0.5, initial=graph))
    return _dynamic_runner(DMPCMaximalMatching, graph, stream, lambda alg: sorted(alg.matching()))


def _mst_workload(n: int, updates: int, seed: int):
    from repro.dynamic_mpc import DMPCApproxMST

    graph = random_weighted_graph(n, 2 * n, seed=seed)
    stream = list(
        mixed_stream(n, updates, seed=seed + 1, insert_probability=0.5, initial=graph, weighted=True)
    )
    return _dynamic_runner(
        DMPCApproxMST, graph, stream,
        lambda alg: (sorted(alg.spanning_forest()), round(alg.forest_weight(), 9)),
        epsilon=0.2,
    )


def _three_halves_workload(n: int, updates: int, seed: int):
    from repro.dynamic_mpc import DMPCThreeHalvesMatching

    stream = list(mixed_stream(n, updates, seed=seed, insert_probability=0.6))
    return _dynamic_runner(
        DMPCThreeHalvesMatching, DynamicGraph(n), stream, lambda alg: sorted(alg.matching())
    )


def _static_runner(make_algorithm, solution, label: str):
    """Build a ``run(...)`` closure timing one full static recomputation.

    Static baselines are superstep-style, so this is where the ``resident``
    backend's worker sessions show up; the ``updates`` knob is unused.
    """

    def run(backend, shard_count, resident_slots=None, coalesce=False) -> RunResult:
        # coalesce is a dynamic-stack knob; static recomputation accepts and
        # ignores it so compare_backends has one run signature.
        algorithm = make_algorithm(backend=backend, shard_count=shard_count, resident_slots=resident_slots)
        start = time.perf_counter()
        algorithm.run(label)
        elapsed = time.perf_counter() - start
        ledger = algorithm.cluster.ledger
        return RunResult(
            solution=solution(algorithm),
            round_counts=[(u.label, u.num_rounds) for u in ledger.updates],
            rounds_total=ledger.total_rounds(),
            words_total=ledger.summary().total_words,
            elapsed=elapsed,
            traffic=ledger.traffic_totals(),
            fused_rounds=ledger.fused_rounds,
            driver_round_trips=ledger.driver_round_trips,
        )

    return run


def _static_connectivity_workload(n: int, updates: int, seed: int):
    from repro.static_mpc import StaticConnectedComponents

    graph = gnm_random_graph(n, 2 * n, seed=seed)
    return _static_runner(
        lambda **kw: StaticConnectedComponents(graph, **kw),
        lambda alg: (sorted(sorted(c) for c in alg.components()), sorted(alg.spanning_forest())),
        "static-cc",
    )


def _static_matching_workload(n: int, updates: int, seed: int):
    from repro.static_mpc import StaticMaximalMatching

    graph = gnm_random_graph(n, 3 * n, seed=seed)
    return _static_runner(
        lambda **kw: StaticMaximalMatching(graph, seed=seed, **kw),
        lambda alg: sorted(alg.matching),
        "static-matching",
    )


def _static_mst_workload(n: int, updates: int, seed: int):
    from repro.static_mpc import StaticBoruvkaMST

    graph = random_weighted_graph(n, 3 * n, seed=seed)
    return _static_runner(
        lambda **kw: StaticBoruvkaMST(graph, **kw),
        lambda alg: (sorted(alg.forest), round(alg.forest_weight(), 9)),
        "static-mst",
    )


def profile_top_entries(fn: Callable[[], Any], *, top: int = 20) -> list[dict]:
    """Run ``fn`` under cProfile; return the top entries by cumulative time.

    Each entry carries ``function`` (``file:line:name``), ``ncalls``,
    ``tottime_s`` and ``cumtime_s`` — enough for a BENCH record to show
    *where* a workload spent its time without shipping the whole pstats
    dump.  This is how the dynamic hot spots that motivated the recut
    (recursive payload sizing, per-vertex tour re-stores) were found.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    entries: list[dict] = []
    for func in stats.fcn_list[:top]:
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, lineno, name = func
        location = name if lineno == 0 else f"{os.path.basename(filename)}:{lineno}:{name}"
        entries.append(
            {
                "function": location,
                "ncalls": ncalls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    return entries


#: workload name -> builder(n, updates, seed) -> run(backend, shard_count, resident_slots, coalesce)
WORKLOADS: dict[str, Callable] = {
    "connectivity": _connectivity_workload,
    "maximal-matching": _matching_workload,
    "mst": _mst_workload,
    "three-halves": _three_halves_workload,
    "static-connectivity": _static_connectivity_workload,
    "static-matching": _static_matching_workload,
    "static-mst": _static_mst_workload,
}


def compare_backends(
    workload: str,
    *,
    n: int = 128,
    updates: int = 200,
    seed: int = 2019,
    backends: tuple[str, ...] = ("reference", "fast"),
    repeats: int = 3,
    warmup: int = 0,
    shard_count: int | None = None,
    resident_slots: int | None = None,
    coalesce: bool = False,
    profile: bool = False,
) -> dict:
    """Run one workload under each backend; verify equivalence, measure speedup.

    The wall-clock figure is the **median of ``repeats`` runs** (dynamic
    workloads time the update stream, preprocessing excluded; static
    workloads time one full recomputation) — best-of-K rewards the luckiest
    scheduler slice, while the median is what a backend comparison can
    actually stand on; the raw samples are kept in the record so outliers
    stay visible.  ``warmup`` extra iterations run first and are discarded
    (per backend, still equivalence-checked): the resident backend pays a
    one-time worker spawn cost that used to pollute the first sample —
    0.45s cold against a 0.08s steady state on static-connectivity — and a
    warm-up makes the medians compare steady states.  Equivalence —
    identical solutions and identical per-update round counts — is
    asserted, not just reported: a backend that changes the simulation is a
    bug, not a trade-off.  ``shard_count`` caps and ``resident_slots`` pins
    the resident backend's worker-slot count (other backends ignore both;
    the slot-routing transport only has cross-slot traffic with >= 2 slots);
    backends whose rounds took a measured wire path report the per-path
    message totals (``local_messages`` / ``cross_slot_messages`` /
    ``shm_bytes`` / ``pipe_fallbacks``) under ``"traffic"``.  ``coalesce``
    runs the dynamic workloads in coalesced batches.
    """
    run = WORKLOADS[workload](n, updates, seed)
    results: dict[str, dict] = {}
    solutions: dict[str, Any] = {}
    round_counts: dict[str, list] = {}
    samples: dict[str, list[float]] = {backend: [] for backend in backends}
    lasts: dict[str, RunResult] = {}
    # Interleave the repeats across backends (pass 1 of every backend, then
    # pass 2, ...) instead of finishing one backend before starting the
    # next: host-speed drift over the seconds a comparison takes then hits
    # every backend's sample set alike instead of whichever backend was
    # measured during the slow minute.
    for iteration in range(-max(0, warmup), max(1, repeats)):
        for backend in backends:
            result = run(backend, shard_count, resident_slots, coalesce)
            last = lasts.get(backend)
            if last is not None and (
                result.solution != last.solution or result.round_counts != last.round_counts
            ):
                # the same backend must be deterministic run to run
                raise AssertionError(f"{workload}: backend {backend!r} is nondeterministic across repeats")
            lasts[backend] = result
            if iteration >= 0:
                samples[backend].append(result.elapsed)
    for backend in backends:
        last = lasts[backend]
        solutions[backend] = last.solution
        round_counts[backend] = last.round_counts
        results[backend] = {
            "wall_clock_s": round(median(samples[backend]), 6),
            "wall_clock_stat": f"median-of-{len(samples[backend])}",
            "wall_clock_samples": [round(sample, 6) for sample in samples[backend]],
            "rounds_total": last.rounds_total,
            "words_total": last.words_total,
            # fusion provenance: how many rounds ran inside worker-driven
            # fused blocks, and how many driver round trips were paid (the
            # two are only interesting on the resident backend, but the
            # zeros elsewhere make the records self-describing)
            "fused_rounds": last.fused_rounds,
            "driver_round_trips": last.driver_round_trips,
        }
        if any(last.traffic.values()):
            # Wire-path provenance for slot-routing backends: how many
            # messages stayed worker-local vs crossed a shm ring vs fell
            # back to the pipe.  Driver-delivered backends record nothing.
            results[backend]["traffic"] = dict(last.traffic)
        if profile:
            # One extra (untimed) run per backend under cProfile; the top
            # cumulative entries become part of the perf record's provenance.
            results[backend]["profile_top"] = profile_top_entries(
                lambda: run(backend, shard_count, resident_slots, coalesce)
            )
    baseline = backends[0]
    for backend in backends[1:]:
        if solutions[backend] != solutions[baseline]:
            raise AssertionError(f"{workload}: backend {backend!r} diverged from {baseline!r} solution")
        if round_counts[backend] != round_counts[baseline]:
            raise AssertionError(f"{workload}: backend {backend!r} changed the per-update round counts")
        results[backend][f"speedup_vs_{baseline}"] = round(
            results[baseline]["wall_clock_s"] / max(results[backend]["wall_clock_s"], 1e-9), 2
        )
    if "fast" in results:
        # Speedups relative to fast — the single-process optimised baseline
        # the resident backend is really racing — even when another backend
        # (usually reference) anchors the comparison.
        for backend in results:
            if backend not in ("fast", baseline):
                results[backend]["speedup_vs_fast"] = round(
                    results["fast"]["wall_clock_s"] / max(results[backend]["wall_clock_s"], 1e-9), 2
                )
    return {
        "bench": f"table1_{workload}",
        "workload": workload,
        "n": n,
        "updates": updates,
        "shard_count": shard_count,
        "resident_slots": resident_slots,
        "backends": results,
        "solutions_identical": True,
        "round_counts_identical": True,
        # provenance: perf records are only comparable on like-for-like runs
        "warmup": warmup,
        "profiled": profile,
        "coalesce": coalesce,
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
    }


def format_comparison(report: dict) -> str:
    baseline = next(iter(report["backends"]))
    header = f"{'backend':<12} {'wall-clock':>10} {'rounds':>8} {'words':>10} {'speedup':>8}"
    lines = [f"workload={report['workload']} n={report['n']} updates={report['updates']}", header, "-" * len(header)]
    for backend, result in report["backends"].items():
        speedup = result.get(f"speedup_vs_{baseline}")
        lines.append(
            f"{backend:<12} {result['wall_clock_s']:>9.3f}s {result['rounds_total']:>8} "
            f"{result['words_total']:>10} {(f'{speedup:.2f}x' if speedup else '-'):>8}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------------ CLI
def main(argv: list[str] | None = None) -> int:
    from repro.runtime import BACKENDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="connectivity")
    parser.add_argument("--n", type=int, default=128, help="number of vertices")
    parser.add_argument("--updates", type=int, default=200, help="stream length (dynamic workloads)")
    parser.add_argument(
        "--repeat",
        "--repeats",
        dest="repeat",
        type=int,
        default=3,
        metavar="K",
        help="timing repeats; the recorded wall-clock is the median of K (samples kept in the JSON)",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        choices=sorted(BACKENDS),
        default=["reference", "fast"],
        help="backends to compare; the first is the baseline speedups are relative to",
    )
    parser.add_argument("--shards", type=int, default=None, help="shard_count: the resident backend's slot cap (default 4)")
    parser.add_argument(
        "--warmup",
        type=int,
        default=0,
        metavar="K",
        help="discard K warm-up iterations per backend before the --repeat samples "
        "(hides the resident backend's worker spawn cost from the medians)",
    )
    parser.add_argument(
        "--resident-slots",
        type=int,
        default=None,
        metavar="S",
        help="pin the resident backend's worker-slot count; >= 2 exercises the "
        "cross-slot shm rings and the traffic counters land in the BENCH json",
    )
    parser.add_argument(
        "--coalesce",
        action="store_true",
        help="coalesce each update batch before application (dynamic workloads; default off)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run one extra pass per backend under cProfile and record the top-20 "
        "cumulative entries in the BENCH json",
    )
    parser.add_argument("--quick", action="store_true", help="small smoke-test sizes (used by CI)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the last listed backend reaches this speedup over the baseline (first listed)",
    )
    args = parser.parse_args(argv)
    if args.min_speedup is not None and len(args.backends) < 2:
        parser.error("--min-speedup needs at least two --backends (a baseline and a contender)")
    if args.quick:
        args.n, args.updates, args.repeat = 48, 60, 1

    report = compare_backends(
        args.workload,
        n=args.n,
        updates=args.updates,
        repeats=args.repeat,
        warmup=args.warmup,
        backends=tuple(args.backends),
        shard_count=args.shards,
        resident_slots=args.resident_slots,
        coalesce=args.coalesce,
        profile=args.profile,
    )
    print(format_comparison(report))
    path = emit_bench_json(f"table1_{args.workload}_backends", report)
    print(f"\nwrote {os.path.relpath(path, REPO_ROOT)}")
    if args.min_speedup is not None:
        baseline, contender = args.backends[0], args.backends[-1]
        speedup = report["backends"][contender][f"speedup_vs_{baseline}"]
        if speedup < args.min_speedup:
            print(
                f"FAIL: {contender} backend speedup {speedup:.2f}x over {baseline} "
                f"below required {args.min_speedup:.2f}x"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
