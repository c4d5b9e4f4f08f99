"""Batched vs per-update application: rounds and words across the DMPC stack.

Measures the tentpole claim of the batched update engine: on a mixed stream,
``apply_batch`` (batch size >= 8) spends measurably fewer total rounds than
per-update ``apply`` — compatible connectivity updates share one scalar
broadcast, and the matching algorithms amortise their round-robin
maintenance — while reaching an identical solution on every stream,
including the adversarial ones.

Runs two ways:

* under pytest-benchmark with the rest of the Table 1 suite
  (``PYTHONPATH=src python -m pytest benchmarks/bench_batched_updates.py``);
* as a plain script, for CI smoke runs and quick local comparisons
  (``python benchmarks/bench_batched_updates.py [--quick]``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

if __package__ in (None, ""):  # script mode: make `repro` and `benchmarks` importable
    _here = os.path.dirname(os.path.abspath(__file__))
    for _path in (os.path.abspath(os.path.join(_here, "..", "src")), os.path.abspath(os.path.join(_here, ".."))):
        if _path not in sys.path:
            sys.path.insert(0, _path)

from benchmarks.runner import emit_bench_json
from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCConnectivity, DMPCMaximalMatching
from repro.graph import batched
from repro.graph.generators import gnm_random_graph
from repro.graph.streams import mixed_stream, tree_edge_adversary_stream

#: Wall clock of this bench before the dynamic hot-path recut (recursive
#: payload sizing on every send, dict-of-objects tour state), measured at
#: the default n=96 / 200 updates / batch 16 on the same container.
PRE_PR_BASELINE = {
    "n": 96,
    "updates": 200,
    "batch_size": 16,
    "reference_wall_clock_s": 2.820,
    "fast_wall_clock_s": 1.197,
}


def record_adversarial_stream(n: int, m: int, num_updates: int, seed: int, backend: str | None = None):
    """Record a tree-edge adversary stream (adaptive, so recorded once)."""
    graph = gnm_random_graph(n, m, seed=seed)
    recorder = DMPCConnectivity(DMPCConfig.for_graph(n, 2 * m, backend=backend))
    recorder.preprocess(graph)
    adaptive = tree_edge_adversary_stream(
        n, num_updates, recorder.spanning_forest, seed=seed + 1, delete_probability=0.6
    )
    adaptive.seed_graph(graph)
    for update in adaptive:
        recorder.apply(update)
    return graph, list(adaptive.history)


def compare(algorithm_factory, graph, stream, batch_size: int, *, solution, coalesce: bool = False) -> dict:
    """Run the same stream per-update and batched; return the cost comparison.

    With ``coalesce`` the batched run normalizes each chunk first
    (insert/delete cancellation, dedup, owner grouping) and the sequential
    baseline replays the *same normalized stream* update by update via
    :meth:`normalize_batch`, so both runs see identical update lists and
    the comparison isolates the batching savings from the coalescing ones.
    """
    sequential = algorithm_factory()
    if graph is not None:
        sequential.preprocess(graph)
    if coalesce:
        for chunk in batched(stream, batch_size):
            for update in sequential.normalize_batch(list(chunk))[0]:
                sequential.apply(update)
    else:
        for update in stream:
            sequential.apply(update)

    batch = algorithm_factory(coalesce=coalesce)
    if graph is not None:
        batch.preprocess(graph)
    for chunk in batched(stream, batch_size):
        batch.apply_batch(chunk)

    if solution(sequential) != solution(batch):
        raise AssertionError("batched application diverged from sequential application")
    result = {
        "updates": len(stream),
        "batch_size": batch_size,
        "sequential_rounds": sequential.update_round_total(),
        "batched_rounds": batch.update_round_total(),
        "sequential_words": sequential.update_summary().total_words,
        "batched_words": batch.update_summary().total_words,
        "batches": len(batch.ledger.batches()),
    }
    if coalesce:
        result["coalesce_totals"] = dict(batch.coalesce_totals)
    return result


def connectivity_solution(alg):
    return (sorted(sorted(c) for c in alg.components()), sorted(alg.spanning_forest()))


def matching_solution(alg):
    return sorted(alg.matching())


def run_comparisons(
    *,
    n: int,
    num_updates: int,
    batch_size: int,
    seed: int = 2019,
    backend: str | None = None,
    coalesce: bool = False,
) -> dict[str, dict]:
    m = 2 * n
    graph = gnm_random_graph(n, m, seed=seed)
    stream = mixed_stream(n, num_updates, seed=seed + 1, insert_probability=0.5, initial=graph)

    def connectivity(coalesce: bool = False):
        return DMPCConnectivity(DMPCConfig.for_graph(n, 2 * m, backend=backend), coalesce=coalesce)

    def matching(coalesce: bool = False):
        return DMPCMaximalMatching(DMPCConfig.for_graph(n, 2 * m, backend=backend), coalesce=coalesce)

    results = {
        "connectivity/mixed": compare(
            connectivity, graph, stream, batch_size, solution=connectivity_solution, coalesce=coalesce
        ),
        "maximal-matching/mixed": compare(
            matching, graph, stream, batch_size, solution=matching_solution, coalesce=coalesce
        ),
    }
    adv_graph, adv_stream = record_adversarial_stream(n, m // 2, num_updates, seed + 2, backend=backend)
    results["connectivity/tree-adversary"] = compare(
        connectivity, adv_graph, adv_stream, batch_size, solution=connectivity_solution, coalesce=coalesce
    )
    return results


def format_results(results: dict[str, dict]) -> str:
    header = f"{'workload':<28} {'updates':>7} {'batch':>5} {'rounds seq':>10} {'rounds bat':>10} {'saved':>6} {'words seq':>10} {'words bat':>10}"
    lines = [header, "-" * len(header)]
    for name, r in results.items():
        saved = 1.0 - r["batched_rounds"] / max(1, r["sequential_rounds"])
        lines.append(
            f"{name:<28} {r['updates']:>7} {r['batch_size']:>5} {r['sequential_rounds']:>10} "
            f"{r['batched_rounds']:>10} {saved:>5.0%} {r['sequential_words']:>10} {r['batched_words']:>10}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- pytest
def test_batched_updates_round_savings(benchmark):
    results = run_comparisons(n=64, num_updates=80, batch_size=8)
    benchmark.extra_info["comparisons"] = results
    print()
    print(format_results(results))

    n, m = 64, 128
    graph = gnm_random_graph(n, m, seed=2019)
    stream = mixed_stream(n, 80, seed=2020, insert_probability=0.5, initial=graph)
    chunks = [list(c) for c in batched(stream, 8)]
    state = {}

    def setup():
        state["alg"] = DMPCConnectivity(DMPCConfig.for_graph(n, 2 * m))
        state["alg"].preprocess(graph)

    def process():
        for chunk in chunks:
            state["alg"].apply_batch(chunk)

    benchmark.pedantic(process, setup=setup, rounds=3, iterations=1)
    for result in results.values():
        assert result["batched_rounds"] < result["sequential_rounds"]


# ------------------------------------------------------------------------ CLI
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small smoke-test sizes (used by CI)")
    parser.add_argument("--n", type=int, default=None, help="run a single vertex count instead of --sizes")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="vertex counts, one table row each (default: 96 128)"
    )
    parser.add_argument("--updates", type=int, default=200, help="stream length")
    parser.add_argument("--batch-size", type=int, default=16, help="updates per batch (>= 8 for the Table 1 claim)")
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["reference", "fast"],
        help="execution backends to run (and compare wall-clock across)",
    )
    parser.add_argument("--min-speedup", type=float, default=None, help="fail unless fast reaches this speedup")
    parser.add_argument(
        "--coalesce",
        action="store_true",
        help="coalesce each batch; the sequential baseline replays the same normalized stream",
    )
    args = parser.parse_args(argv)
    if args.quick:
        sizes, args.updates, args.batch_size = [32], 60, 8
    elif args.n is not None:
        sizes = [args.n]
    else:
        sizes = args.sizes or [96, 128]

    status = 0
    rows: dict[str, dict] = {}
    for n in sizes:
        wall_clock: dict[str, float] = {}
        results_by_backend: dict[str, dict[str, dict]] = {}
        for backend in args.backends:
            start = time.perf_counter()
            results_by_backend[backend] = run_comparisons(
                n=n,
                num_updates=args.updates,
                batch_size=args.batch_size,
                backend=backend,
                coalesce=args.coalesce,
            )
            wall_clock[backend] = round(time.perf_counter() - start, 6)

        baseline = args.backends[0]
        results = results_by_backend[baseline]
        print(f"n={n} backend={baseline} coalesce={args.coalesce}")
        print(format_results(results))
        for name, result in results.items():
            if result["batched_rounds"] >= result["sequential_rounds"]:
                print(f"FAIL: {name} did not save rounds")
                status = 1

        # Cross-backend: the round/word accounting must be identical; wall-clock may not.
        for backend in args.backends[1:]:
            if results_by_backend[backend] != results:
                print(f"FAIL: backend {backend!r} changed the round/word accounting")
                status = 1

        row = {
            "round_savings": results,
            "backends": {backend: {"wall_clock_s": wall_clock[backend]} for backend in args.backends},
        }
        if "reference" in wall_clock and "fast" in wall_clock:
            speedup = round(wall_clock["reference"] / max(wall_clock["fast"], 1e-9), 2)
            row["backends"]["fast"]["speedup_vs_reference"] = speedup
            print(
                f"wall-clock: reference {wall_clock['reference']:.3f}s, fast {wall_clock['fast']:.3f}s "
                f"-> speedup {speedup:.2f}x"
            )
            # The speedup gate applies to the primary (first) row only.
            if n == sizes[0] and args.min_speedup is not None and speedup < args.min_speedup:
                print(f"FAIL: fast backend speedup {speedup:.2f}x below required {args.min_speedup:.2f}x")
                status = 1
        rows[str(n)] = row
        print()

    primary = str(sizes[0])
    report = {
        "bench": "batched_updates",
        "n": sizes[0],
        "sizes": sizes,
        "updates": args.updates,
        "batch_size": args.batch_size,
        "coalesce": bool(args.coalesce),
        # Primary-row view, kept flat for older consumers of this record.
        "round_savings": rows[primary]["round_savings"],
        "backends": rows[primary]["backends"],
        "rows": rows,
        "pre_pr_baseline": PRE_PR_BASELINE,
    }
    emit_bench_json("batched_updates", report)
    if status == 0:
        print("OK: batched application saved rounds on every workload (identical solutions on every backend).")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
