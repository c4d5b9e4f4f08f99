"""The five workloads: input generation from a seed, set-up, one public call.

Closed loop, one driver process: the next call is issued when the previous
one returns.  Op counts are fixed (never durations), every graph is
``gnm_random_graph(n, 2n)``, configuration is passed explicitly (the caller
strips ``REPRO_*`` from the environment) and nothing here reads a clock
except to report how long input generation took.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCConnectivity, DMPCMaximalMatching
from repro.graph import DynamicGraph, GraphUpdate, UpdateSequence, batched, gnm_random_graph, mixed_stream
from repro.static_mpc import StaticConnectedComponents

from bench import check

#: op counts per workload (why each is here: BENCHMARK.json) and scale; ``full`` is what every number is measured at
SCALES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "cc-stream": {"n": 1024, "updates": 2000},
        "mm-stream": {"n": 1024, "updates": 8000},
        "cc-batch-churn": {"n": 1024, "updates": 2240, "flaps": 960, "chunk": 32},
        "static-cc-fast": {"n": 2048, "ops": 6},
        "static-cc-resident": {"n": 2048, "ops": 6},
    },
    # the stream rows keep 1000 calls at either scale: the fewest that carry a p99 (stats.percentile)
    "smoke": {
        "cc-stream": {"n": 64, "updates": 1000},
        "mm-stream": {"n": 64, "updates": 1000},
        "cc-batch-churn": {"n": 64, "updates": 64, "flaps": 24, "chunk": 8},
        "static-cc-fast": {"n": 96, "ops": 2},
        "static-cc-resident": {"n": 96, "ops": 2},
    },
}

#: flap pairs close within this many stream positions
FLAP_WINDOW = 8


def resident_slots() -> int:
    """Worker slots of the resident row: two where every worker *and* the driver have a core, else one.

    The workers of a fused block meet at a barrier, so a slot without a core
    of its own stalls the others: with two slots on a 2-core host, a neighbour
    taking one core cut the row's throughput by 35-45 % while one slot (and
    every single-process row) did not move.  That measures the scheduler.
    """
    return max(1, min(2, (os.cpu_count() or 1) - 1))


@dataclass
class SimStats:
    """The paper's currencies for one repeat; deterministic given the inputs."""

    rounds: int
    words: int
    words_per_round_max: int
    active_machines_max: int


@dataclass
class Prepared:
    """A workload after set-up: ``call(arg)`` for each ``arg`` in ``calls`` is the timed loop."""

    calls: list
    call: Callable[[Any], None]
    #: kind of each call ("insert" / "delete" / "batch" / "recompute"), for the latency split
    kinds: list[str]
    #: ops the calls cover: input updates before coalescing, or recomputations
    ops: int
    #: seconds spent generating graphs and streams (part of set-up)
    gen_s: float
    #: untimed, after the loop: ``finish(corrupt)`` gives simulated statistics, canonical solution
    #: and oracle verdicts.  ``corrupt`` damages the solution first, to prove the oracle notices.
    finish: Callable[[bool], "Outcome"]
    #: resident worker slots the workload drives (0 = single process)
    slots: int = 0
    #: seconds the untimed warm-up op took (worker spawn + first ship), 0 without one
    warmup_s: float = 0.0


@dataclass
class Outcome:
    stats: SimStats
    #: canonical, JSON-able solution (sorted components / matching)
    solution: Any
    #: name -> passed, one entry per oracle check made
    checks: dict[str, bool]
    #: layer counters only the workload can read (coalescer totals, ledger traffic, ...)
    counters: dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------------ generators
def flap_stream(n: int, base: UpdateSequence, flaps: int, initial: DynamicGraph, seed: int) -> UpdateSequence:
    """``base`` with ``flaps`` injected pairs *insert e ... delete e* at most ``FLAP_WINDOW`` apart.

    Flap edges are drawn outside every edge the initial graph or the base
    stream ever touches, so the result replays consistently by construction
    (and is asserted with :meth:`UpdateSequence.is_consistent`).
    """
    rng = random.Random(seed)
    reserved = set(initial.edges()) | {upd.edge for upd in base}
    out: list[GraphUpdate] = []
    due: dict[int, GraphUpdate] = {}  # output position -> flap delete scheduled there
    base_left = list(base)[::-1]
    flaps_left = flaps
    while base_left or flaps_left or due:
        position = len(out)
        if position in due:
            out.append(due.pop(position))
            continue
        remaining = len(base_left) + flaps_left
        free = [position + d for d in range(1, FLAP_WINDOW + 1) if position + d not in due]
        if flaps_left and free and (not base_left or rng.randrange(remaining) < flaps_left):
            while True:
                u, v = rng.randrange(n), rng.randrange(n)
                edge = (min(u, v), max(u, v))
                if u != v and edge not in reserved:
                    break
            reserved.add(edge)
            out.append(GraphUpdate.insert(*edge))
            due[rng.choice(free)] = GraphUpdate.delete(*edge)
            flaps_left -= 1
        elif base_left:
            out.append(base_left.pop())
        else:
            # only scheduled deletes remain and none is due here: pull the next one forward
            out.append(due.pop(min(due)))
    stream = UpdateSequence(out)
    if not stream.is_consistent(initial):
        raise AssertionError("flap stream does not replay consistently")
    return stream


def stream_inputs(name: str, seed: int, scale: str) -> tuple[DynamicGraph, UpdateSequence]:
    """Initial graph and update stream of a dynamic workload — a pure function of the seed."""
    size = SCALES[scale][name]
    n = size["n"]
    graph = gnm_random_graph(n, 2 * n, seed=seed)
    stream = mixed_stream(n, size["updates"], seed=seed + 1, insert_probability=0.5, initial=graph)
    if name == "cc-batch-churn":
        stream = flap_stream(n, stream, size["flaps"], graph, seed + 2)
    return graph, stream


def static_inputs(name: str, seed: int, scale: str) -> list[DynamicGraph]:
    """One graph per recomputation: label propagation's round count swings with the
    diameter of a single draw, averaging over several keeps a seed's cost typical."""
    size = SCALES[scale][name]
    return [gnm_random_graph(size["n"], 2 * size["n"], seed=seed * 1000 + i) for i in range(size["ops"])]


# -------------------------------------------------------------------- set-up
def _prepare_dynamic(name: str, seed: int, scale: str) -> Prepared:
    started = perf_counter()
    graph, stream = stream_inputs(name, seed, scale)
    gen_s = perf_counter() - started
    n = graph.num_vertices
    config = DMPCConfig.for_graph(n, 4 * n, backend="fast")
    batch = name == "cc-batch-churn"
    if name == "mm-stream":
        alg: Any = DMPCMaximalMatching(config, layout="csr", coalesce=False)
    else:
        alg = DMPCConnectivity(config, layout="csr", coalesce=batch)
    alg.preprocess(graph.copy())
    if batch:
        calls: list = list(batched(stream, SCALES[scale][name]["chunk"]))
        call, kinds = alg.apply_batch, ["batch"] * len(calls)
    else:
        calls = list(stream)
        call, kinds = alg.apply, [upd.op for upd in calls]

    def finish(corrupt: bool) -> Outcome:
        final = stream.final_graph(graph)
        summary = alg.update_summary()
        stats = SimStats(alg.update_round_total(), summary.total_words, summary.max_words_per_round, summary.max_active_machines)
        if name == "mm-stream":
            # dropping a matched edge frees both its endpoints: no longer maximal
            solution: Any = sorted(alg.matching())[1 if corrupt else 0 :]
            checks = check.matching_checks(final, solution)
        else:
            components = check.corrupt_partition(alg.components()) if corrupt else alg.components()
            forest = alg.spanning_forest()
            solution = [check.canonical_partition(components), sorted(forest)]
            checks = check.connectivity_checks(final, components, forest)
        totals = alg.coalesce_totals
        counters = {"graph.coalesce_cancelled_share": 2 * totals["cancelled_pairs"] / totals["input"] if totals["input"] else 0.0}
        counters.update(_ledger_counters([alg.cluster.ledger], f"{alg.kind}:preprocess"))
        return Outcome(stats, solution, checks, counters)

    return Prepared(calls, call, kinds, len(stream), gen_s, finish)


def _ledger_counters(ledgers: list, skip_label: str = "") -> dict[str, float]:
    """Traffic the ledgers recorded for the timed ops, and their wire-path and fusion counters
    (all zero off the resident backend).  Updates labelled ``skip_label`` are set-up, not ops."""
    rounds = [r for ledger in ledgers for update in ledger.updates if update.label != skip_label for r in update.rounds]
    counters = {
        "runtime.transport.messages": sum(r.message_count for r in rounds),
        "runtime.transport.words": sum(r.total_words for r in rounds),
        "runtime.session.fused_rounds": 0,
        "runtime.session.driver_round_trips": 0,
        "runtime.wire.local_messages": 0,
        "runtime.wire.cross_slot_messages": 0,
        "runtime.wire.shm_bytes": 0,
        "runtime.wire.pipe_fallbacks": 0,
    }
    for ledger in ledgers:
        counters["runtime.session.fused_rounds"] += ledger.fused_rounds
        counters["runtime.session.driver_round_trips"] += ledger.driver_round_trips
        for key, value in ledger.traffic_totals().items():
            counters[f"runtime.wire.{key}"] += value
    return counters


def _static_stats(runs: list[StaticConnectedComponents]) -> SimStats:
    summaries = [alg.cluster.ledger.summary() for alg in runs]
    return SimStats(
        rounds=sum(alg.cluster.ledger.total_rounds() for alg in runs),
        words=sum(s.total_words for s in summaries),
        words_per_round_max=max((s.max_words_per_round for s in summaries), default=0),
        active_machines_max=max((s.max_active_machines for s in summaries), default=0),
    )


def _prepare_static(name: str, seed: int, scale: str) -> Prepared:
    started = perf_counter()
    graphs = static_inputs(name, seed, scale)
    gen_s = perf_counter() - started
    resident = name == "static-cc-resident"
    slots = resident_slots() if resident else 0
    options: dict[str, Any] = {"backend": "fast", "layout": "csr"}
    if resident:
        options = {"backend": "resident", "layout": "csr", "resident_slots": slots, "shard_count": 4}
    runs: list[StaticConnectedComponents] = []

    def call(graph: DynamicGraph) -> None:
        alg = StaticConnectedComponents(graph, **options)
        alg.run()
        runs.append(alg)

    warmup_s = 0.0
    if resident:
        # worker spawn and first-ship cost belong to set-up, not to the first timed op
        started = perf_counter()
        call(graphs[0])
        warmup_s = perf_counter() - started
        runs.clear()

    def finish(corrupt: bool) -> Outcome:
        stats = _static_stats(runs)
        partitions = [alg.components() for alg in runs]
        if corrupt and partitions:
            partitions[0] = check.corrupt_partition(partitions[0])
        solution = [check.canonical_partition(components) for components in partitions]
        checks = check.static_checks(graphs, partitions)
        if resident:
            # the two static rows must agree bit for bit: replay the same inputs on `fast`
            twin = [StaticConnectedComponents(g, backend="fast", layout="csr") for g in graphs]
            for alg in twin:
                alg.run()
            checks["same_solution_as_fast"] = solution == [check.canonical_partition(alg.components()) for alg in twin]
            checks["same_statistics_as_fast"] = stats == _static_stats(twin)
        counters = {"graph.coalesce_cancelled_share": 0.0, **_ledger_counters([alg.cluster.ledger for alg in runs])}
        return Outcome(stats, solution, checks, counters)

    return Prepared(graphs, call, ["recompute"] * len(graphs), len(graphs), gen_s, finish, slots, warmup_s)


def prepare(name: str, seed: int, scale: str = "full") -> Prepared:
    """Generate the inputs of workload ``name`` from ``seed`` and set it up for the timed loop."""
    if name not in SCALES[scale]:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(SCALES[scale])})")
    if name.startswith("static-cc"):
        return _prepare_static(name, seed, scale)
    return _prepare_dynamic(name, seed, scale)
