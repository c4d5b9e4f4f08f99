"""Scale check: seeding the Euler tours is linear in the input, up to n = 16 384.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 1 minute):

    PYTHONPATH=src python -m pytest -q tests/scale/scale_preprocess.py

Connectivity and (1+eps)-MST on ``gnm(n, 2n)`` at n in {1 024, 4 096, 16 384},
``fast`` backend.  ``preprocess`` is bounded by a count, not a clock ratio:
the tour indexes it writes into the vertices' index sets, per vertex, at
every size.  ``IndexedEulerTourForest.link_all`` writes the four positions of
each tree edge once — 3.96 per vertex at n = 1 024 — a constant, so the total
is linear in n; the bound is that + 20 %.  The n − 1 incremental ``link``
calls it replaced rewrite both trees per link: ≈ 1 900 per vertex at
n = 1 024, growing with n — the last test swaps them back in and sees the
bound trip.  (A clock ratio between sizes, ×8 per ×4 in n, failed on a busy
host with linear code.)  ``preprocess`` must also stay under 3 s at the
largest size.  After it, 300 ``mixed_stream`` updates must end in the
oracle's partition and a spanning forest, with rounds per update within
±0.3 of the n = 1 024 value (Table 1: O(1)) and never more active machines
in a round than there are workers.

This is the first test in the repository at n > 2 048.  ``bench/scale.py``
(ROADMAP item 3c) supersedes it once a ``[benchmark]`` PR adds it.
"""

from __future__ import annotations

import time

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCApproxMST, DMPCConnectivity
from repro.eulertour.indexed import IndexedEulerTourForest, VertexTourState
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream
from repro.graph.validation import connected_components, is_spanning_forest, same_partition

SIZES = (1024, 4096, 16384)
NUM_UPDATES = 300
#: four positions per tree edge, at most n − 1 tree edges
MEASURED_INDEX_WRITES_PER_VERTEX = 4
SLACK = 1.2
MAX_PREPROCESS_S = 3.0
ROUNDS_PER_OP_TOLERANCE = 0.3

CASES = {
    "connectivity": (DMPCConnectivity, gnm_random_graph, False),
    "mst": (DMPCApproxMST, random_weighted_graph, True),
}


def incremental_link_all(forest, edges):
    """The seeding ``link_all`` replaced: one ``link`` per unconnected pair, in order."""
    for (u, v) in edges:
        if not forest.connected(u, v):
            forest.link(u, v)
    return forest.tree_edges()


def index_writes_per_vertex(algorithm: str, n: int, monkeypatch: pytest.MonkeyPatch) -> float:
    """The tour indexes one ``preprocess`` of ``algorithm`` writes into vertices' index sets, per vertex.

    A write is an index added to a set (``update``) or carried by a set
    assigned to a vertex's ``indexes`` (a rewrite counts every index of the
    new set).  Counted under a patch, so the timed runs are not slowed.
    """
    cls, generator, _weighted = CASES[algorithm]
    graph = generator(n, 2 * n, seed=21)
    written = 0

    class CountingIndexes(set):
        def update(self, *others) -> None:
            nonlocal written
            before = len(self)
            super().update(*others)
            written += len(self) - before

    def counting_setattr(state, name, value) -> None:
        nonlocal written
        if name == "indexes":
            written += len(value)
            value = CountingIndexes(value)
        object.__setattr__(state, name, value)

    with monkeypatch.context() as patch:
        patch.setattr(VertexTourState, "__setattr__", counting_setattr)
        cls(DMPCConfig.for_graph(n, 4 * n, backend="fast")).preprocess(graph.copy())
    return written / n


def run_one(algorithm: str, n: int) -> dict:
    cls, generator, weighted = CASES[algorithm]
    graph = generator(n, 2 * n, seed=21)
    stream = mixed_stream(n, NUM_UPDATES, seed=22, insert_probability=0.5, initial=graph, weighted=weighted)
    # best of two: the first preprocess of a process also pays for cold caches
    preprocess_s = float("inf")
    for _ in range(2):
        alg = cls(DMPCConfig.for_graph(n, 4 * n, backend="fast"))
        started = time.perf_counter()
        alg.preprocess(graph.copy())
        preprocess_s = min(preprocess_s, time.perf_counter() - started)
    alg.verify_invariants()
    for update in stream:
        alg.apply(update)
    return {
        "alg": alg,
        "preprocess_s": preprocess_s,
        "rounds_per_op": alg.update_round_total() / NUM_UPDATES,
        "max_active_machines": alg.update_summary().max_active_machines,
    }


@pytest.mark.parametrize("algorithm", list(CASES))
def test_preprocess_is_linear_and_updates_keep_their_shape(algorithm, monkeypatch):
    runs = {n: run_one(algorithm, n) for n in SIZES}
    writes = {n: index_writes_per_vertex(algorithm, n, monkeypatch) for n in SIZES}
    print()
    for n, run in runs.items():
        print(
            f"{algorithm} n={n}: preprocess {run['preprocess_s']:.3f} s, {writes[n]:.2f} index writes per vertex, "
            f"{run['rounds_per_op']:.2f} rounds/op, max {run['max_active_machines']} active machines "
            f"of {len(run['alg'].worker_ids)} workers"
        )

    for n in SIZES:
        assert writes[n] <= MEASURED_INDEX_WRITES_PER_VERTEX * SLACK, f"preprocess wrote {writes[n]:.1f} indexes per vertex at n={n}"
    assert runs[SIZES[-1]]["preprocess_s"] <= MAX_PREPROCESS_S

    base_rounds = runs[SIZES[0]]["rounds_per_op"]
    for n, run in runs.items():
        alg = run["alg"]
        assert same_partition(alg.components(), connected_components(alg.shadow))
        assert is_spanning_forest(alg.shadow, alg.spanning_forest())
        alg.verify_invariants()
        assert abs(run["rounds_per_op"] - base_rounds) <= ROUNDS_PER_OP_TOLERANCE, (n, run["rounds_per_op"], base_rounds)
        assert run["max_active_machines"] <= len(alg.worker_ids), (n, run["max_active_machines"])


@pytest.mark.parametrize("algorithm", list(CASES))
def test_incremental_seeding_trips_the_count(algorithm, monkeypatch):
    """The count sees the seeding ``link_all`` replaced, at the smallest size already."""
    monkeypatch.setattr(IndexedEulerTourForest, "link_all", incremental_link_all)
    assert index_writes_per_vertex(algorithm, SIZES[0], monkeypatch) > MEASURED_INDEX_WRITES_PER_VERTEX * SLACK
