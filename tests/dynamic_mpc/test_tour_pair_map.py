"""The tour position index under a deep copy mid-stream, and under ``check_invariants``.

Connectivity and MST index every tree pair of their tour shards in one
``TourPairs`` position index per cluster.  A search harness clones an
algorithm with ``copy.deepcopy``: the clone's records, tree rows and index
slots must share pair objects as the original's do (none of them the
original's), and the clone must go on bit for bit like the original, on
every backend (a ``fast`` transport once kept adding the clone's senders to
the original's staged set).  ``check_invariants=True`` audits the index
against the tree records after every update, so a pair the index lost or
kept, or a slot out of place, stops the run at the update that broke it.
"""

from __future__ import annotations

import copy

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCApproxMST, DMPCConnectivity
from repro.exceptions import InvariantViolation
from repro.graph import GraphUpdate
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream

N = 48
ALGORITHMS = {
    "connectivity": (DMPCConnectivity, gnm_random_graph, {}),
    "approx-mst": (DMPCApproxMST, random_weighted_graph, {"weighted": True}),
}


def make_run(kind: str, updates: int, *, backend: "str | None" = None, check_invariants: bool = False):
    make, make_graph, stream_options = ALGORITHMS[kind]
    graph = make_graph(N, 2 * N, seed=5)
    stream = list(mixed_stream(N, updates, seed=105, insert_probability=0.5, initial=graph, **stream_options))
    algorithm = make(DMPCConfig.for_graph(N, 8 * N, backend=backend), check_invariants=check_invariants)
    algorithm.preprocess(graph.copy())
    return algorithm, stream


def costs(algorithm, start: int) -> list:
    return [
        (u.label, u.num_rounds, u.total_words, u.max_words_per_round, u.max_active_machines)
        for u in algorithm.ledger.updates[start:]
    ]


def slot_pair_ids(algorithm) -> "set[int]":
    return {id(slot[2]) for slots in algorithm._tours.pairs.comps.values() for slot in slots if slot is not None}


def record_pair_ids(algorithm) -> "set[int]":
    return {
        id(record["indexes"])
        for shard in algorithm._tours._shards()
        for row in shard.edges.values()
        for record in row.values()
        if record["indexes"] is not None
    }


@pytest.mark.parametrize("backend", ["reference", "fast", "resident"])
@pytest.mark.parametrize("kind", ALGORITHMS)
def test_a_deep_copy_mid_stream_shares_its_own_pairs_and_stays_bit_identical(kind, backend):
    original, stream = make_run(kind, 500, backend=backend)
    for update in stream[:300]:
        original.apply(update)
    clone = copy.deepcopy(original)

    # the clone's records, tree rows and index slots hold one object per pair, and none is the original's
    assert clone._tours.pairs.mismatch(clone._tours._shards()) is None
    assert slot_pair_ids(clone) == record_pair_ids(clone) and slot_pair_ids(original) == record_pair_ids(original)
    assert slot_pair_ids(clone) and not slot_pair_ids(clone) & slot_pair_ids(original)
    assert clone._tours.pairs.comps == original._tours.pairs.comps

    start = len(original.ledger.updates)
    for update in stream[300:]:
        original.apply(update)
        clone.apply(update)
    assert costs(clone, start) == costs(original, start) and len(costs(original, start)) == 200
    assert sorted(map(sorted, clone.components())) == sorted(map(sorted, original.components()))
    assert clone.spanning_forest() == original.spanning_forest()
    clone.verify_invariants()
    original.verify_invariants()


@pytest.mark.parametrize("kind", ALGORITHMS)
def test_check_invariants_catches_a_pair_the_map_kept(kind):
    algorithm, stream = make_run(kind, 40, check_invariants=True)
    for update in stream:
        algorithm.apply(update)
    u, v = sorted(algorithm.spanning_forest())[0]
    shard = algorithm._tours._peek(algorithm._tours._machine(u))
    shard.pop_edge(u, v)  # the record goes behind the index's back: its slots stay filled
    # read as a non-tree delete: v's copy goes and its slots empty, u's slots stay; the audit names the first bad position
    with pytest.raises(InvariantViolation, match=r"tour pair index: component \d+: position \d+ holds (no pair end|a pair no tree record)"):
        algorithm.apply(GraphUpdate.delete(u, v))

