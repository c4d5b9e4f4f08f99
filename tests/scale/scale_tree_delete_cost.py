"""Cost guard: what a replaced tree delete rewrites on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 2 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_tree_delete_cost.py

A tree-edge deletion is the whole cost of Section 5's connectivity row
(``cc-stream``), and most of them find a replacement edge.  Four
deterministic counts per *replaced* tree delete at n = 1 024 (events of a
``sys.setprofile`` hook), over the worker machines that hold a tour shard
at all:

* ``TourShard`` method calls — a constant (the endpoints' scalars, the six
  edge-record edits and their commits), not one per shard: no shard rewrites an index or
  builds its own offers, the ``TourPairs`` map does, one pass per broadcast;
* passes over the map per rewrite broadcast — ``dict.values`` /
  ``dict.items`` calls on one of the map's component dicts, per
  ``tour-scalars`` broadcast: one (the offers scan after the cut's, the
  composed cut-link rewrite after the replacement link's);
* ``Machine.store`` calls beyond one per non-empty shard — the six
  edge-record commits of the two edges involved;
* ``dict.values`` calls on anything but the map, made by the map's passes
  and the store's sweeps — none: they walk the map, not members' tree rows.

Each bound is the measured value + 20 % (rounded up).  The guard trips when
a per-shard kernel comes back (the shard count is ≈ 100), when a broadcast
scans the map twice, when the store sweep grows stores, or when a pass
reads members' tree rows.
"""

from __future__ import annotations

import math
import random
import sys

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCConnectivity
from repro.dynamic_mpc.connectivity import TOUR_SHARD_KEY, _ShardTourStore
from repro.graph import GraphUpdate, gnm_random_graph
from repro.mpc import Machine
from repro.mpc.layout import TourPairs, TourShard

N = 1024
DELETES = 60
#: 3 edge-row and 1–2 span reads for the scalars; 2 record sets and 6 pops (each set pops the record
#: it replaces); 12 charge reads by the six commits.  None per shard.
MEASURED_SHARD_CALLS = 25
#: the offers scan reads the map once, the composed rewrite once: one pass per broadcast
MEASURED_PASSES_PER_BROADCAST = 1
#: the deleted edge's two records go, the replacement's two non-tree records go, its two tree records come
MEASURED_STORES_BEYOND_SHARDS = 6
#: the passes walk the map: no tree row is read
MEASURED_ROW_READS = 0
SLACK = 1.2

SHARD_METHODS = {f.__code__ for f in vars(TourShard).values() if callable(f) and hasattr(f, "__code__")}
PASSES = {f.__code__ for f in (TourPairs.link, TourPairs.cut, TourPairs.inside, TourPairs.cut_link)} | {
    f.__code__
    for f in (
        _ShardTourStore.apply_link,
        _ShardTourStore.apply_cut,
        _ShardTourStore.apply_cut_link,
        _ShardTourStore.subtree_offers,
        _ShardTourStore._by_owner,
        _ShardTourStore._restore,
    )
}
BROADCAST = DMPCConnectivity._fan_out_scalars.__code__
STORE = Machine.store.__code__


def test_a_replaced_tree_delete_passes_over_the_map_once_per_broadcast():
    graph = gnm_random_graph(N, 2 * N, seed=2019)
    algorithm = DMPCConnectivity(DMPCConfig.for_graph(N, 4 * N, backend="fast"))
    algorithm.preprocess(graph.copy())
    non_empty = sum(machine.load(TOUR_SHARD_KEY) is not None for machine in algorithm.cluster.machines(role="worker"))
    assert non_empty > 64
    comps = algorithm._tours.pairs.comps

    counts = dict.fromkeys(("shard", "passes", "broadcasts", "store", "rows"), 0)
    map_dicts: set[int] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in SHARD_METHODS:
                counts["shard"] += 1
            elif code is STORE:
                counts["store"] += 1
            elif code is BROADCAST:
                counts["broadcasts"] += 1
        elif event == "c_call" and getattr(arg, "__qualname__", "") in ("dict.values", "dict.items"):
            if id(getattr(arg, "__self__", None)) in map_dicts:
                counts["passes"] += 1
            elif arg.__qualname__ == "dict.values" and frame.f_code in PASSES:
                counts["rows"] += 1

    rng = random.Random(24)
    replaced = []
    for _ in range(DELETES):
        u, v = rng.choice(sorted(algorithm.spanning_forest()))
        counts.update(dict.fromkeys(counts, 0))
        map_dicts.clear()
        map_dicts.update(id(held) for held in comps.values())
        sys.setprofile(hook)
        try:
            algorithm.apply(GraphUpdate.delete(u, v))
        finally:
            sys.setprofile(None)
        # endpoint query (2) + cut broadcast + offers + link broadcast: the delete found a replacement
        if algorithm.ledger.updates[-1].num_rounds == 5:
            replaced.append(dict(counts))
        algorithm.apply(GraphUpdate.insert(u, v))
    algorithm.verify_invariants()

    assert len(replaced) >= DELETES // 2, "gnm(n, 2n) keeps enough non-tree edges to replace most tree deletes"
    assert all(c["broadcasts"] == 2 for c in replaced)
    shard_calls = max(c["shard"] for c in replaced)
    passes = max(c["passes"] / c["broadcasts"] for c in replaced)
    stores_beyond = max(c["store"] for c in replaced) - non_empty
    row_reads = max(c["rows"] for c in replaced)
    print(
        f"\n{len(replaced)} replaced tree deletes over {non_empty} non-empty shards: "
        f"TourShard calls {shard_calls} (bound {MEASURED_SHARD_CALLS * SLACK:g} rounded up), "
        f"map passes per broadcast {passes:g} (bound {MEASURED_PASSES_PER_BROADCAST * SLACK:g}), "
        f"Machine.store calls beyond one per shard {stores_beyond} (bound {MEASURED_STORES_BEYOND_SHARDS * SLACK:g} rounded up), "
        f"dict.values calls off the map in the passes {row_reads} (bound {MEASURED_ROW_READS * SLACK:g} rounded up)"
    )
    assert shard_calls <= math.ceil(MEASURED_SHARD_CALLS * SLACK)
    assert passes <= MEASURED_PASSES_PER_BROADCAST * SLACK
    assert stores_beyond <= math.ceil(MEASURED_STORES_BEYOND_SHARDS * SLACK)
    assert row_reads <= math.ceil(MEASURED_ROW_READS * SLACK)
