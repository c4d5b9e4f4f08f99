"""Cost guard: what a replaced tree delete rewrites on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 2 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_tree_delete_cost.py

A tree-edge deletion is the whole cost of Section 5's connectivity row
(``cc-stream``), and most of them find a replacement edge.  Two deterministic
counts per *replaced* tree delete at n = 1 024 (``call`` events of a
``sys.setprofile`` hook on the named code objects), over the worker machines
that hold a tour shard at all:

* index-rewriting kernel calls (``TourShard.apply_cut`` / ``apply_link`` /
  ``apply_cut_link``) per non-empty shard — one composed rewrite;
* ``Machine.store`` calls beyond one per non-empty shard — the six edge-record
  commits of the two edges involved.

Each bound is the value PR 24 measured + 20 % (rounded up); its parent
measured 2 kernel calls per shard and 2 × shards + 6 stores.
"""

from __future__ import annotations

import math
import random
import sys

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCConnectivity
from repro.dynamic_mpc.connectivity import TOUR_SHARD_KEY
from repro.graph import GraphUpdate, gnm_random_graph
from repro.mpc import Machine
from repro.mpc.layout import TourShard

N = 1024
DELETES = 60
#: PR 24: one ``apply_cut_link`` per shard
MEASURED_KERNEL_CALLS_PER_SHARD = 1
#: PR 24: the deleted edge's two records go, the replacement's two non-tree records go, its two tree records come
MEASURED_STORES_BEYOND_SHARDS = 6
SLACK = 1.2

KERNELS = {TourShard.apply_cut.__code__, TourShard.apply_link.__code__, TourShard.apply_cut_link.__code__}
STORE = Machine.store.__code__


def test_a_replaced_tree_delete_rewrites_each_shard_once():
    graph = gnm_random_graph(N, 2 * N, seed=2019)
    algorithm = DMPCConnectivity(DMPCConfig.for_graph(N, 4 * N, backend="fast"), layout="csr")
    algorithm.preprocess(graph.copy())
    non_empty = sum(machine.load(TOUR_SHARD_KEY) is not None for machine in algorithm.cluster.machines(role="worker"))
    assert non_empty > 64

    counts = {"kernel": 0, "store": 0}

    def hook(frame, event, _arg):
        if event == "call":
            if frame.f_code in KERNELS:
                counts["kernel"] += 1
            elif frame.f_code is STORE:
                counts["store"] += 1

    rng = random.Random(24)
    replaced = []
    for _ in range(DELETES):
        u, v = rng.choice(sorted(algorithm.spanning_forest()))
        counts["kernel"] = counts["store"] = 0
        sys.setprofile(hook)
        try:
            algorithm.apply(GraphUpdate.delete(u, v))
        finally:
            sys.setprofile(None)
        # endpoint query (2) + cut broadcast + offers + link broadcast: the delete found a replacement
        if algorithm.ledger.updates[-1].num_rounds == 5:
            replaced.append((counts["kernel"], counts["store"]))
        algorithm.apply(GraphUpdate.insert(u, v))
    algorithm.verify_invariants()

    assert len(replaced) >= DELETES // 2, "gnm(n, 2n) keeps enough non-tree edges to replace most tree deletes"
    kernel_calls = max(kernel for kernel, _store in replaced) / non_empty
    stores_beyond = max(store for _kernel, store in replaced) - non_empty
    print(
        f"\n{len(replaced)} replaced tree deletes over {non_empty} non-empty shards: "
        f"kernel calls per shard {kernel_calls:g} (bound {MEASURED_KERNEL_CALLS_PER_SHARD * SLACK:g}), "
        f"Machine.store calls beyond one per shard {stores_beyond} (bound {MEASURED_STORES_BEYOND_SHARDS * SLACK:g} rounded up)"
    )
    assert kernel_calls <= MEASURED_KERNEL_CALLS_PER_SHARD * SLACK
    assert stores_beyond <= math.ceil(MEASURED_STORES_BEYOND_SHARDS * SLACK)
