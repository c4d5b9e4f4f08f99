"""Cost guard: what a replaced tree delete visits and rewrites on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 2 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_tree_delete_cost.py

A tree-edge deletion is the whole cost of Section 5's connectivity row
(``cc-stream``), and most of them find a replacement edge.  Six
deterministic counts per *replaced* tree delete at n = 1 024, over the
worker machines that hold a tour shard at all:

* slots of the ``TourPairs`` position index visited — the distinct tour
  positions read or written through the component's index (its list is
  swapped for a counting subclass before the delete) — against the
  positions the rewrite moves: the span from the cut edge's hole to the
  attachment point, which holds the subtree, the slots between the two and
  the four positions of the cut and the new edge.  The giant component is
  ≈ 4 000 positions; the span of a replaced delete is ≈ 1 500 on average;
* iterations over a component's whole index (``iter``, a slice that
  covers it, a pass over every pair) — none;
* ``TourShard`` method calls — a constant (the endpoints' scalars, the six
  edge-record edits and their commits), not one per shard: no shard
  rewrites an index or builds its own offers, the index does;
* ``Machine.store`` calls — the six edge-record commits of the two edges
  involved, and no other: a shift or a relabel moves no charge, so no
  shard re-stores its handle;
* tour-handle loads (``Machine.load`` of the shard key) beyond one per
  machine that offers for the subtree — the endpoints' reads and the six
  commits' loads, a constant, not one per worker;
* ``dict.values`` calls made by the index's passes and the store's sweeps —
  none: they slice the index, not members' tree rows.

Each bound is the measured value + 20 % (rounded up).  The guard trips when
a pass walks the whole component again (as the keyed pair map before the
position index did, twice per replaced delete), when a per-shard kernel
comes back (the shard count is ≈ 100), when a pass re-stores or loads the
handle of every shard (as the re-store sweep after each pass did: ≈ 142
loads per replaced delete), or when a pass reads members' tree rows.
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
#: the index's passes and the records' edits visit exactly the span the rewrite moves
MEASURED_VISITS_PER_MOVED_POSITION = 1
#: no pass iterates a component's whole index
MEASURED_WHOLE_INDEX_PASSES = 0
#: 3 edge-row and 1–2 span reads for the scalars; 2 record sets and 6 pops (each set pops the record
#: it replaces); 12 charge reads by the six commits.  None per shard.
MEASURED_SHARD_CALLS = 25
#: the deleted edge's two records go, the replacement's two non-tree records go, its two tree records come
MEASURED_STORES = 6
#: beyond one per machine offering for the subtree: 5–6 reads for the endpoints' scalars and records, 6 by the commits
MEASURED_LOADS_BEYOND_OFFERS = 12
#: the passes slice the index: no tree row is read
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
        _ShardTourStore._relabel,
    )
}
BROADCAST = DMPCConnectivity._broadcast.__code__
STORE = Machine.store.__code__
LOAD = Machine.load.__code__

#: positions visited through the index during one delete, and whole-index passes
visited: "set[int]" = set()
whole = [0]


class CountingIndex(list):
    """A component's position list that records every position read or written through it."""

    def _visit(self, key) -> None:
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if start <= 1 and stop >= len(self):
                whole[0] += 1
            visited.update(range(start, stop, step))
        else:
            visited.add(key)

    def __getitem__(self, key):
        self._visit(key)
        return list.__getitem__(self, key)

    def __setitem__(self, key, value):
        self._visit(key)
        list.__setitem__(self, key, value)

    def __delitem__(self, key):
        self._visit(key)
        list.__delitem__(self, key)

    def __iter__(self):
        whole[0] += 1
        visited.update(range(len(self)))
        return list.__iter__(self)


class CountingPairMap(dict):
    """A keyed ``{(v, w): pair}`` component map (the layout before the position index): a pass over
    it visits every position its pairs hold."""

    def _pass(self) -> None:
        whole[0] += 1
        visited.update(i for pair in dict.values(self) for i in pair)

    def values(self):
        self._pass()
        return dict.values(self)

    def items(self):
        self._pass()
        return dict.items(self)

    def __iter__(self):
        self._pass()
        return dict.__iter__(self)


def counting(held):
    if isinstance(held, (CountingIndex, CountingPairMap)):
        return held
    return CountingIndex(held) if isinstance(held, list) else CountingPairMap(held)


def test_a_replaced_tree_delete_visits_only_the_span_it_moves():
    graph = gnm_random_graph(N, 2 * N, seed=2019)
    algorithm = DMPCConnectivity(DMPCConfig.for_graph(N, 4 * N, backend="fast"))
    algorithm.preprocess(graph.copy())
    non_empty = sum(machine.load(TOUR_SHARD_KEY) is not None for machine in algorithm.cluster.machines(role="worker"))
    assert non_empty > 64
    comps = algorithm._tours.pairs.comps

    # the span a replaced delete moves, from the scalars its one composed rewrite receives
    spans: list = []
    commit = algorithm._commit_cut_link

    def measuring_commit(cut, link, *, weight):
        f_y, l_y, f_x, gap = cut["f_y"], cut["l_y"], link["f_x"], link["len_y"] + 4
        spans.append(max(l_y + 1, f_x + gap) - min(f_x + 1, f_y - 1) + 1)
        commit(cut, link, weight=weight)

    algorithm._commit_cut_link = measuring_commit

    # the machines that offer for the subtree: each loads its handle once
    offering = [0]
    subtree_offers = algorithm._tours.subtree_offers

    def counting_offers(cuts):
        for machine, per_cut in subtree_offers(cuts):
            offering[0] += 1
            yield machine, per_cut

    algorithm._tours.subtree_offers = counting_offers

    counts = dict.fromkeys(("shard", "broadcasts", "store", "loads", "rows"), 0)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in SHARD_METHODS:
                counts["shard"] += 1
            elif code is STORE:
                counts["store"] += 1
            elif code is LOAD and frame.f_locals["key"] == TOUR_SHARD_KEY:
                counts["loads"] += 1
            elif code is BROADCAST:
                counts["broadcasts"] += 1
        elif event == "c_call" and getattr(arg, "__qualname__", "") == "dict.values" and frame.f_code in PASSES:
            counts["rows"] += 1

    rng = random.Random(24)
    replaced = []
    sizes = []
    for _ in range(DELETES):
        u, v = rng.choice(sorted(algorithm.spanning_forest()))
        for comp in comps:
            comps[comp] = counting(comps[comp])
        counts.update(dict.fromkeys(counts, 0))
        visited.clear()
        whole[0] = 0
        spans.clear()
        offering[0] = 0
        size = max(map(len, comps.values()))
        sys.setprofile(hook)
        try:
            algorithm.apply(GraphUpdate.delete(u, v))
        finally:
            sys.setprofile(None)
        # endpoint query (2) + cut broadcast + offers + link broadcast: the delete found a replacement
        if algorithm.ledger.updates[-1].num_rounds == 5:
            assert len(spans) == 1
            replaced.append(dict(counts, visited=len(visited), moved=spans[0], whole=whole[0], offering=offering[0]))
            sizes.append(size)
        algorithm.apply(GraphUpdate.insert(u, v))
    algorithm.verify_invariants()

    assert len(replaced) >= DELETES // 2, "gnm(n, 2n) keeps enough non-tree edges to replace most tree deletes"
    assert all(c["broadcasts"] == 2 for c in replaced)
    visits = max(c["visited"] / c["moved"] for c in replaced)
    whole_passes = max(c["whole"] for c in replaced)
    shard_calls = max(c["shard"] for c in replaced)
    stores = max(c["store"] for c in replaced)
    loads_beyond = max(c["loads"] - c["offering"] for c in replaced)
    row_reads = max(c["rows"] for c in replaced)

    def mean(key: str) -> float:
        return sum(c[key] for c in replaced) / len(replaced)

    print(
        f"\n{len(replaced)} replaced tree deletes over {non_empty} non-empty shards, components of up to "
        f"{max(sizes)} positions: index slots visited {mean('visited'):.0f} on average against "
        f"{mean('moved'):.0f} moved, at most {visits:g} per moved position "
        f"(bound {MEASURED_VISITS_PER_MOVED_POSITION * SLACK:g}), whole-index passes {whole_passes} "
        f"(bound {MEASURED_WHOLE_INDEX_PASSES}), "
        f"TourShard calls {shard_calls} (bound {MEASURED_SHARD_CALLS * SLACK:g} rounded up), "
        f"Machine.store calls {stores} (bound {MEASURED_STORES * SLACK:g} rounded up), "
        f"tour-handle loads {mean('loads'):.1f} on average, beyond one per offering machine {loads_beyond} "
        f"(bound {MEASURED_LOADS_BEYOND_OFFERS * SLACK:g} rounded up), "
        f"dict.values calls in the passes {row_reads} (bound {MEASURED_ROW_READS * SLACK:g} rounded up)"
    )
    for c in replaced:
        assert c["visited"] <= math.ceil(MEASURED_VISITS_PER_MOVED_POSITION * SLACK * c["moved"]), c
    assert whole_passes <= MEASURED_WHOLE_INDEX_PASSES
    assert shard_calls <= math.ceil(MEASURED_SHARD_CALLS * SLACK)
    assert stores <= math.ceil(MEASURED_STORES * SLACK)
    assert loads_beyond <= math.ceil(MEASURED_LOADS_BEYOND_OFFERS * SLACK)
    assert row_reads <= math.ceil(MEASURED_ROW_READS * SLACK)
