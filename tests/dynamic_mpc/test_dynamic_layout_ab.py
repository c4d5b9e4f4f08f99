"""Dynamic hot-path recut: layout A/B, coalesced-batch equivalence, sizing pins.

Three guarantees from the recut are locked down here:

* **Layout A/B** — the ``dict`` (one object per vertex / per tour entry)
  and ``csr`` (flat struct-of-arrays / pair table) state layouts are pure
  storage choices: every dynamic algorithm reaches bit-identical solutions,
  per-update round records and word totals under both, and the Euler-tour
  state — index sets, record pairs, per-machine charges — agrees with the
  ``dict`` oracle at every update boundary, not only at the end.
* **Replaced cuts** — a tree delete that finds a replacement is one composed
  rewrite under ``csr`` and two passes under ``dict``; on plain mixed streams
  (connectivity and MST, ``apply`` and ``apply_batch``) the two agree at
  every boundary on tours, forest, component ids and per-update cost, the
  tours are genuine Euler tours, and two seeded mutations of the composed
  path are caught.
* **Coalesced batches** — with coalescing on, ``apply_batch`` reaches the
  same solution as sequentially replaying the *normalized* stream
  (:meth:`normalize_batch`), never spends more rounds, and this holds on
  every execution backend including the two-slot resident configuration,
  on plain mixed streams, churn-heavy streams and recorded adversarial
  tree-edge streams.
* **Closed-form sizing** — every message tag registered in
  :mod:`repro.mpc.sizing` charges exactly what the recursive reference
  sizer would on randomized representative payloads, so swapping the
  recursive walk for the closed form cannot move a single word in the
  round records.
"""

from __future__ import annotations

import inspect
import random
import textwrap

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
)
from repro.dynamic_mpc.connectivity import TOUR_SHARD_KEY
from repro.dynamic_mpc.state import STATS_KEY, VertexStats
from repro.graph import DynamicGraph, GraphUpdate, UpdateSequence, batched
from repro.graph.graph import normalize_edge
from repro.graph.generators import gnm_random_graph, random_forest, random_weighted_graph
from repro.graph.streams import mixed_stream, tree_edge_adversary_stream
from repro.graph.validation import is_matching, is_maximal_matching
from repro.mpc.layout import DYNAMIC_LAYOUTS, TourShard
from repro.mpc.sizing import closed_form_words, registered_closed_forms, word_size

BACKENDS = ("reference", "fast", "sharded", "parallel", "process", "resident", "resident-shm")
SHARD_COUNT = 3
MAX_WORKERS = 2


def make_config(n: int, m: int, backend: str | None) -> DMPCConfig:
    extra: dict = {}
    real = backend
    if backend in ("sharded", "parallel", "process", "resident", "resident-shm"):
        extra["shard_count"] = SHARD_COUNT
    if backend in ("parallel", "process", "resident", "resident-shm"):
        extra["max_workers"] = MAX_WORKERS
    if backend == "resident-shm":
        real = "resident"
        extra["resident_slots"] = 2
    return DMPCConfig.for_graph(n, m, backend=real, **extra)


def per_update_rounds(algorithm) -> list[tuple[str, int]]:
    return [(u.label, u.num_rounds) for u in algorithm.ledger.updates]


def canonical(components):
    return sorted(sorted(c) for c in components)


def churn_stream(n: int, num_updates: int, seed: int) -> list:
    """A well-formed stream over few vertices, so batches cancel heavily."""
    return list(mixed_stream(n, num_updates, seed=seed, insert_probability=0.5))


def recorded_adversary(n: int, m: int, num_updates: int, seed: int, *, graph=None, make=DMPCConnectivity):
    """Record an adaptive tree-edge adversary stream once, for replays."""
    if graph is None:
        graph = gnm_random_graph(n, m, seed=seed)
    recorder = make(DMPCConfig.for_graph(n, 2 * m))
    recorder.preprocess(graph.copy())
    adaptive = tree_edge_adversary_stream(
        n, num_updates, recorder.spanning_forest, seed=seed + 1, delete_probability=0.6
    )
    adaptive.seed_graph(graph.copy())
    for update in adaptive:
        recorder.apply(update)
    return graph, list(adaptive.history)


# --------------------------------------------------------------- layout A/B
class TestLayoutAB:
    """dict vs csr must be observationally identical on every algorithm."""

    def run_layouts(self, make, graph, stream):
        runs = {}
        for layout in DYNAMIC_LAYOUTS:
            algorithm = make(layout)
            algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
            for update in stream:
                algorithm.apply(update)
            runs[layout] = algorithm
        return runs

    def assert_identical_costs(self, runs):
        dict_run, csr_run = runs["dict"], runs["csr"]
        assert per_update_rounds(dict_run) == per_update_rounds(csr_run)
        assert dict_run.update_summary().as_dict() == csr_run.update_summary().as_dict()

    def test_connectivity(self):
        n, m = 32, 64
        graph = gnm_random_graph(n, m, seed=11)
        stream = list(mixed_stream(n, 90, seed=12, insert_probability=0.5, initial=graph))
        runs = self.run_layouts(
            lambda layout: DMPCConnectivity(
                make_config(n, 2 * m, None), layout=layout, check_invariants=True
            ),
            graph,
            stream,
        )
        assert canonical(runs["dict"].components()) == canonical(runs["csr"].components())
        assert runs["dict"].spanning_forest() == runs["csr"].spanning_forest()
        self.assert_identical_costs(runs)

    def test_connectivity_adversarial(self):
        n, m = 24, 36
        graph, stream = recorded_adversary(n, m, 80, seed=13)
        runs = self.run_layouts(
            lambda layout: DMPCConnectivity(make_config(n, 4 * m, None), layout=layout),
            graph,
            stream,
        )
        assert canonical(runs["dict"].components()) == canonical(runs["csr"].components())
        assert runs["dict"].spanning_forest() == runs["csr"].spanning_forest()
        self.assert_identical_costs(runs)

    def test_approx_mst(self):
        n, m = 24, 48
        graph = random_weighted_graph(n, m, seed=14)
        stream = list(mixed_stream(n, 80, seed=15, insert_probability=0.5, initial=graph, weighted=True))
        runs = self.run_layouts(
            lambda layout: DMPCApproxMST(make_config(n, 2 * m, None), epsilon=0.1, layout=layout),
            graph,
            stream,
        )
        assert runs["dict"].spanning_forest() == runs["csr"].spanning_forest()
        self.assert_identical_costs(runs)

    def test_maximal_matching(self):
        n, m = 32, 64
        graph = gnm_random_graph(n, m, seed=16)
        stream = list(mixed_stream(n, 90, seed=17, insert_probability=0.5, initial=graph))
        runs = self.run_layouts(
            lambda layout: DMPCMaximalMatching(
                make_config(n, 2 * m, None), layout=layout, check_invariants=True
            ),
            graph,
            stream,
        )
        assert runs["dict"].matching() == runs["csr"].matching()
        self.assert_identical_costs(runs)

    def test_three_halves_matching(self):
        n = 24
        stream = churn_stream(n, 100, seed=18)
        runs = self.run_layouts(
            lambda layout: DMPCThreeHalvesMatching(make_config(n, 140, None), layout=layout),
            None,
            stream,
        )
        assert runs["dict"].matching() == runs["csr"].matching()
        self.assert_identical_costs(runs)

    def test_two_plus_eps_matching(self):
        n = 24
        stream = churn_stream(n, 100, seed=19)
        runs = self.run_layouts(
            lambda layout: DMPCTwoPlusEpsMatching(make_config(n, 120, None), seed=7, layout=layout),
            None,
            stream,
        )
        assert runs["dict"].matching() == runs["csr"].matching()
        self.assert_identical_costs(runs)


# ------------------------------------- tour state at every update boundary
def tour_snapshot(algorithm):
    """Layout-neutral tour state: per-vertex (comp, index set), per-record (tree, weight, pair), per-machine words."""
    vertices, rows, words = {}, {}, {}
    for machine in algorithm.cluster.machines(role="worker"):
        words[machine.machine_id] = machine.used_words
        for key, value in machine.items():
            if key == TOUR_SHARD_KEY:
                words[machine.machine_id] -= word_size(key)  # the one store key the dict layout does not have
                for v, comp in value.shard.comp.items():
                    vertices[v] = (comp, value.shard.index_set(v))
                    rows[v] = value.shard.edge_row(v)
            elif key[0] == "tour":
                vertices[key[1]] = (value["comp"], set(value["indexes"]))
            else:
                rows[key[1]] = value
    records = {
        (v, w): (rec["tree"], rec["weight"], None if rec["indexes"] is None else tuple(rec["indexes"]))
        for v, row in rows.items()
        for w, rec in row.items()
    }
    assert set(rows) == set(vertices)
    return vertices, records, words


class TestTourStateAtEveryBoundary:
    """On adversarial streams the pair table never leaves the ``dict`` oracle, step by step."""

    def assert_lockstep(self, make, graph, stream, batch_size=None):
        runs = {layout: make(layout) for layout in DYNAMIC_LAYOUTS}
        for algorithm in runs.values():
            algorithm.preprocess(graph.copy())
        assert tour_snapshot(runs["csr"]) == tour_snapshot(runs["dict"])
        steps = [[update] for update in stream] if batch_size is None else list(batched(stream, batch_size))
        for step in steps:
            for algorithm in runs.values():
                if batch_size is None:
                    algorithm.apply(step[0])
                else:
                    algorithm.apply_batch(step, coalesce=True)
            assert tour_snapshot(runs["csr"]) == tour_snapshot(runs["dict"]), f"layouts diverged after {step}"
        assert per_update_rounds(runs["csr"]) == per_update_rounds(runs["dict"])
        # non-vacuous: tree edges were cut (a non-tree update costs two rounds)
        assert sum(rounds > 2 for _label, rounds in per_update_rounds(runs["csr"])) >= len(steps) // 8

    def test_connectivity(self):
        n, m = 24, 36
        graph, stream = recorded_adversary(n, m, 120, seed=41)
        self.assert_lockstep(
            lambda layout: DMPCConnectivity(make_config(n, 4 * m, None), layout=layout, check_invariants=True),
            graph,
            stream,
        )

    def test_connectivity_coalesced_batches(self):
        n, m = 24, 36
        graph, stream = recorded_adversary(n, m, 160, seed=42)
        self.assert_lockstep(
            lambda layout: DMPCConnectivity(make_config(n, 4 * m, None), layout=layout, check_invariants=True),
            graph,
            stream,
            batch_size=16,
        )

    def test_approx_mst(self):
        n, m = 20, 40
        graph, stream = recorded_adversary(
            n, m, 100, seed=43, graph=random_weighted_graph(n, m, seed=43), make=DMPCApproxMST
        )
        self.assert_lockstep(
            lambda layout: DMPCApproxMST(make_config(n, 4 * m, None), epsilon=0.1, layout=layout, check_invariants=True),
            graph,
            stream,
        )

    def test_shift_only_machines_keep_their_handle(self):
        """A link / cut mints a handle on the endpoint owners only; every other machine of the
        component re-stores the handle it holds — same object, same charge, a newer version."""
        n = 64
        graph = random_forest(n, num_trees=1, seed=44)  # a tree: no replacement edge, so a cut stays a cut
        algorithm = DMPCConnectivity(make_config(n, 2 * n, None), layout="csr", check_invariants=True)
        algorithm.preprocess(graph.copy())
        workers = [m for m in algorithm.cluster.machines(role="worker") if m.load(TOUR_SHARD_KEY) is not None]
        x, y = sorted(algorithm.spanning_forest())[n // 2]
        owners = {algorithm.owner(x), algorithm.owner(y)}
        assert len(workers) > len(owners)
        for update in (GraphUpdate.delete(x, y), GraphUpdate.insert(x, y)):
            before = {m.machine_id: (m.load(TOUR_SHARD_KEY), m.storage.version, m.used_words) for m in workers}
            algorithm.apply(update)
            for machine in workers:
                handle, version, words = before[machine.machine_id]
                assert machine.storage.version > version
                assert (machine.load(TOUR_SHARD_KEY) is handle) == (machine.machine_id not in owners)
                if machine.machine_id not in owners:
                    assert machine.used_words == words


# ------------------------------ a replaced cut is one rewrite, at every boundary
def assert_euler_tours(algorithm):
    """An oracle neither layout shares: each component's index sets spell one closed walk —
    arcs at positions ``(2k + 1, 2k + 2)``, each ending where the next starts — that crosses
    every tree edge of the component once in each direction."""
    vertices, _records, _words = tour_snapshot(algorithm)
    forest = algorithm.spanning_forest()
    walks: dict[int, dict[int, int]] = {}
    for v, (comp, indexes) in vertices.items():
        for i in indexes:
            assert walks.setdefault(comp, {}).setdefault(i, v) == v, f"component {comp}: index {i} is held twice"
    arcs = set()
    for comp, walk in walks.items():
        assert sorted(walk) == list(range(1, len(walk) + 1)) and len(walk) % 4 == 0
        for k in range(1, len(walk), 2):
            tail, head = walk[k], walk[k + 1]
            assert normalize_edge(tail, head) in forest and (tail, head) not in arcs
            assert walk[k + 2 if k + 2 <= len(walk) else 1] == head, f"component {comp}: the walk breaks after {k + 1}"
            arcs.add((tail, head))
    assert len(arcs) == 2 * len(forest)


def mutated(function, old: str, new: str):
    """``function`` recompiled with ``old`` replaced by ``new`` in its source (which must contain it)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, f"{function.__qualname__} no longer contains {old!r}: re-seed the mutation"
    namespace: dict = {}
    exec(compile(source.replace(old, new), f"<mutated {function.__qualname__}>", "exec"), function.__globals__, namespace)
    return namespace[function.__name__]


class TestReplacedCutDifferential:
    """``gnm(n, 2n)`` keeps non-tree edges around, so most tree deletes find a replacement."""

    N = 24
    SEEDS = range(60, 66)
    ALGORITHMS = {
        "connectivity": (DMPCConnectivity, gnm_random_graph, {}),
        "approx-mst": (DMPCApproxMST, random_weighted_graph, {"weighted": True}),
    }

    def make_runs(self, make, graph) -> dict:
        runs = {layout: make(make_config(self.N, 4 * self.N, None), layout=layout) for layout in DYNAMIC_LAYOUTS}
        for algorithm in runs.values():
            algorithm.preprocess(graph.copy())
        return runs

    def lockstep(self, runs: dict, steps, *, batch: bool) -> dict:
        """Both layouts through ``steps`` (lists of updates, drawn lazily); returns how many replaced
        cuts ran, alone and inside a merged group."""
        csr, oracle = runs["csr"], runs["dict"]
        n = self.N

        replaced = {"alone": 0, "grouped": 0}
        commit, apply_group = csr._commit_cut_link, csr._apply_group
        where = ["alone"]

        def counting_commit(cut, link, *, weight):
            replaced[where[0]] += 1
            commit(cut, link, weight=weight)

        def grouped(group):
            where[0] = "grouped"
            apply_group(group)
            where[0] = "alone"

        csr._commit_cut_link, csr._apply_group = counting_commit, grouped

        seen = len(csr.ledger.updates)
        for step in steps:
            for algorithm in runs.values():
                if batch:
                    algorithm.apply_batch(list(step))
                else:
                    algorithm.apply(step[0])
            assert tour_snapshot(csr) == tour_snapshot(oracle), f"layouts diverged after {step}"
            groups = [
                {comp: sorted(map(sorted, index_sets)) for comp, index_sets in algorithm._tours.tour_groups().items()}
                for algorithm in (csr, oracle)
            ]
            assert groups[0] == groups[1]
            assert csr.spanning_forest() == oracle.spanning_forest()
            assert [csr._comp(v) for v in range(n)] == [oracle._comp(v) for v in range(n)]
            costs = [
                [
                    (u.label, u.num_rounds, u.total_words, u.max_words_per_round, u.max_active_machines)
                    for u in algorithm.ledger.updates[seen:]
                ]
                for algorithm in (csr, oracle)
            ]
            assert costs[0] == costs[1] and costs[0]
            seen = len(csr.ledger.updates)
            for algorithm in (csr, oracle):
                algorithm.verify_invariants()
            assert_euler_tours(csr)
            assert set(csr._comp_length) == set(groups[0])  # a spent split-off id leaves nothing behind
        return replaced

    @pytest.mark.parametrize("chunk", [None, 8], ids=["apply", "apply_batch-8"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", sorted(ALGORITHMS))
    def test_layouts_agree_at_every_boundary(self, kind, seed, chunk):
        replaced = self.run_stream(kind, seed, chunk)
        assert replaced["alone"] >= 3  # non-vacuous: the composed rewrite ran

    def run_stream(self, kind: str, seed: int, chunk: "int | None") -> dict:
        n = self.N
        make, make_graph, stream_options = self.ALGORITHMS[kind]
        graph = make_graph(n, 2 * n, seed=seed)
        stream = list(mixed_stream(n, 70, seed=seed + 100, insert_probability=0.5, initial=graph, **stream_options))
        steps = [[update] for update in stream] if chunk is None else batched(stream, chunk)
        return self.lockstep(self.make_runs(make, graph), steps, batch=chunk is not None)

    def test_merged_group_composes_every_cut(self):
        """``_apply_group``'s cut half is its own code, and a cut only shares a group with updates of
        other components: four disjoint cliques lose one tree edge each per batch (any of them has a
        replacement), and get the edges back — as non-tree edges — in the next."""
        blocks, size = 4, self.N // 4
        graph = DynamicGraph(self.N)
        for block in range(blocks):
            members = range(block * size, (block + 1) * size)
            for u in members:
                for v in members:
                    if u < v:
                        graph.insert_edge(u, v)
        runs = self.make_runs(DMPCConnectivity, graph)
        rng = random.Random(7)

        def steps():
            for _ in range(10):
                forest = sorted(runs["csr"].spanning_forest())
                lost = [rng.choice([e for e in forest if e[0] // size == block]) for block in range(blocks)]
                yield [GraphUpdate.delete(u, v) for u, v in lost]
                yield [GraphUpdate.insert(u, v) for u, v in lost]

        assert self.lockstep(runs, steps(), batch=True) == {"alone": 0, "grouped": 40}

    def test_open_interval_bound_is_caught(self, monkeypatch):
        """Seeded mutation: the index at the attachment point (``hi`` itself) stays behind."""
        monkeypatch.setattr(TourShard, "apply_cut_link", mutated(TourShard.apply_cut_link, "<= hi:", "< hi:"))
        with pytest.raises(AssertionError, match="layouts diverged"):
            self.run_stream("connectivity", self.SEEDS[0], None)

    def test_unshifted_rotation_point_is_caught(self, monkeypatch):
        """Seeded mutation: ``l(b)`` read in the old tour's coordinates, not the subtree's.  Both
        layouts take the same wrong scalars and still tile ``1..L``, so it is the Euler-tour
        oracle that has to notice."""
        monkeypatch.setattr(
            DMPCConnectivity,
            "_replacement_link",
            mutated(DMPCConnectivity._replacement_link, "self._tours.span(b)[1] - f_y", "self._tours.span(b)[1]"),
        )
        with pytest.raises(AssertionError, match="the walk breaks"):
            self.run_stream("connectivity", self.SEEDS[0], None)


# ------------------------------- heavy-vertex fabric state at every boundary
def hub_stream(n: int, hubs: tuple[int, ...], seed: int, cycles: int = 2) -> list:
    """Star-building stream: each cycle grows every hub's star over all leaves (past the heavy
    threshold, onto a suspended stack), then deletes three quarters of it in ascending order —
    which chases the hub's matched edge, so the alive set drains and refills from the stack.
    A random leaf-leaf flip after every step matches leaves away from the hubs."""
    rng = random.Random(seed)
    leaves = [v for v in range(n) if v not in hubs]
    updates, present = [], set()

    def flip(u, v):
        edge = (min(u, v), max(u, v))
        if edge in present:
            present.remove(edge)
            updates.append(GraphUpdate.delete(*edge))
        else:
            present.add(edge)
            updates.append(GraphUpdate.insert(*edge))

    for _ in range(cycles):
        for targets in (leaves, leaves[: 3 * len(leaves) // 4]):
            for w in targets:
                for hub in hubs:
                    flip(hub, w)
                flip(*rng.sample(leaves, 2))
    return updates


def fabric_snapshot(algorithm, n):
    """Layout-neutral matching-fabric state: per-vertex suspended stack, per-stats-machine live
    word footprint, matching.

    The footprint is sized *live* on both sides — the table's O(1) ``live_words()`` against a
    fresh walk of the dict layout's ``("st", v)`` records — not read from ``used_words``: the
    dict layout mutates its stored ``VertexStats`` in place, which the storage accounting never
    charges (see ``CachedStorage``), so its stored charge misses every stack push by design,
    while the table's is picked up by the next frozen handle.
    """
    fabric = algorithm.fabric
    stacks = {v: list(fabric.stats_of(v).suspended_machines) for v in range(n)}
    words = {}
    for machine in algorithm.cluster.machines(role="stats"):
        handle = machine.load(STATS_KEY)
        if handle is not None:
            words[machine.machine_id] = handle.table.live_words()
            assert machine.used_words == word_size(STATS_KEY) + handle.dmpc_words()
        else:
            words[machine.machine_id] = sum(word_size(key) + word_size(value) for key, value in machine.items())
    return stacks, words, algorithm.matching()


class TestHeavyFabricAtEveryBoundary:
    """Degrees past the heavy threshold (which ``mm-stream`` never reaches): suspended stacks grow
    through ``add_edge_copy`` and shrink through ``fetch_suspended``, and the flat stats table
    never leaves the ``dict`` oracle — stacks, word footprint, matching — step by step."""

    N, HUBS, CAPACITY_M = 40, (0, 1), 128  # threshold 16 against hub degrees up to 38

    def assert_lockstep(self, make, batch_size=None):
        n = self.N
        stream = hub_stream(n, self.HUBS, seed=16)
        runs = {layout: make(make_config(n, self.CAPACITY_M, None), layout) for layout in DYNAMIC_LAYOUTS}
        for algorithm in runs.values():
            algorithm.preprocess(DynamicGraph(n))
        steps = [[update] for update in stream] if batch_size is None else list(batched(stream, batch_size))
        depths = []
        for step in steps:
            for algorithm in runs.values():
                if batch_size is None:
                    algorithm.apply(step[0])
                else:
                    algorithm.apply_batch(step)
            stacks, words, matching = fabric_snapshot(runs["csr"], n)
            assert (stacks, words, matching) == fabric_snapshot(runs["dict"], n), f"layouts diverged after {step}"
            for algorithm in runs.values():
                fabric = algorithm.fabric
                # the maintained allocation list is the filter it replaced, in pool order
                assert fabric._allocated == [mid for mid in fabric.edge_pool if mid not in fabric._unallocated]
            depths.append(sum(len(stack) for stack in stacks.values()))
        assert per_update_rounds(runs["csr"]) == per_update_rounds(runs["dict"])
        # non-vacuous: stacks were pushed onto and popped (a pop releases the machine to the pool)
        assert any(after > before for before, after in zip([0, *depths], depths))
        assert any(after < before for before, after in zip(depths, depths[1:]))

    def test_maximal_matching(self):
        self.assert_lockstep(lambda config, layout: DMPCMaximalMatching(config, layout=layout, check_invariants=True))

    def test_maximal_matching_batches(self):
        self.assert_lockstep(lambda config, layout: DMPCMaximalMatching(config, layout=layout), batch_size=8)

    def test_three_halves_matching(self):
        self.assert_lockstep(lambda config, layout: DMPCThreeHalvesMatching(config, layout=layout))

    @pytest.mark.parametrize("layout", DYNAMIC_LAYOUTS)
    def test_three_halves_matching_stays_maximal(self, layout):
        """Regression: a hub whose degree fell below the threshold with neighbours still on its
        suspended stack was settled as a light vertex — its free suspended neighbours were never
        looked at, and the matching was not maximal for 27 boundaries of this stream (it ended
        maximal only because later deletions removed the missed edges)."""
        n = self.N
        algorithm = DMPCThreeHalvesMatching(make_config(n, self.CAPACITY_M, None), layout=layout)
        algorithm.preprocess(DynamicGraph(n))
        graph = DynamicGraph(n)
        for update in hub_stream(n, self.HUBS, seed=16):
            algorithm.apply(update)
            UpdateSequence([update]).apply_to(graph)
            matching = algorithm.matching()
            assert is_matching(graph, matching)
            assert is_maximal_matching(graph, matching), f"not maximal after {update}"


# ------------------------------------------------- coalesced-batch replay
def coalesced_pair(make, graph, stream, batch_size):
    """Batched-with-coalescing vs sequential replay of the normalized stream."""
    batch = make()
    sequential = make()
    for algorithm in (batch, sequential):
        algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
    for chunk in batched(stream, batch_size):
        chunk = list(chunk)
        batch.apply_batch(chunk, coalesce=True)
        for update in sequential.normalize_batch(chunk)[0]:
            sequential.apply(update)
    return sequential, batch


class TestCoalescedBatchReplay:
    def test_connectivity_bit_identical_to_normalized_replay(self):
        n = 16  # few vertices → heavy churn → real cancellations
        stream = churn_stream(n, 160, seed=21)
        sequential, batch = coalesced_pair(
            lambda: DMPCConnectivity(make_config(n, 120, None), check_invariants=True),
            None,
            stream,
            16,
        )
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()
        assert batch.update_round_total() <= sequential.update_round_total()
        assert batch.coalesce_totals["input"] == 160
        assert batch.coalesce_totals["output"] < 160  # churn genuinely cancelled
        assert batch.coalesce_totals["cancelled_pairs"] > 0

    def test_connectivity_adversarial_stream(self):
        n, m = 24, 36
        graph, stream = recorded_adversary(n, m, 100, seed=22)
        sequential, batch = coalesced_pair(
            lambda: DMPCConnectivity(make_config(n, 4 * m, None)), graph, stream, 16
        )
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()
        assert batch.update_round_total() <= sequential.update_round_total()

    def test_maximal_matching_bit_identical_to_normalized_replay(self):
        n = 16
        graph = gnm_random_graph(n, 24, seed=23)
        stream = list(mixed_stream(n, 140, seed=24, insert_probability=0.5, initial=graph))
        sequential, batch = coalesced_pair(
            lambda: DMPCMaximalMatching(make_config(n, 120, None), check_invariants=True),
            graph,
            stream,
            16,
        )
        assert sequential.matching() == batch.matching()
        assert batch.update_round_total() <= sequential.update_round_total()

    def test_three_halves_matching(self):
        n = 16
        stream = churn_stream(n, 120, seed=25)
        sequential, batch = coalesced_pair(
            lambda: DMPCThreeHalvesMatching(make_config(n, 100, None)), None, stream, 12
        )
        assert sequential.matching() == batch.matching()
        assert batch.update_round_total() <= sequential.update_round_total()

    def test_two_plus_eps_matching(self):
        n = 16
        stream = churn_stream(n, 120, seed=26)
        sequential, batch = coalesced_pair(
            lambda: DMPCTwoPlusEpsMatching(make_config(n, 100, None), seed=7), None, stream, 12
        )
        assert sequential.matching() == batch.matching()

    def test_approx_mst(self):
        n, m = 20, 40
        graph = random_weighted_graph(n, m, seed=27)
        stream = list(mixed_stream(n, 100, seed=28, insert_probability=0.5, initial=graph, weighted=True))
        sequential, batch = coalesced_pair(
            lambda: DMPCApproxMST(make_config(n, 2 * m, None), epsilon=0.1), graph, stream, 12
        )
        assert sequential.spanning_forest() == batch.spanning_forest()
        assert canonical(sequential.components()) == canonical(batch.components())

    def test_constructor_and_env_toggles(self, monkeypatch):
        n = 12
        stream = churn_stream(n, 40, seed=29)
        explicit = DMPCConnectivity(make_config(n, 60, None), coalesce=True)
        assert explicit.coalesce is True
        monkeypatch.setenv("REPRO_COALESCE_UPDATES", "1")
        from_env = DMPCConnectivity(make_config(n, 60, None))
        assert from_env.coalesce is True
        for chunk in batched(stream, 8):
            from_env.apply_batch(chunk)  # no per-call flag: the env toggle drives it
        assert from_env.last_coalesce_stats is not None
        monkeypatch.delenv("REPRO_COALESCE_UPDATES")
        default = DMPCConnectivity(make_config(n, 60, None))
        assert default.coalesce is False


# ------------------------------------------------ all seven backends
class TestCoalescedAcrossBackends:
    """Coalesced batches are backend-invariant: solutions, rounds and words."""

    def run_all(self, make, graph, stream, batch_size):
        runs = {}
        for backend in BACKENDS:
            algorithm = make(backend)
            algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
            for chunk in batched(stream, batch_size):
                algorithm.apply_batch(chunk, coalesce=True)
            runs[backend] = algorithm
        return runs

    def assert_backend_invariant(self, runs, extract, what):
        reference = extract(runs["reference"])
        for backend in BACKENDS[1:]:
            assert extract(runs[backend]) == reference, f"{backend} diverged: {what}"

    def test_connectivity_churn(self):
        n = 16
        stream = churn_stream(n, 96, seed=31)
        runs = self.run_all(
            lambda backend: DMPCConnectivity(make_config(n, 96, backend)), None, stream, 12
        )
        self.assert_backend_invariant(runs, lambda a: canonical(a.components()), "components")
        self.assert_backend_invariant(runs, lambda a: a.spanning_forest(), "spanning forest")
        self.assert_backend_invariant(runs, per_update_rounds, "per-update rounds")
        self.assert_backend_invariant(runs, lambda a: a.update_summary().as_dict(), "update summary")
        self.assert_backend_invariant(runs, lambda a: a.coalesce_totals, "coalesce totals")

    def test_connectivity_adversarial(self):
        n, m = 20, 30
        graph, stream = recorded_adversary(n, m, 80, seed=32)
        runs = self.run_all(
            lambda backend: DMPCConnectivity(make_config(n, 4 * m, backend)), graph, stream, 16
        )
        self.assert_backend_invariant(runs, lambda a: canonical(a.components()), "components")
        self.assert_backend_invariant(runs, lambda a: a.spanning_forest(), "spanning forest")
        self.assert_backend_invariant(runs, per_update_rounds, "per-update rounds")
        self.assert_backend_invariant(runs, lambda a: a.update_summary().as_dict(), "update summary")

    def test_maximal_matching_churn(self):
        n = 16
        graph = gnm_random_graph(n, 24, seed=33)
        stream = list(mixed_stream(n, 96, seed=34, insert_probability=0.5, initial=graph))
        runs = self.run_all(
            lambda backend: DMPCMaximalMatching(make_config(n, 120, backend)), graph, stream, 12
        )
        self.assert_backend_invariant(runs, lambda a: a.matching(), "matching")
        self.assert_backend_invariant(runs, per_update_rounds, "per-update rounds")
        self.assert_backend_invariant(runs, lambda a: a.update_summary().as_dict(), "update summary")


# --------------------------------------------------- closed-form sizing pins
def _stats_entries(rng: random.Random, k: int):
    entries = []
    for _ in range(k):
        stats = VertexStats(
            degree=rng.randrange(10),
            mate=rng.choice([None, rng.randrange(50)]),
            heavy=rng.random() < 0.3,
            alive_machine=rng.choice([None, f"edge-machine-{rng.randrange(12)}"]),
            suspended_machines=[f"suspended-edge-{rng.randrange(40)}" for _ in range(rng.randrange(4))],
            free_neighbors=rng.randrange(5),
        )
        entries.append((rng.randrange(100), stats.as_payload()))
    return entries


#: one randomized representative-payload builder per registered tag, shaped
#: exactly like the payload each protocol send ships
PAYLOAD_BUILDERS = {
    "endpoint-info": lambda rng: tuple(rng.randrange(100) for _ in range(rng.randrange(1, 4))),
    "endpoint-ack": lambda rng: None,
    "path-max-offer": lambda rng: (rng.random(), rng.randrange(50), rng.randrange(50)),
    "stats-query": lambda rng: sorted(rng.sample(range(100), rng.randrange(1, 9))),
    "stats-reply": lambda rng: _stats_entries(rng, rng.randrange(1, 5)),
    "stats-write": lambda rng: _stats_entries(rng, rng.randrange(1, 5)),
    "vertex-reply": lambda rng: {
        "free": rng.choice([None, rng.randrange(50)]),
        "matched": [(rng.randrange(50), rng.randrange(50)) for _ in range(rng.randrange(4))],
    },
    "suspended-reply": lambda rng: rng.choice([None, rng.randrange(50)]),
    "batch-free-reply": lambda rng: [
        (rng.randrange(50), rng.choice([None, rng.randrange(50)])) for _ in range(rng.randrange(1, 7))
    ],
    "neighbor-list-reply": lambda rng: [rng.randrange(100) for _ in range(rng.randrange(7))],
    "counter-delta": lambda rng: [
        (rng.randrange(50), rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 7))
    ],
    "add-edge": lambda rng: (rng.randrange(50), rng.randrange(50)),
    "move-request": lambda rng: rng.randrange(50),
    "fetch-suspended": lambda rng: (rng.randrange(50), rng.randrange(1, 9)),
    "edge-insert": lambda rng: (rng.randrange(50), rng.randrange(50), rng.randrange(4), rng.random() < 0.5),
    "edge-delete": lambda rng: (rng.randrange(50), rng.randrange(50)),
    "enqueue-free": lambda rng: (rng.randrange(50), rng.randrange(4)),
    "notify": lambda rng: [
        (rng.randrange(50), (rng.randrange(50), rng.randrange(4), rng.random() < 0.5))
        for _ in range(rng.randrange(1, 6))
    ],
    "propose": lambda rng: (rng.randrange(50), rng.randrange(50), rng.randrange(4)),
    "propose-reply": lambda rng: rng.random() < 0.5,
}


class TestClosedFormPins:
    def test_every_registered_tag_has_a_payload_builder(self):
        assert set(registered_closed_forms()) == set(PAYLOAD_BUILDERS)

    @pytest.mark.parametrize("tag", sorted(PAYLOAD_BUILDERS))
    def test_closed_form_equals_reference_sizer(self, tag):
        rng = random.Random(hash(tag) & 0xFFFF)
        build = PAYLOAD_BUILDERS[tag]
        for _ in range(50):
            payload = build(rng)
            expected = word_size(tag) + word_size(payload)
            assert closed_form_words(tag, payload) == expected, (
                f"{tag}: closed form diverged from the reference sizer on {payload!r}"
            )
