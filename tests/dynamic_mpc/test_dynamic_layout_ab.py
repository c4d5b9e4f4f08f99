"""Dynamic hot path: pinned ledgers, tours against the seed oracle, coalesced batches, sizing pins.

Five guarantees are locked down here:

* **Pinned ledgers** — until the flat tables were the only layout, every
  dynamic algorithm also ran on per-vertex dict stores, and the two agreed
  bit for bit.  What they agreed on is pinned as one SHA-256 digest per
  stream over the per-update ``(label, rounds, words, max words per round,
  max active machines)`` rows and the solution, recorded while both ran;
  every execution backend must reproduce it.
* **Tours against the oracle** — the Euler-tour state of the tour shards
  and their position index (index sets, record pairs, per-machine charges) agrees at every
  update boundary with the seed's per-vertex store
  (``tour_oracle.DictTourStore``) run in lockstep, on adversarial streams
  and on plain mixed streams where most tree deletes find a replacement
  (one composed rewrite in the shards, two passes in the oracle); the tours
  are genuine Euler tours, and two seeded mutations of the composed path
  and one of the position index are caught.
* **Heavy vertices** — through suspended-stack growth and refill, the
  matching stays a maximal matching of the graph at every boundary.
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

import functools
import hashlib
import random

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
from repro.dynamic_mpc.state import STATS_KEY, MatchingFabric, VertexStats
from repro.graph import DynamicGraph, GraphUpdate, UpdateSequence, batched
from repro.graph.graph import normalize_edge
from repro.graph.generators import gnm_random_graph, random_forest, random_weighted_graph
from repro.graph.streams import mixed_stream, tree_edge_adversary_stream
from repro.graph.validation import is_matching, is_maximal_matching
from repro.mpc.layout import TourPairs
from repro.mpc.sizing import closed_form_words, registered_closed_forms, word_size
from seeded_mutation import mutated
from tour_oracle import DictTourStore

BACKENDS = ("reference", "fast", "resident", "resident-shm")
RESIDENT_SLOTS = 2


def make_config(n: int, m: int, backend: str | None) -> DMPCConfig:
    if backend == "resident-shm":
        return DMPCConfig.for_graph(n, m, backend="resident", resident_slots=RESIDENT_SLOTS)
    return DMPCConfig.for_graph(n, m, backend=backend)


def per_update_rounds(algorithm) -> list[tuple[str, int]]:
    return [(u.label, u.num_rounds) for u in algorithm.ledger.updates]


def canonical(components):
    return sorted(sorted(c) for c in components)


def ledger_digest(ledger, solution) -> str:
    """SHA-256 over the per-update cost rows and the solution (``repr`` of both)."""
    rows = [(u.label, u.num_rounds, u.total_words, u.max_words_per_round, u.max_active_machines) for u in ledger.updates]
    return hashlib.sha256(repr((rows, solution)).encode()).hexdigest()


def with_oracle(algorithm):
    """``algorithm`` with its tour shards swapped for the seed's per-vertex store (before ``preprocess``)."""
    algorithm._tours = DictTourStore(algorithm)
    return algorithm


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


# ------------------------------------------------------------ pinned ledgers
def connectivity_solution(algorithm):
    return canonical(algorithm.components()), sorted(algorithm.spanning_forest())


def matching_solution(algorithm):
    return sorted(algorithm.matching())


def mixed_inputs(make_graph, n: int, m: int, graph_seed: int, length: int, stream_seed: int, **options):
    graph = make_graph(n, m, seed=graph_seed)
    return graph, list(mixed_stream(n, length, seed=stream_seed, insert_probability=0.5, initial=graph, **options))


#: name -> (inputs() -> (initial graph or None, stream), make(backend), solution, digest)
PINNED = {
    "connectivity": (
        lambda: mixed_inputs(gnm_random_graph, 32, 64, 11, 90, 12),
        lambda backend: DMPCConnectivity(make_config(32, 128, backend), check_invariants=True),
        connectivity_solution,
        "d251a8e4e429d7be02a00269b4b22adf78c28c4238d75e5255264961994bb609",
    ),
    "connectivity_adversarial": (
        lambda: recorded_adversary(24, 36, 80, seed=13),
        lambda backend: DMPCConnectivity(make_config(24, 144, backend)),
        connectivity_solution,
        "9d1f1f0fef99e87d7b0cd2bcc24a5d58fa8d529d3deaacc015d573020a5b915b",
    ),
    "approx_mst": (
        lambda: mixed_inputs(random_weighted_graph, 24, 48, 14, 80, 15, weighted=True),
        lambda backend: DMPCApproxMST(make_config(24, 96, backend), epsilon=0.1),
        lambda algorithm: sorted(algorithm.spanning_forest()),
        "a051a0078a8f208f6bc4da44ccfdd348a63587ad5d18673cdbad16890af83019",
    ),
    "maximal_matching": (
        lambda: mixed_inputs(gnm_random_graph, 32, 64, 16, 90, 17),
        lambda backend: DMPCMaximalMatching(make_config(32, 128, backend), check_invariants=True),
        matching_solution,
        "41c18f4383e5317037fa71b5c16059df96beef823bc565c6b97001cd1cd9debf",
    ),
    "three_halves_matching": (
        lambda: (None, churn_stream(24, 100, seed=18)),
        lambda backend: DMPCThreeHalvesMatching(make_config(24, 140, backend)),
        matching_solution,
        "b8e538682555e519b3dc611361c50f39b5cf3573e3bcf12e09fd99b510c4bfce",
    ),
    "two_plus_eps_matching": (
        lambda: (None, churn_stream(24, 100, seed=19)),
        lambda backend: DMPCTwoPlusEpsMatching(make_config(24, 120, backend), seed=7),
        matching_solution,
        "902e2756eac9aeb989ebd1391fb37edbdf52cf05ce1276661a9ae42b25feaa96",
    ),
}


@functools.cache
def pinned_inputs(name: str):
    return PINNED[name][0]()


class TestPinnedLedgers:
    """Every backend reproduces the per-update costs and solution the dict and CSR layouts agreed on."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_ledger_matches_the_pinned_digest(self, name, backend):
        _inputs, make, solution, pinned = PINNED[name]
        graph, stream = pinned_inputs(name)
        algorithm = make(backend)
        algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
        for update in stream:
            algorithm.apply(update)
        assert ledger_digest(algorithm.ledger, solution(algorithm)) == pinned

    def test_layout_is_a_csr_literal(self):
        """``layout=`` survives only where the benchmark passes it, and selects nothing."""
        config = make_config(8, 16, None)
        for construct in (DMPCConnectivity, DMPCMaximalMatching):
            construct(config, layout="csr")
            with pytest.raises(ValueError, match="only layout is 'csr'"):
                construct(config, layout="dict")
        for construct in (DMPCApproxMST, DMPCThreeHalvesMatching, DMPCTwoPlusEpsMatching):
            with pytest.raises(TypeError):
                construct(config, layout="csr")


# ------------------------------------- tour state at every update boundary
def tour_snapshot(algorithm):
    """Store-neutral tour state: per-vertex (comp, index set), per-record (tree, weight, pair), per-machine words.

    The shards' index sets are read from the position index, the slots its passes move, under the
    component the index files them in, so a slot left in the index after its record went shows as an
    index the oracle does not have."""
    vertices, rows, words = {}, {}, {}
    for machine in algorithm.cluster.machines(role="worker"):
        words[machine.machine_id] = machine.used_words
        for key, value in machine.items():
            if key == TOUR_SHARD_KEY:
                words[machine.machine_id] -= word_size(key)  # the one store key the oracle does not have
                shard = value.table
                for v, comp in shard.comp.items():
                    vertices[v] = (comp, set())
                    rows[v] = shard.edge_row(v)
            elif key[0] == "tour":
                vertices[key[1]] = (value["comp"], set(value["indexes"]))
            else:
                rows[key[1]] = value
    pairs = getattr(algorithm._tours, "pairs", None)  # the oracle keeps its indexes under its ("tour", v) keys
    for comp, slots in (pairs.comps if pairs is not None else {}).items():
        for position, slot in enumerate(slots):
            if slot is not None:
                v = slot[0]
                assert vertices[v][0] == comp, f"the index files vertex {v}'s pair under component {comp}"
                vertices[v][1].add(position)
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
        runs = {"csr": make(), "dict": with_oracle(make())}
        for algorithm in runs.values():
            algorithm.preprocess(graph.copy())
        assert tour_snapshot(runs["csr"]) == tour_snapshot(runs["dict"])
        steps = [[update] for update in stream] if batch_size is None else list(batched(stream, batch_size))
        for step in steps:
            for algorithm in runs.values():
                if batch_size is None:
                    algorithm.apply(step[0])
                else:
                    algorithm.apply_batch(step)
            assert tour_snapshot(runs["csr"]) == tour_snapshot(runs["dict"]), f"layouts diverged after {step}"
        assert per_update_rounds(runs["csr"]) == per_update_rounds(runs["dict"])
        # non-vacuous: tree edges were cut (a non-tree update costs two rounds)
        assert sum(rounds > 2 for _label, rounds in per_update_rounds(runs["csr"])) >= len(steps) // 8

    def test_connectivity(self):
        n, m = 24, 36
        graph, stream = recorded_adversary(n, m, 120, seed=41)
        self.assert_lockstep(
            lambda: DMPCConnectivity(make_config(n, 4 * m, None), check_invariants=True),
            graph,
            stream,
        )

    def test_connectivity_coalesced_batches(self):
        n, m = 24, 36
        graph, stream = recorded_adversary(n, m, 160, seed=42)
        self.assert_lockstep(
            lambda: DMPCConnectivity(make_config(n, 4 * m, None), check_invariants=True, coalesce=True),
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
            lambda: DMPCApproxMST(make_config(n, 4 * m, None), epsilon=0.1, check_invariants=True),
            graph,
            stream,
        )

    def test_shift_only_machines_keep_their_handle(self):
        """A link / cut mints a handle on the endpoint owners only; every other machine of the
        component re-stores the handle it holds — same object, same charge, a newer version."""
        n = 64
        graph = random_forest(n, num_trees=1, seed=44)  # a tree: no replacement edge, so a cut stays a cut
        algorithm = DMPCConnectivity(make_config(n, 2 * n, None), check_invariants=True)
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
def filled_slots(pairs: TourPairs) -> dict:
    """``comp → {position: (v, w, id(pair), end)}`` over the index's filled slots."""
    held = {
        comp: {position: (*slot[:2], id(slot[2]), slot[3]) for position, slot in enumerate(slots) if slot is not None}
        for comp, slots in pairs.comps.items()
    }
    return {comp: filled for comp, filled in held.items() if filled}


def assert_euler_tours(algorithm):
    """An oracle neither tour store shares: each component's index sets spell one closed walk —
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


class TestReplacedCutDifferential:
    """``gnm(n, 2n)`` keeps non-tree edges around, so most tree deletes find a replacement."""

    N = 24
    SEEDS = range(60, 66)
    ALGORITHMS = {
        "connectivity": (DMPCConnectivity, gnm_random_graph, {}),
        "approx-mst": (DMPCApproxMST, random_weighted_graph, {"weighted": True}),
    }

    def make_runs(self, make, graph) -> dict:
        config = make_config(self.N, 4 * self.N, None)
        runs = {"csr": make(config), "dict": with_oracle(make(config))}
        for algorithm in runs.values():
            algorithm.preprocess(graph.copy())
        return runs

    def lockstep(self, runs: dict, steps, *, batch: bool) -> dict:
        """Shards and oracle through ``steps`` (lists of updates, drawn lazily); returns how many
        replaced cuts ran, alone and inside a merged group."""
        csr, oracle = runs["csr"], runs["dict"]
        n = self.N

        replaced = {"alone": 0, "grouped": 0}
        commit, apply_group = csr._commit_cut_link, csr._apply_group
        where = ["alone"]

        def counting_commit(cut, link, *, weight):
            # the rewrite starts from the records' own index: the cut edge's positions are empty
            assert filled_slots(csr._tours.pairs) == filled_slots(TourPairs.from_shards(csr._tours._shards())), (
                f"layouts diverged at the rewrite of {cut}: the index is not its records'"
            )
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
        """Seeded mutation: the slot at the attachment point (``stop - 1`` itself) stays behind."""
        monkeypatch.setattr(TourPairs, "cut_link", mutated(TourPairs.cut_link, "stop = f_x + gap + 1", "stop = f_x + gap"))
        with pytest.raises(AssertionError, match="layouts diverged"):
            self.run_stream("connectivity", self.SEEDS[0], None)

    def test_unshifted_rotation_point_is_caught(self, monkeypatch):
        """Seeded mutation: ``l(b)`` read in the old tour's coordinates, not the subtree's.  Shards
        and oracle take the same wrong scalars and still tile ``1..L``, so it is the Euler-tour
        walk that has to notice."""
        monkeypatch.setattr(
            DMPCConnectivity,
            "_replacement_link",
            mutated(DMPCConnectivity._replacement_link, "self._tours.span(b)[1] - f_y", "self._tours.span(b)[1]"),
        )
        with pytest.raises(AssertionError, match="the walk breaks"):
            self.run_stream("connectivity", self.SEEDS[0], None)

    def test_dropped_pair_left_in_its_list_is_caught(self, monkeypatch):
        """Seeded mutation: ``pop_edge`` drops a tree record but leaves its two slots filled.  The
        pass that applies the cut drops the cut edge's positions whatever they hold, so the
        boundary state is right; the rewrite must not start from slots no record holds."""
        monkeypatch.setattr(TourPairs, "pop_edge", mutated(TourPairs.pop_edge, "slots[pair[0]] = slots[pair[1]] = None", "pass"))
        with pytest.raises(AssertionError, match="layouts diverged"):
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


class TestHeavyFabricAtEveryBoundary:
    """Degrees past the heavy threshold (which ``mm-stream`` never reaches): suspended stacks grow
    through ``add_edge_copy`` and shrink through ``fetch_suspended``.  At every boundary the
    matching is a maximal matching of a shadow graph, every stats machine is charged exactly its
    frozen table handle, and the allocation list is the pool filter it replaced; the run's ledger
    and matching are pinned by the digest the dict and CSR stats layouts agreed on."""

    N, HUBS, CAPACITY_M = 40, (0, 1), 156  # the stream's peak; threshold 17 against hub degrees up to 38

    def assert_every_boundary(self, algorithm, pinned: str, batch_size=None):
        n = self.N
        stream = hub_stream(n, self.HUBS, seed=16)
        fabric = algorithm.fabric
        algorithm.preprocess(DynamicGraph(n))
        graph = DynamicGraph(n)
        steps = [[update] for update in stream] if batch_size is None else list(batched(stream, batch_size))
        depths = []
        for step in steps:
            if batch_size is None:
                algorithm.apply(step[0])
            else:
                algorithm.apply_batch(step)
            UpdateSequence(step).apply_to(graph)
            matching = algorithm.matching()
            assert is_matching(graph, matching), f"not a matching after {step}"
            assert is_maximal_matching(graph, matching), f"not maximal after {step}"
            # the maintained allocation list is the filter it replaced, in pool order
            assert fabric._allocated == [mid for mid in fabric.edge_pool if mid not in fabric._unallocated]
            for machine in algorithm.cluster.machines(role="stats"):
                handle = machine.load(STATS_KEY)
                if handle is not None:
                    assert machine.used_words == word_size(STATS_KEY) + handle.dmpc_words()
            depths.append(sum(len(fabric.stats_of(v).suspended_machines) for v in range(n)))
        # non-vacuous: stacks were pushed onto and popped (a pop releases the machine to the pool)
        assert any(after > before for before, after in zip([0, *depths], depths))
        assert any(after < before for before, after in zip(depths, depths[1:]))
        assert ledger_digest(algorithm.ledger, sorted(algorithm.matching())) == pinned

    def test_maximal_matching(self):
        self.assert_every_boundary(
            DMPCMaximalMatching(make_config(self.N, self.CAPACITY_M, None), check_invariants=True),
            "a78bc5b68d48878e9da94c234f493a9c9f93915234a5a274409edd2e71a54aee",
        )

    def test_maximal_matching_batches(self):
        self.assert_every_boundary(
            DMPCMaximalMatching(make_config(self.N, self.CAPACITY_M, None)),
            "dcef05ada86009c2004e73ad16a59f62e65754f438ee78b760ed1415d25cb478",
            batch_size=8,
        )

    @pytest.mark.parametrize(
        ("text", "replacement"),
        [("if entries and handle.table.replay(entries):", "if False:"), ("seen[machine_id] = last", "pass")],
        ids=["replay dropped", "seen-stamp dropped"],
    )
    def test_a_contact_that_skips_a_step_is_caught(self, monkeypatch, text, replacement):
        """Seeded mutations of the one history-contact primitive every edge-machine contact goes
        through: a machine shipped its suffix but not caught up, or caught up but not stamped
        current (so its next contact ships and replays the suffix again, over records placed since),
        answers from stale records, and the matching stops being maximal."""
        monkeypatch.setattr(MatchingFabric, "_contact", mutated(MatchingFabric._contact, text, replacement))
        with pytest.raises(AssertionError, match="not maximal"):
            self.test_maximal_matching_batches()

    def test_three_halves_matching(self):
        """Regression: a hub whose degree fell below the threshold with neighbours still on its
        suspended stack was settled as a light vertex — its free suspended neighbours were never
        looked at, and the matching was not maximal for 27 boundaries of this stream (it ended
        maximal only because later deletions removed the missed edges)."""
        self.assert_every_boundary(
            DMPCThreeHalvesMatching(make_config(self.N, self.CAPACITY_M, None)),
            "f31483e44012bac026bab56058f8f047e79c6c81af9fab4108c2aba97bb5712f",
        )


# ------------------------------------------------- coalesced-batch replay
def coalesced_pair(make, graph, stream, batch_size):
    """Batched-with-coalescing vs sequential replay of the normalized stream."""
    batch = make(coalesce=True)
    sequential = make()
    for algorithm in (batch, sequential):
        algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
    for chunk in batched(stream, batch_size):
        chunk = list(chunk)
        batch.apply_batch(chunk)
        for update in sequential.normalize_batch(chunk)[0]:
            sequential.apply(update)
    return sequential, batch


#: ``coalesce_totals`` of an algorithm that has coalesced no batch
NO_COALESCING = {"input": 0, "output": 0, "cancelled_pairs": 0, "deduped": 0}

#: name -> make(config, **kwargs) for every dynamic algorithm
COALESCE_MAKERS = {
    "approx_mst": lambda config, **kw: DMPCApproxMST(config, epsilon=0.1, **kw),
    "connectivity": DMPCConnectivity,
    "maximal_matching": DMPCMaximalMatching,
    "three_halves_matching": DMPCThreeHalvesMatching,
    "two_plus_eps_matching": lambda config, **kw: DMPCTwoPlusEpsMatching(config, seed=7, **kw),
}


class TestCoalescedBatchReplay:
    def test_connectivity_bit_identical_to_normalized_replay(self):
        n = 16  # few vertices → heavy churn → real cancellations
        stream = churn_stream(n, 160, seed=21)
        sequential, batch = coalesced_pair(
            lambda **kw: DMPCConnectivity(make_config(n, 120, None), check_invariants=True, **kw),
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
            lambda **kw: DMPCConnectivity(make_config(n, 4 * m, None), **kw), graph, stream, 16
        )
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()
        assert batch.update_round_total() <= sequential.update_round_total()

    def test_maximal_matching_bit_identical_to_normalized_replay(self):
        n = 16
        graph = gnm_random_graph(n, 24, seed=23)
        stream = list(mixed_stream(n, 140, seed=24, insert_probability=0.5, initial=graph))
        sequential, batch = coalesced_pair(
            lambda **kw: DMPCMaximalMatching(make_config(n, 120, None), check_invariants=True, **kw),
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
            lambda **kw: DMPCThreeHalvesMatching(make_config(n, 100, None), **kw), None, stream, 12
        )
        assert sequential.matching() == batch.matching()
        assert batch.update_round_total() <= sequential.update_round_total()

    def test_two_plus_eps_matching(self):
        n = 16
        stream = churn_stream(n, 120, seed=26)
        sequential, batch = coalesced_pair(
            lambda **kw: DMPCTwoPlusEpsMatching(make_config(n, 100, None), seed=7, **kw), None, stream, 12
        )
        assert sequential.matching() == batch.matching()

    def test_approx_mst(self):
        n, m = 20, 40
        graph = random_weighted_graph(n, m, seed=27)
        stream = list(mixed_stream(n, 100, seed=28, insert_probability=0.5, initial=graph, weighted=True))
        sequential, batch = coalesced_pair(
            lambda **kw: DMPCApproxMST(make_config(n, 2 * m, None), epsilon=0.1, **kw), graph, stream, 12
        )
        assert sequential.spanning_forest() == batch.spanning_forest()
        assert canonical(sequential.components()) == canonical(batch.components())

    def test_constructor_toggle(self):
        n = 12
        stream = churn_stream(n, 40, seed=29)
        default = DMPCConnectivity(make_config(n, 60, None))
        assert default.coalesce is False
        for chunk in batched(stream, 8):
            default.apply_batch(chunk)
        assert default.coalesce_totals == NO_COALESCING
        toggled = DMPCConnectivity(make_config(n, 60, None), coalesce=True)
        assert toggled.coalesce is True
        for chunk in batched(stream, 8):
            toggled.apply_batch(chunk)  # the constructor toggle drives it
        assert toggled.coalesce_totals["input"] == len(stream)

    @pytest.mark.parametrize("name", sorted(COALESCE_MAKERS))
    def test_defaults_off_on_every_algorithm(self, name):
        """No algorithm coalesces unless its constructor asks."""
        n = 12
        stream = list(mixed_stream(n, 32, seed=30, insert_probability=0.5, weighted=True))
        make = COALESCE_MAKERS[name]
        default = make(make_config(n, 60, None))
        toggled = make(make_config(n, 60, None), coalesce=True)
        assert default.coalesce is False and toggled.coalesce is True
        for algorithm in (default, toggled):
            algorithm.preprocess(DynamicGraph())
        _, stats = toggled.normalize_batch(stream)  # what the coalesced batch below reports
        default.apply_batch(stream)
        toggled.apply_batch(stream)
        assert default.coalesce_totals == NO_COALESCING
        assert toggled.coalesce_totals == {key: stats[key] for key in NO_COALESCING}
        assert toggled.coalesce_totals["input"] == len(stream)


# ------------------------------------------------ all four backend configs
class TestCoalescedAcrossBackends:
    """Coalesced batches are backend-invariant: solutions, rounds and words."""

    def run_all(self, make, graph, stream, batch_size):
        runs = {}
        for backend in BACKENDS:
            algorithm = make(backend)
            algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
            for chunk in batched(stream, batch_size):
                algorithm.apply_batch(chunk)
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
            lambda backend: DMPCConnectivity(make_config(n, 96, backend), coalesce=True), None, stream, 12
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
            lambda backend: DMPCConnectivity(make_config(n, 4 * m, backend), coalesce=True), graph, stream, 16
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
            lambda backend: DMPCMaximalMatching(make_config(n, 120, backend), coalesce=True), graph, stream, 12
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
