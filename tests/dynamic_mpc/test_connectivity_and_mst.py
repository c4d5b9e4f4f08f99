"""Sections 5 / 5.1: dynamic connected components and (1+eps)-MST."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCApproxMST, DMPCConnectivity
from repro.eulertour import IndexedEulerTourForest
from repro.graph import DynamicGraph, GraphUpdate, batched
from repro.graph.generators import gnm_random_graph, grid_graph, random_forest, random_weighted_graph
from repro.graph.streams import mixed_stream, tree_edge_adversary_stream
from repro.graph.validation import (
    connected_components,
    is_spanning_forest,
    minimum_spanning_forest_weight,
    same_partition,
)


class TestConnectivityBasics:
    def test_insert_merges_components(self):
        alg = DMPCConnectivity(DMPCConfig.for_graph(8, 32), check_invariants=True)
        alg.preprocess(DynamicGraph(4))
        assert alg.num_components() == 4
        alg.apply(GraphUpdate.insert(0, 1))
        alg.apply(GraphUpdate.insert(2, 3))
        assert alg.num_components() == 2
        assert alg.connected(0, 1) and not alg.connected(0, 2)
        alg.apply(GraphUpdate.insert(1, 2))
        assert alg.num_components() == 1

    def test_delete_nontree_edge_keeps_components(self):
        alg = DMPCConnectivity(DMPCConfig.for_graph(8, 32), check_invariants=True)
        alg.preprocess(DynamicGraph(3))
        alg.apply_sequence([GraphUpdate.insert(0, 1), GraphUpdate.insert(1, 2), GraphUpdate.insert(0, 2)])
        alg.apply(GraphUpdate.delete(0, 2))
        assert alg.num_components() == 1

    def test_delete_tree_edge_with_replacement(self):
        alg = DMPCConnectivity(DMPCConfig.for_graph(8, 32), check_invariants=True)
        alg.preprocess(DynamicGraph(3))
        alg.apply_sequence([GraphUpdate.insert(0, 1), GraphUpdate.insert(1, 2), GraphUpdate.insert(0, 2)])
        alg.apply(GraphUpdate.delete(0, 1))
        assert alg.connected(0, 1)

    def test_delete_bridge_splits_component(self):
        alg = DMPCConnectivity(DMPCConfig.for_graph(8, 32), check_invariants=True)
        alg.preprocess(DynamicGraph(4))
        alg.apply_sequence([GraphUpdate.insert(0, 1), GraphUpdate.insert(1, 2), GraphUpdate.insert(2, 3)])
        alg.apply(GraphUpdate.delete(1, 2))
        assert not alg.connected(0, 3)
        assert alg.num_components() == 2

    def test_preprocess_arbitrary_graph(self):
        graph = gnm_random_graph(30, 45, seed=2)
        alg = DMPCConnectivity(DMPCConfig.for_graph(30, 150))
        alg.preprocess(graph)
        assert same_partition(alg.components(), connected_components(graph))
        assert is_spanning_forest(graph, alg.spanning_forest())


class TestConnectivityStreams:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_stream_matches_reference(self, seed):
        graph = gnm_random_graph(24, 30, seed=seed)
        alg = DMPCConnectivity(DMPCConfig.for_graph(24, 150), check_invariants=True)
        alg.preprocess(graph)
        stream = mixed_stream(24, 120, seed=seed + 20, insert_probability=0.5, initial=graph)
        alg.apply_sequence(stream)
        assert same_partition(alg.components(), connected_components(alg.shadow))
        assert is_spanning_forest(alg.shadow, alg.spanning_forest())

    def test_tree_edge_adversary(self):
        graph = random_forest(20, num_trees=2, seed=4)
        alg = DMPCConnectivity(DMPCConfig.for_graph(20, 120), check_invariants=True)
        alg.preprocess(graph)
        stream = tree_edge_adversary_stream(20, 100, lambda: alg.spanning_forest(), seed=5, delete_probability=0.6)
        stream.seed_graph(graph)
        for update in stream:
            alg.apply(update)
        assert same_partition(alg.components(), connected_components(alg.shadow))

    def test_grid_graph_updates(self):
        graph = grid_graph(4, 5)
        alg = DMPCConnectivity(DMPCConfig.for_graph(20, 100), check_invariants=True)
        alg.preprocess(graph)
        # Remove a full column of edges, splitting the grid, then re-join it.
        for r in range(4):
            v = r * 5 + 2
            if graph.has_edge(v, v + 1):
                alg.apply(GraphUpdate.delete(v, v + 1))
        assert alg.num_components() >= 1
        alg.apply(GraphUpdate.insert(2, 3))
        assert same_partition(alg.components(), connected_components(alg.shadow))

    def test_cost_model_bounded(self):
        graph = gnm_random_graph(32, 48, seed=6)
        alg = DMPCConnectivity(DMPCConfig.for_graph(32, 200))
        alg.preprocess(graph)
        stream = mixed_stream(32, 120, seed=7, insert_probability=0.5, initial=graph)
        alg.apply_sequence(stream)
        summary = alg.update_summary()
        assert summary.max_rounds <= 20
        assert summary.max_active_machines <= len(alg.worker_ids) + 1


class TestApproxMST:
    def test_preprocess_is_near_optimal(self):
        graph = random_weighted_graph(24, 70, seed=8)
        alg = DMPCApproxMST(DMPCConfig.for_graph(24, 200), epsilon=0.1, check_invariants=True)
        alg.preprocess(graph)
        assert alg.forest_weight() <= (1.1) * minimum_spanning_forest_weight(graph) + 1e-9

    def test_insert_lighter_edge_swaps_cycle_edge(self):
        alg = DMPCApproxMST(DMPCConfig.for_graph(8, 40), epsilon=0.1, check_invariants=True)
        graph = DynamicGraph(3)
        graph.insert_edge(0, 1, 10.0)
        graph.insert_edge(1, 2, 20.0)
        alg.preprocess(graph)
        alg.apply(GraphUpdate.insert(0, 2, 1.0))
        forest = alg.spanning_forest()
        assert (0, 2) in forest
        assert (1, 2) not in forest

    def test_insert_heavier_edge_is_nontree(self):
        alg = DMPCApproxMST(DMPCConfig.for_graph(8, 40), epsilon=0.1, check_invariants=True)
        graph = DynamicGraph(3)
        graph.insert_edge(0, 1, 1.0)
        graph.insert_edge(1, 2, 2.0)
        alg.preprocess(graph)
        alg.apply(GraphUpdate.insert(0, 2, 50.0))
        assert (0, 2) not in alg.spanning_forest()

    def test_delete_tree_edge_picks_min_replacement(self):
        alg = DMPCApproxMST(DMPCConfig.for_graph(8, 40), epsilon=0.1, check_invariants=True)
        graph = DynamicGraph(4)
        graph.insert_edge(0, 1, 1.0)
        graph.insert_edge(1, 2, 1.0)
        graph.insert_edge(2, 3, 1.0)
        graph.insert_edge(0, 3, 9.0)
        graph.insert_edge(0, 2, 5.0)
        alg.preprocess(graph)
        alg.apply(GraphUpdate.delete(1, 2))
        forest = alg.spanning_forest()
        assert (0, 2) in forest  # the 5.0 edge, not the 9.0 one
        assert alg.connected(0, 3)

    @pytest.mark.parametrize("seed", [9, 10])
    def test_mixed_weighted_stream_stays_within_eps(self, seed):
        graph = random_weighted_graph(20, 40, seed=seed)
        alg = DMPCApproxMST(DMPCConfig.for_graph(20, 200), epsilon=0.2, check_invariants=True)
        alg.preprocess(graph)
        stream = mixed_stream(20, 100, seed=seed + 30, insert_probability=0.5, initial=graph, weighted=True)
        alg.apply_sequence(stream)
        optimal = minimum_spanning_forest_weight(alg.shadow)
        assert alg.forest_weight() <= 1.2 * optimal + 1e-9
        assert is_spanning_forest(alg.shadow, alg.spanning_forest())

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            DMPCApproxMST(DMPCConfig.for_graph(8, 16), epsilon=0.0)

    def test_bucketing_rounds_down(self):
        alg = DMPCApproxMST(DMPCConfig.for_graph(8, 16), epsilon=0.5)
        assert alg.bucketed_weight(1.0) == pytest.approx(1.0)
        assert alg.bucketed_weight(1.4) == pytest.approx(1.0)
        assert alg.bucketed_weight(2.0) <= 2.0


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30))
def test_property_connectivity_matches_bfs_reference(pairs):
    """Property: components always match the BFS reference under toggles."""
    alg = DMPCConnectivity(DMPCConfig.for_graph(10, 64))
    alg.preprocess(DynamicGraph(10))
    present: set[tuple[int, int]] = set()
    for (u, v) in pairs:
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in present:
            alg.apply(GraphUpdate.delete(*edge))
            present.discard(edge)
        else:
            alg.apply(GraphUpdate.insert(*edge))
            present.add(edge)
    assert same_partition(alg.components(), connected_components(alg.shadow))


# ------------------------------------------------- preprocess seeding (link_all)
def incremental_link_all(forest, edges):
    """The seeding ``link_all`` replaced: one ``link`` per unconnected pair, in order."""
    for (u, v) in edges:
        if not forest.connected(u, v):
            forest.link(u, v)
    return forest.tree_edges()


#: algorithm -> (graph generator, weighted stream?, constructor)
SEEDING_CASES = {
    "connectivity": (
        gnm_random_graph,
        False,
        lambda **kw: DMPCConnectivity(DMPCConfig.for_graph(24, 128), **kw),
    ),
    "mst": (
        random_weighted_graph,
        True,
        lambda **kw: DMPCApproxMST(DMPCConfig.for_graph(24, 128), epsilon=0.25, **kw),
    ),
}


class TestPreprocessSeeding:
    """Seeding the tours in one pass moved nothing the model sees."""

    def drive(self, make, graph, stream, batch):
        alg = make()
        alg.preprocess(graph.copy())
        alg.verify_invariants()
        for chunk in batched(stream, 16 if batch else 1):
            if batch:
                alg.apply_batch(chunk)
            else:
                alg.apply(chunk[0])
            alg.verify_invariants()
        return alg

    def observed(self, alg):
        return {
            "components": alg.components(),
            "forest": alg.spanning_forest(),
            "per_update": [
                (u.label, u.num_rounds, u.total_words, u.max_words_per_round, u.max_active_machines)
                for u in alg.ledger.updates
            ],
            "summary": alg.update_summary().as_dict(),
            "used_words": {m.machine_id: m.used_words for m in alg.cluster.machines()},
        }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("batch", [False, True], ids=["apply", "apply_batch-coalesce"])
    @pytest.mark.parametrize("layout", ["csr", "dict"])
    @pytest.mark.parametrize("algorithm", list(SEEDING_CASES))
    def test_link_all_and_incremental_seeding_are_indistinguishable(self, monkeypatch, algorithm, layout, batch, seed):
        generator, weighted, construct = SEEDING_CASES[algorithm]
        graph = generator(24, 36, seed=seed)
        stream = list(mixed_stream(24, 300, seed=seed + 40, insert_probability=0.5, initial=graph, weighted=weighted))
        assert len(stream) == 300

        def make():
            return construct(layout=layout, coalesce=batch)

        seeded = self.observed(self.drive(make, graph, stream, batch))
        monkeypatch.setattr(IndexedEulerTourForest, "link_all", incremental_link_all)
        oracle = self.observed(self.drive(make, graph, stream, batch))
        assert len(seeded["per_update"]) > 1 and seeded["summary"]["num_updates"] > 0
        for key in seeded:
            assert seeded[key] == oracle[key], key

    @pytest.mark.parametrize("algorithm", list(SEEDING_CASES))
    def test_preprocess_never_links_or_reroots_incrementally(self, monkeypatch, algorithm):
        def refuse(self, *args):
            raise AssertionError("preprocess reached the O(tree) incremental path")

        monkeypatch.setattr(IndexedEulerTourForest, "link", refuse)
        monkeypatch.setattr(IndexedEulerTourForest, "reroot", refuse)
        generator, _, construct = SEEDING_CASES[algorithm]
        graph = generator(24, 36, seed=4)
        alg = construct()
        alg.preprocess(graph.copy())
        alg.verify_invariants()
        assert is_spanning_forest(graph, alg.spanning_forest())
