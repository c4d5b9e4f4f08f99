"""Tests for the static MPC baselines (connected components, matching, MST)."""

from __future__ import annotations

import pytest

from repro.graph.generators import gnm_random_graph, grid_graph, random_weighted_graph, star_graph
from repro.graph.validation import (
    connected_components,
    is_maximal_matching,
    is_spanning_forest,
    minimum_spanning_forest_weight,
    same_partition,
)
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching, build_static_cluster


class TestSetup:
    def test_build_static_cluster_places_all_adjacency_csr(self):
        graph = gnm_random_graph(20, 40, seed=1)
        setup = build_static_cluster(graph)
        placed = 0
        for machine_id in setup.worker_ids:
            csr = setup.machine_csr(machine_id)
            assert list(csr.verts) == setup.owned_vertices(machine_id)
            assert len(csr.weights) == csr.num_entries
            placed += csr.num_entries
        assert placed == 2 * graph.num_edges

    def test_unweighted_setup_skips_weight_stores(self):
        graph = gnm_random_graph(12, 20, seed=2)
        setup = build_static_cluster(graph, weighted=False)
        for machine_id in setup.worker_ids:
            assert setup.machine_csr(machine_id).weights is None

    def test_layout_is_a_csr_literal(self):
        """``layout=`` survives only where the benchmark passes it, and selects nothing."""
        graph = gnm_random_graph(12, 20, seed=2)
        StaticConnectedComponents(graph, layout="csr").run()
        with pytest.raises(ValueError, match="only layout is 'csr'"):
            StaticConnectedComponents(graph, layout="dict")
        for construct in (StaticMaximalMatching, StaticBoruvkaMST, build_static_cluster):
            with pytest.raises(TypeError):
                construct(graph, layout="csr")

    def test_owned_vertices_is_authoritative(self):
        graph = gnm_random_graph(10, 15, seed=3)
        setup = build_static_cluster(graph)
        assert sorted(v for mid in setup.worker_ids for v in setup.owned_vertices(mid)) == sorted(
            graph.vertices
        )
        with pytest.raises(KeyError):
            setup.owned_vertices("not-a-machine")


class TestStaticConnectedComponents:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_components_match_reference(self, seed):
        graph = gnm_random_graph(40, 50, seed=seed)
        algo = StaticConnectedComponents(graph)
        algo.run()
        assert same_partition(algo.components(), connected_components(graph))

    def test_spanning_forest_valid(self):
        graph = gnm_random_graph(30, 60, seed=5)
        algo = StaticConnectedComponents(graph)
        algo.run()
        assert is_spanning_forest(graph, algo.spanning_forest())

    def test_round_and_communication_costs_recorded(self):
        graph = gnm_random_graph(40, 80, seed=7)
        algo = StaticConnectedComponents(graph)
        algo.run()
        summary = algo.cluster.ledger.summary("static-cc")
        assert summary.max_rounds >= 2
        # static recomputation shuffles a lot of data per run
        assert summary.total_words > graph.num_edges

    def test_structured_graphs(self):
        grid = grid_graph(4, 5)
        algo = StaticConnectedComponents(grid)
        algo.run()
        assert len(algo.components()) == 1


class TestStaticMaximalMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matching_is_maximal(self, seed):
        graph = gnm_random_graph(30, 70, seed=seed)
        algo = StaticMaximalMatching(graph, seed=seed)
        matching = algo.run()
        assert is_maximal_matching(graph, matching)

    def test_star_graph_matches_once(self):
        graph = star_graph(10)
        algo = StaticMaximalMatching(graph)
        matching = algo.run()
        assert len(matching) == 1

    def test_all_machines_participate(self):
        graph = gnm_random_graph(40, 120, seed=3)
        algo = StaticMaximalMatching(graph, seed=3)
        algo.run()
        summary = algo.cluster.ledger.summary("static-matching")
        assert summary.max_active_machines >= len(algo.setup.worker_ids) // 2


class TestStaticBoruvkaMST:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_forest_weight_is_optimal(self, seed):
        graph = random_weighted_graph(25, 60, seed=seed)
        algo = StaticBoruvkaMST(graph)
        forest = algo.run()
        assert is_spanning_forest(graph, forest)
        assert abs(algo.forest_weight() - minimum_spanning_forest_weight(graph)) < 1e-9

    def test_phase_count_logarithmic(self):
        graph = random_weighted_graph(64, 160, seed=4)
        algo = StaticBoruvkaMST(graph)
        algo.run()
        assert 1 <= algo.phases_used <= 2 * 7  # ~log2(64) phases with slack

    def test_disconnected_graph(self):
        graph = random_weighted_graph(20, 12, seed=6)
        algo = StaticBoruvkaMST(graph)
        forest = algo.run()
        assert is_spanning_forest(graph, forest)
