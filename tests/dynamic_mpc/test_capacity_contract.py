"""The capacity contract: an input past ``(capacity_n, capacity_m)`` is refused before any round.

``DMPCConfig.for_graph(n, m)`` sizes the machines, the edge-machine pool and
the heavy threshold for at most ``m`` edges over vertex ids below ``n``.
Every entry point of a dynamic algorithm — ``preprocess``, ``apply``,
``apply_batch`` (counted on the coalesced batch it applies) and 3/2
matching's ``bootstrap_from_graph`` — raises
:class:`~repro.exceptions.CapacityExceeded` naming n, m and the update's
index, and the ledger holds no round the refused input spent.
"""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
)
from repro.exceptions import CapacityExceeded
from repro.graph import DynamicGraph, GraphUpdate
from test_maximal_matching import run_churn_recipe

MAKERS = {
    "approx_mst": lambda config, **kw: DMPCApproxMST(config, epsilon=0.1, **kw),
    "connectivity": DMPCConnectivity,
    "maximal_matching": DMPCMaximalMatching,
    "three_halves_matching": DMPCThreeHalvesMatching,
    "two_plus_eps_matching": lambda config, **kw: DMPCTwoPlusEpsMatching(config, seed=7, **kw),
}


def path_inserts(count: int) -> list[GraphUpdate]:
    return [GraphUpdate.insert(v, v + 1) for v in range(count)]


def rounds(algorithm) -> int:
    return algorithm.ledger.total_rounds()


@pytest.mark.parametrize("name", sorted(MAKERS))
class TestEveryAlgorithm:
    def test_an_insert_past_capacity_m_is_refused_before_its_round(self, name):
        algorithm = MAKERS[name](DMPCConfig.for_graph(8, 3))
        algorithm.preprocess(DynamicGraph(8))
        for update in path_inserts(3):
            algorithm.apply(update)
        spent = rounds(algorithm)
        with pytest.raises(CapacityExceeded, match=r"update 3 reaches vertex 4, edge count 4: past the configured capacity n = 8, m = 3") as raised:
            algorithm.apply(GraphUpdate.insert(3, 4))
        assert (raised.value.n, raised.value.m, raised.value.index) == (8, 3, 3)
        assert rounds(algorithm) == spent
        assert algorithm.shadow.num_edges == 3

    def test_a_delete_makes_room_again(self, name):
        algorithm = MAKERS[name](DMPCConfig.for_graph(8, 3))
        algorithm.preprocess(DynamicGraph(8))
        for update in [*path_inserts(3), GraphUpdate.delete(0, 1), GraphUpdate.insert(3, 4)]:
            algorithm.apply(update)
        assert algorithm.shadow.num_edges == 3

    def test_a_vertex_id_past_capacity_n_is_refused(self, name):
        algorithm = MAKERS[name](DMPCConfig.for_graph(8, 16))
        algorithm.preprocess(DynamicGraph(8))
        spent = rounds(algorithm)
        with pytest.raises(CapacityExceeded, match=r"update 0 reaches vertex 8, edge count 1: .* n = 8, m = 16"):
            algorithm.apply(GraphUpdate.insert(0, 8))
        assert rounds(algorithm) == spent

    def test_a_coalesced_batch_past_capacity_n_is_refused(self, name):
        """Grouping by owner runs after coalescing, and no machine owns an id past ``capacity_n``."""
        algorithm = MAKERS[name](DMPCConfig.for_graph(8, 16), coalesce=True)
        with pytest.raises(CapacityExceeded, match=r"update 1 reaches vertex 9, edge count 2: .* n = 8, m = 16"):
            algorithm.apply_batch([GraphUpdate.insert(0, 1), GraphUpdate.insert(2, 9)])
        assert algorithm.shadow.num_edges == 0

    def test_a_batch_is_counted_after_coalescing(self, name):
        """A flap inside a coalesced batch cancels and fits; the raw batch holds the same net edges."""
        flap = [GraphUpdate.insert(5, 6), GraphUpdate.delete(5, 6)]
        coalesced = MAKERS[name](DMPCConfig.for_graph(8, 3), coalesce=True)
        coalesced.apply_batch([*path_inserts(3)[:2], *flap, GraphUpdate.insert(2, 3)])
        assert coalesced.shadow.num_edges == 3
        with pytest.raises(CapacityExceeded, match=r"update 7 reaches vertex 4, edge count 4:") as raised:
            coalesced.apply_batch([*flap, GraphUpdate.insert(3, 4)])
        assert raised.value.index == 7  # the raw position: the flap before it cancelled
        plain = MAKERS[name](DMPCConfig.for_graph(8, 3))
        with pytest.raises(CapacityExceeded, match=r"update 3 reaches vertex 4, edge count 4:"):
            plain.apply_batch([*path_inserts(3), GraphUpdate.insert(3, 4)])
        assert plain.shadow.num_edges == 0


class TestInitialGraphs:
    @pytest.mark.parametrize("name", ["approx_mst", "connectivity", "maximal_matching"])
    def test_preprocess_refuses_a_graph_past_capacity(self, name):
        graph = DynamicGraph(8)
        for update in path_inserts(4):
            graph.insert_edge(update.u, update.v)
        with pytest.raises(CapacityExceeded, match=r"the initial graph reaches vertex 7, edge count 4: .* n = 8, m = 3"):
            MAKERS[name](DMPCConfig.for_graph(8, 3)).preprocess(graph)
        with pytest.raises(CapacityExceeded, match=r"the initial graph reaches vertex 7, edge count 4: .* n = 7, m = 8"):
            MAKERS[name](DMPCConfig.for_graph(7, 8)).preprocess(graph)

    def test_bootstrap_refuses_before_any_insert(self):
        graph = DynamicGraph(8)
        for update in path_inserts(4):
            graph.insert_edge(update.u, update.v)
        algorithm = DMPCThreeHalvesMatching(DMPCConfig.for_graph(8, 3))
        with pytest.raises(CapacityExceeded, match="the initial graph reaches vertex 7, edge count 4:"):
            algorithm.bootstrap_from_graph(graph)
        assert rounds(algorithm) == 0


def test_the_dense_churn_recipe_past_capacity_raises_at_its_first_excess_insert():
    """``gnm(16, 32, seed=1)`` + 4 000 ``mixed_stream(seed=11)`` updates under
    ``for_graph(16, 64)`` reach 113 edges; they used to run on and lose
    maximality.  Update 990 is the first insert past 64 edges."""
    with pytest.raises(CapacityExceeded, match=r"update 990 reaches vertex \d+, edge count 65: .* n = 16, m = 64") as raised:
        run_churn_recipe(16, 1, 11, updates=4000)
    assert raised.value.index == 990
