"""The driver plumbing every dynamic algorithm shares (``DynamicMPCAlgorithm``)."""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
    DynamicMPCAlgorithm,
)
from repro.graph import DynamicGraph, GraphUpdate
from repro.graph.generators import gnm_random_graph

DYNAMIC = (DMPCMaximalMatching, DMPCThreeHalvesMatching, DMPCConnectivity, DMPCApproxMST, DMPCTwoPlusEpsMatching)
#: Sections 4 and 6 start from the empty graph.
STARTS_EMPTY = (DMPCThreeHalvesMatching, DMPCTwoPlusEpsMatching)


def solution_edges(alg: DynamicMPCAlgorithm) -> set[tuple[int, int]]:
    return alg.matching() if hasattr(alg, "matching") else alg.spanning_forest()


@pytest.mark.parametrize("cls", DYNAMIC, ids=lambda cls: cls.kind)
class TestDriverPlumbing:
    def test_apply_before_preprocess_uses_empty_graph(self, cls):
        alg = cls(DMPCConfig.for_graph(4, 16))
        alg.apply(GraphUpdate.insert(0, 1))
        assert alg.preprocessing_summary().num_updates == 1
        assert solution_edges(alg) == {(0, 1)}
        alg.verify_invariants()

    def test_update_and_preprocessing_summaries_are_separate(self, cls):
        graph = DynamicGraph(12) if cls in STARTS_EMPTY else gnm_random_graph(12, 18, seed=8)
        alg = cls(DMPCConfig.for_graph(12, 80))
        alg.preprocess(graph)
        alg.apply(GraphUpdate.delete(0, 11) if graph.has_edge(0, 11) else GraphUpdate.insert(0, 11))
        assert alg.preprocessing_summary().num_updates == 1
        assert alg.update_summary().num_updates == 1
        assert alg.update_round_total() == alg.update_summary().max_rounds > 0

    def test_update_labels_identify_operations(self, cls):
        alg = cls(DMPCConfig.for_graph(4, 16))
        alg.preprocess(DynamicGraph(4))
        alg.apply(GraphUpdate.insert(1, 2))
        alg.apply(GraphUpdate.delete(1, 2))
        labels = [u.label for u in alg.ledger.updates]
        assert labels == [f"{cls.kind}:preprocess", f"{cls.kind}:insert:1-2", f"{cls.kind}:delete:1-2"]


def test_an_algorithm_without_verify_invariants_cannot_be_instantiated():
    class Unchecked(DynamicMPCAlgorithm):
        def _preprocess(self, graph):
            pass

        def _apply(self, update):
            pass

    with pytest.raises(TypeError, match="verify_invariants"):
        Unchecked(DMPCConfig.for_graph(4, 16))
