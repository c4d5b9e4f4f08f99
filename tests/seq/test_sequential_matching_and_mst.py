"""Tests for the sequential dynamic matching algorithms and dynamic MST."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DynamicGraph
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.validation import (
    is_maximal_matching,
    is_spanning_forest,
    maximum_matching_size,
    minimum_spanning_forest_weight,
)
from repro.seq import NeimanSolomonMatching, SequentialDynamicMST


def random_toggle_sequence(n: int, steps: int, seed: int) -> list[tuple[str, int, int]]:
    rng = random.Random(seed)
    present: set[tuple[int, int]] = set()
    ops = []
    for _ in range(steps):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in present:
            ops.append(("delete", *edge))
            present.discard(edge)
        else:
            ops.append(("insert", *edge))
            present.add(edge)
    return ops


class TestNeimanSolomon:
    def test_insert_matches_free_pairs(self):
        alg = NeimanSolomonMatching(max_edges=32)
        alg.insert(0, 1)
        assert alg.mate(0) == 1
        alg.insert(2, 3)
        assert alg.matching_size() == 2

    def test_delete_rematches(self):
        alg = NeimanSolomonMatching(max_edges=32)
        for (u, v) in [(0, 1), (1, 2), (2, 3)]:
            alg.insert(u, v)
        alg.delete(0, 1)
        shadow = DynamicGraph()
        shadow.insert_edge(1, 2)
        shadow.insert_edge(2, 3)
        assert is_maximal_matching(shadow, alg.matching())

    def test_duplicate_and_missing_edges_rejected(self):
        alg = NeimanSolomonMatching(max_edges=8)
        alg.insert(0, 1)
        with pytest.raises(ValueError):
            alg.insert(1, 0)
        with pytest.raises(ValueError):
            alg.delete(4, 5)

    def test_random_sequence_stays_maximal(self):
        alg = NeimanSolomonMatching(max_edges=400)
        shadow = DynamicGraph(20)
        for (op, u, v) in random_toggle_sequence(20, 500, seed=3):
            if op == "insert":
                alg.insert(u, v)
                shadow.insert_edge(u, v)
            else:
                alg.delete(u, v)
                shadow.delete_edge(u, v)
            assert is_maximal_matching(shadow, alg.matching())

    def test_matching_is_2_approximation(self):
        alg = NeimanSolomonMatching(max_edges=200)
        g = gnm_random_graph(24, 60, seed=5)
        for (u, v) in g.edge_list():
            alg.insert(u, v)
        assert alg.matching_size() * 2 >= maximum_matching_size(g)

    def test_heavy_threshold(self):
        alg = NeimanSolomonMatching(max_edges=50)
        assert alg.threshold == max(2, int((2 * 50) ** 0.5))
        for v in range(1, alg.threshold + 2):
            alg.insert(0, v)
        assert alg.is_heavy(0)
        assert not alg.is_heavy(1)


class TestSequentialDynamicMST:
    def test_matches_kruskal_under_insertions(self):
        g = random_weighted_graph(18, 50, seed=21)
        alg = SequentialDynamicMST()
        for (u, v, w) in g.weighted_edges():
            alg.insert(u, v, w)
        assert abs(alg.forest_weight() - minimum_spanning_forest_weight(g)) < 1e-9
        assert is_spanning_forest(g, alg.forest_edges())

    def test_matches_kruskal_under_mixed_updates(self):
        rng = random.Random(31)
        alg = SequentialDynamicMST()
        shadow = DynamicGraph(14)
        present: list[tuple[int, int]] = []
        for step in range(300):
            if present and rng.random() < 0.4:
                u, v = present.pop(rng.randrange(len(present)))
                alg.delete(u, v)
                shadow.delete_edge(u, v)
            else:
                u, v = rng.randrange(14), rng.randrange(14)
                if u == v or shadow.has_edge(u, v):
                    continue
                w = rng.uniform(1, 100)
                alg.insert(u, v, w)
                shadow.insert_edge(u, v, w)
                present.append((u, v))
            if step % 25 == 0:
                assert abs(alg.forest_weight() - minimum_spanning_forest_weight(shadow)) < 1e-9
        assert abs(alg.forest_weight() - minimum_spanning_forest_weight(shadow)) < 1e-9

    def test_errors_on_bad_updates(self):
        alg = SequentialDynamicMST()
        alg.insert(0, 1, 1.0)
        with pytest.raises(ValueError):
            alg.insert(0, 1, 2.0)
        with pytest.raises(ValueError):
            alg.delete(3, 4)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40))
def test_property_sequential_matchings_stay_valid(pairs):
    """Property: the Neiman–Solomon matching stays maximal under arbitrary toggles."""
    ns = NeimanSolomonMatching(max_edges=64)
    shadow = DynamicGraph(8)
    for (u, v) in pairs:
        if u == v:
            continue
        if shadow.has_edge(u, v):
            ns.delete(u, v)
            shadow.delete_edge(u, v)
        else:
            ns.insert(u, v)
            shadow.insert_edge(u, v)
    assert is_maximal_matching(shadow, ns.matching())
