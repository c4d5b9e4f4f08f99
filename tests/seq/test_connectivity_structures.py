"""Tests for Euler-tour trees and HDT dynamic connectivity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DynamicGraph
from repro.graph.generators import gnm_random_graph
from repro.graph.validation import connected_components, same_partition
from repro.seq import EulerTourTree, HDTConnectivity


class TestEulerTourTree:
    def test_link_cut_connectivity(self):
        ett = EulerTourTree()
        for v in range(6):
            ett.add_vertex(v)
        ett.link(0, 1)
        ett.link(1, 2)
        ett.link(3, 4)
        assert ett.connected(0, 2)
        assert not ett.connected(0, 3)
        assert ett.tree_size(0) == 3
        assert sorted(ett.tree_vertices(2)) == [0, 1, 2]
        ett.cut(1, 2)
        assert not ett.connected(0, 2)
        assert ett.tree_size(2) == 1

    def test_link_connected_raises(self):
        ett = EulerTourTree()
        ett.link(0, 1)
        with pytest.raises(ValueError):
            ett.link(1, 0)

    def test_cut_missing_edge_raises(self):
        ett = EulerTourTree()
        ett.link(0, 1)
        with pytest.raises(ValueError):
            ett.cut(0, 2)

    def test_random_forest_matches_union_find_semantics(self):
        rng = random.Random(13)
        ett = EulerTourTree()
        for v in range(20):
            ett.add_vertex(v)
        edges: list[tuple[int, int]] = []
        adjacency = DynamicGraph(20)
        for _ in range(500):
            if edges and rng.random() < 0.45:
                u, v = edges.pop(rng.randrange(len(edges)))
                ett.cut(u, v)
                adjacency.delete_edge(u, v)
            else:
                u, v = rng.randrange(20), rng.randrange(20)
                if u != v and not ett.connected(u, v):
                    ett.link(u, v)
                    adjacency.insert_edge(u, v)
                    edges.append((u, v))
            assert same_partition(ett.components(), connected_components(adjacency))

    def test_tree_sizes_consistent(self):
        ett = EulerTourTree()
        for v in range(1, 8):
            ett.link(0, v)
        assert ett.tree_size(5) == 8
        assert len(ett.tour(0)) == 8 + 2 * 7  # vertex arcs + two arcs per edge


class TestHDTConnectivity:
    def test_basic_insert_delete(self):
        hdt = HDTConnectivity(6)
        hdt.insert(0, 1)
        hdt.insert(1, 2)
        hdt.insert(0, 2)  # non-tree edge
        assert hdt.connected(0, 2)
        hdt.delete(0, 1)  # tree edge with replacement available
        assert hdt.connected(0, 1)
        hdt.delete(0, 2)
        hdt.delete(1, 2)
        assert not hdt.connected(0, 2)

    def test_duplicate_and_missing_edges_rejected(self):
        hdt = HDTConnectivity(4)
        hdt.insert(0, 1)
        with pytest.raises(ValueError):
            hdt.insert(1, 0)
        with pytest.raises(ValueError):
            hdt.delete(2, 3)

    def test_spanning_forest_is_consistent(self):
        hdt = HDTConnectivity(10)
        g = gnm_random_graph(10, 20, seed=3)
        for (u, v) in g.edge_list():
            hdt.insert(u, v)
        forest = hdt.spanning_forest()
        assert len(forest) == 10 - len(connected_components(g))

    def test_random_updates_match_bfs_reference(self):
        rng = random.Random(2)
        n = 24
        hdt = HDTConnectivity(n)
        shadow = DynamicGraph(n)
        present: list[tuple[int, int]] = []
        for step in range(600):
            if present and rng.random() < 0.45:
                u, v = present.pop(rng.randrange(len(present)))
                hdt.delete(u, v)
                shadow.delete_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or shadow.has_edge(u, v):
                    continue
                hdt.insert(u, v)
                shadow.insert_edge(u, v)
                present.append((u, v))
            if step % 20 == 0:
                assert same_partition(hdt.components(), connected_components(shadow))
        assert same_partition(hdt.components(), connected_components(shadow))

    def test_operation_counter_increases(self):
        hdt = HDTConnectivity(8)
        before = hdt.operations
        hdt.insert(0, 1)
        assert hdt.operations > before


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=60))
def test_property_hdt_connectivity_matches_reference(pairs):
    """Property: toggling edges keeps HDT's connectivity equal to BFS connectivity."""
    hdt = HDTConnectivity(10)
    shadow = DynamicGraph(10)
    for (u, v) in pairs:
        if u == v:
            continue
        if shadow.has_edge(u, v):
            hdt.delete(u, v)
            shadow.delete_edge(u, v)
        else:
            hdt.insert(u, v)
            shadow.insert_edge(u, v)
    assert same_partition(hdt.components(), connected_components(shadow))
