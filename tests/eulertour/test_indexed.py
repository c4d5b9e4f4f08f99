"""The index-arithmetic Euler-tour forest must agree with the explicit one."""

from __future__ import annotations

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.eulertour import EulerTourForest, IndexedEulerTourForest


def assert_equivalent(indexed: IndexedEulerTourForest, reference: EulerTourForest, vertices: range) -> None:
    for v in vertices:
        assert indexed.component_vertices(v) == reference.component_vertices(v)
        assert indexed.first_appearance(v) == reference.first_appearance(v)
        assert indexed.last_appearance(v) == reference.last_appearance(v)
        assert sorted(indexed.indexes(v)) == sorted(reference.indexes(v))
    indexed.check_invariants()


class TestFigure1Indexed:
    def test_insert_e_g_matches_paper(self):
        indexed = IndexedEulerTourForest(range(7))
        for (u, v) in [(1, 4), (1, 2), (2, 3), (0, 5), (5, 6)]:
            indexed.link(u, v)
        indexed.link(6, 4)
        assert indexed.tour(0) == [0, 5, 5, 6, 6, 4, 4, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 6, 6, 5, 5, 0]

    def test_cut_a_b_matches_paper(self):
        indexed = IndexedEulerTourForest(range(7))
        for (u, v) in [(0, 5), (5, 6), (0, 1), (1, 4), (1, 2), (2, 3)]:
            indexed.link(u, v)
        indexed.cut(0, 1)
        assert indexed.tour(1) == [1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 1]
        assert indexed.tour(0) == [0, 5, 5, 6, 6, 5, 5, 0]
        assert not indexed.connected(0, 1)


class TestAgainstReference:
    def test_random_operations_agree_with_reference(self):
        rng = random.Random(11)
        n = 24
        indexed = IndexedEulerTourForest(range(n))
        reference = EulerTourForest(range(n))
        edges: list[tuple[int, int]] = []
        for _ in range(500):
            op = rng.random()
            if edges and op < 0.35:
                u, v = edges.pop(rng.randrange(len(edges)))
                indexed.cut(u, v)
                reference.cut(u, v)
            elif op < 0.45 and edges:
                r = rng.randrange(n)
                indexed.reroot(r)
                reference.reroot(r)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not indexed.connected(u, v):
                    indexed.link(u, v)
                    reference.link(u, v)
                    edges.append((u, v))
            assert {frozenset(c) for c in indexed.components()} == {
                frozenset(c) for c in reference.components()
            }
        assert_equivalent(indexed, reference, range(n))

    def test_ancestor_queries_agree(self):
        rng = random.Random(3)
        n = 16
        indexed = IndexedEulerTourForest(range(n))
        reference = EulerTourForest(range(n))
        for v in range(1, n):
            p = rng.randrange(v)
            indexed.link(p, v)
            reference.link(p, v)
        for u in range(n):
            for v in range(n):
                assert indexed.is_ancestor(u, v) == reference.is_ancestor(u, v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_property_random_forests_stay_consistent(pairs, pyrandom):
    """Property: any sequence of valid links/cuts keeps both structures identical."""
    indexed = IndexedEulerTourForest(range(12))
    reference = EulerTourForest(range(12))
    edges: list[tuple[int, int]] = []
    for (u, v) in pairs:
        if u == v:
            continue
        if indexed.connected(u, v):
            if edges and pyrandom.random() < 0.7:
                a, b = edges.pop(pyrandom.randrange(len(edges)))
                indexed.cut(a, b)
                reference.cut(a, b)
            continue
        indexed.link(u, v)
        reference.link(u, v)
        edges.append((u, v))
    assert_equivalent(indexed, reference, range(12))


# ------------------------------------------------------------------- link_all
def incremental_twin(vertices, edges) -> IndexedEulerTourForest:
    """The construction ``link_all`` replaces: one ``link`` per unconnected pair, in order."""
    forest = IndexedEulerTourForest(vertices)
    for (u, v) in edges:
        forest.add_vertex(u)
        forest.add_vertex(v)
        if not forest.connected(u, v):
            forest.link(u, v)
    return forest


def parent_child_edges(forest: IndexedEulerTourForest) -> list[tuple[int, int]]:
    return [(u, v) if forest.is_ancestor(u, v) else (v, u) for (u, v) in forest.tree_edges()]


def reference_twin(indexed: IndexedEulerTourForest) -> EulerTourForest:
    """An explicit-tour forest holding exactly ``indexed``'s tours.

    ``link`` hangs the new subtree in front of its siblings, so linking the
    tree edges by decreasing first appearance of the child rebuilds every
    subtree before it is attached and every sibling order as it stands.
    """
    reference = EulerTourForest(indexed.vertices)
    by_child = sorted(parent_child_edges(indexed), key=lambda e: indexed.first_appearance(e[1]))
    for (p, c) in reversed(by_child):
        reference.link(p, c)
    return reference


edge_lists = st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=45)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 14), edge_lists)
def test_property_link_all_equals_the_incremental_construction(preadded, edges):
    """Repeats, already-connected pairs, self pairs and vertices not yet added included."""
    seeded = IndexedEulerTourForest(range(preadded))
    returned = seeded.link_all(edges)
    incremental = incremental_twin(range(preadded), edges)

    seeded.check_invariants()
    assert seeded.vertices == incremental.vertices
    assert seeded.components() == incremental.components()  # same sets under the same ids, same order
    assert returned == seeded.tree_edges() == incremental.tree_edges()
    for v in seeded.vertices:
        assert seeded.component_of(v) == incremental.component_of(v)
        assert seeded.root(v) == incremental.root(v)
        assert seeded.tour_length(v) == incremental.tour_length(v)
        assert len(seeded.indexes(v)) == len(incremental.indexes(v))
    for (u, v) in returned:
        assert seeded.is_ancestor(u, v) == incremental.is_ancestor(u, v)
        assert seeded.is_ancestor(v, u) == incremental.is_ancestor(v, u)


@settings(max_examples=100, deadline=None)
@given(edge_lists)
def test_property_link_all_gives_every_tree_edge_its_four_positions(edges):
    """In ``tour(v)`` the edge ``(p, c)`` is exactly ``p, c … c, p`` around ``c``'s subtree."""
    forest = IndexedEulerTourForest()
    forest.link_all(edges)
    claimed: dict[int, set[int]] = {}
    for (p, c) in parent_child_edges(forest):
        tour = forest.tour(p)
        f_c, l_c = forest.first_appearance(c), forest.last_appearance(c)
        subtree = [w for w in forest.component_vertices(c) if forest.is_descendant_of(w, c)]
        assert l_c - f_c + 1 == 4 * len(subtree) - 2
        assert [tour[i - 1] for i in (f_c - 1, f_c, l_c, l_c + 1)] == [p, c, c, p]
        assert set(tour[f_c - 1 : l_c]) == set(subtree)
        claimed.setdefault(forest.component_of(p), set()).update((f_c - 1, f_c, l_c, l_c + 1))
    for positions in claimed.values():
        assert positions == set(range(1, len(positions) + 1))
    assert sum(len(p) for p in claimed.values()) == 4 * len(forest.tree_edges())


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.randoms(use_true_random=False))
def test_property_dynamic_operations_keep_working_on_a_link_all_forest(edges, pyrandom):
    """``link`` / ``cut`` / ``reroot`` after ``link_all``, in lockstep with the explicit-tour oracle."""
    indexed = IndexedEulerTourForest(range(14))
    indexed.link_all(edges)
    reference = reference_twin(indexed)
    for v in range(14):
        assert indexed.tour(v) == reference.tour(v)
    assert_equivalent(indexed, reference, range(14))

    # cut + re-link round trip of every tree edge, with reroots in between
    for (u, v) in sorted(indexed.tree_edges(), key=lambda e: pyrandom.random()):
        indexed.cut(u, v)
        reference.cut(u, v)
        assert not indexed.connected(u, v)
        r = pyrandom.randrange(14)
        indexed.reroot(r)
        reference.reroot(r)
        if pyrandom.random() < 0.5:
            u, v = v, u
        indexed.link(u, v)
        reference.link(u, v)
        assert_equivalent(indexed, reference, range(14))


class TestLinkAll:
    def test_figure1_forest_in_one_call(self):
        forest = IndexedEulerTourForest(range(7))
        edges = [(1, 4), (1, 2), (2, 3), (0, 5), (5, 6), (6, 4)]
        assert forest.link_all(edges) == {(1, 4), (1, 2), (2, 3), (0, 5), (5, 6), (4, 6)}
        # (6, 4) hangs 4's tree — rooted at 1 — below 6: the merged root is 0
        assert forest.tour(0) == [0, 5, 5, 6, 6, 4, 4, 1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 4, 4, 6, 6, 5, 5, 0]
        assert forest.root(3) == 0 and forest.component_of(3) == 0

    def test_children_are_laid_out_in_edge_order(self):
        forest = IndexedEulerTourForest(range(5))
        forest.link_all([(0, 1), (0, 2), (2, 3), (0, 4)])
        assert forest.tour(0) == [0, 1, 1, 0, 0, 2, 2, 3, 3, 2, 2, 0, 0, 4, 4, 0]
        assert forest.indexes(0) == [1, 4, 5, 12, 13, 16]
        assert forest.indexes(2) == [6, 7, 10, 11]

    def test_empty_edge_list_and_edgeless_vertices(self):
        forest = IndexedEulerTourForest(range(3))
        assert forest.link_all([]) == set()
        assert forest.components() == [{0}, {1}, {2}]
        forest.check_invariants()

    def test_refuses_a_forest_that_already_has_tree_edges(self):
        forest = IndexedEulerTourForest(range(4))
        forest.link(0, 1)
        with pytest.raises(ValueError, match="already has tree edges"):
            forest.link_all([(2, 3)])
        assert forest.tree_edges() == {(0, 1)} and not forest.connected(2, 3)

    def test_cut_everything_then_seed_again(self):
        forest = IndexedEulerTourForest(range(4))
        for (u, v) in forest.link_all([(0, 1), (1, 2), (2, 3)]):
            forest.cut(u, v)
        assert forest.link_all([(3, 2), (2, 1)]) == {(2, 3), (1, 2)}
        assert forest.root(1) == 3
        forest.check_invariants()
