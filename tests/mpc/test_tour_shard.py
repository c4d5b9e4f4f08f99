"""The pair-table ``TourShard``: link/cut kernels against the index-set reference.

A forest's vertices are split over 1, 2 and 7 shards and driven with the
same constant-size scalars the connectivity driver broadcasts; after every
step the shards must say exactly what :class:`IndexedEulerTourForest` says —
although no shard stores an index set, only the pairs of its tree records.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.eulertour import IndexedEulerTourForest
from repro.mpc.layout import TourShard

SHARD_COUNTS = (1, 2, 7)
N = 12


class ShardedForest:
    """Vertices ``v % k``-partitioned over ``k`` shards, driven like the DMPC driver drives machines."""

    def __init__(self, n: int, num_shards: int) -> None:
        self.shards = [TourShard() for _ in range(num_shards)]
        self.length = {v: 0 for v in range(n)}
        self.next_comp = n
        for v in range(n):
            self.shard(v).add_vertex(v, v)

    def shard(self, v: int) -> TourShard:
        return self.shards[v % len(self.shards)]

    def link(self, x: int, y: int) -> None:
        """``_link_scalars`` + ``_commit_link``: ``y``'s tree becomes a child subtree of ``x``."""
        comp_x, comp_y = self.shard(x).comp[x], self.shard(y).comp[y]
        len_y = self.length.pop(comp_y)
        f_y, l_y = self.shard(y).span(y)
        f_x = self.shard(x).span(x)[0]
        f_x -= f_x % 2
        for shard in self.shards:
            shard.apply_link(comp_x, comp_y, f_x, l_y, len_y, len_y > 0 and f_y != 1)
        self.length[comp_x] += len_y + 4
        self.shard(x).set_edge(x, y, {"tree": True, "weight": 1.0, "indexes": (f_x + 1, f_x + len_y + 4)})
        self.shard(y).set_edge(y, x, {"tree": True, "weight": 1.0, "indexes": (f_x + 2, f_x + len_y + 3)})

    def cut(self, x: int, y: int) -> None:
        """``_cut_scalars`` (read from the two copies, then drop them) + ``_commit_cut``."""
        pair_x = self.shard(x).edge_row(x)[y]["indexes"]
        pair_y = self.shard(y).edge_row(y)[x]["indexes"]
        if pair_x[0] > pair_y[0]:
            x, y, pair_y = y, x, pair_x
        f_y, l_y = pair_y
        comp, new_comp = self.shard(x).comp[x], self.next_comp
        self.next_comp += 1
        self.shard(x).pop_edge(x, y)
        self.shard(y).pop_edge(y, x)
        for shard in self.shards:
            shard.apply_cut(comp, new_comp, y, f_y, l_y)
        self.length[new_comp] = l_y - f_y - 1
        self.length[comp] -= l_y - f_y + 3

    def toggle_non_tree(self, u: int, v: int) -> None:
        """Non-tree records are inert at this level: the kernels must never touch them."""
        for a, b in ((u, v), (v, u)):
            if b in self.shard(a).edge_row(a):
                self.shard(a).pop_edge(a, b)
            else:
                self.shard(a).set_edge(a, b, {"tree": False, "weight": 2.0, "indexes": None})


def assert_matches(forest: ShardedForest, reference: IndexedEulerTourForest, n: int) -> None:
    groups: dict[int, set[int]] = {}
    for shard in forest.shards:
        assert set(shard.comp) == set(shard.edges) == set(shard.tree)
        for comp, members in shard.by_comp.items():
            assert members and all(shard.comp[v] == comp for v in members)
            groups.setdefault(comp, set()).update(members)
        assert sum(len(members) for members in shard.by_comp.values()) == len(shard.comp)
        words = 0
        for v, row in shard.edges.items():
            # the dict layout's closed form: ("tour", v) + ("edges", v) entries, then the records
            words += 12 + len(shard.index_set(v)) + sum(10 if rec["indexes"] is not None else 8 for rec in row.values())
            for w, rec in row.items():
                if rec["tree"]:
                    lo, hi = rec["indexes"]
                    assert lo < hi
                    assert rec["indexes"] is shard.tree[v][w]  # stored once: the record's pair is the row's
                else:
                    assert rec == {"tree": False, "weight": 2.0, "indexes": None} and w not in shard.tree[v]
        assert shard.live_words() == words
    assert {frozenset(g) for g in groups.values()} == {frozenset(c) for c in reference.components()}
    for v in range(n):
        shard = forest.shard(v)
        assert shard.index_set(v) == set(reference.indexes(v))
        assert shard.span(v) == (reference.first_appearance(v), reference.last_appearance(v))
    for comp, members in groups.items():
        tiling = sorted(i for v in members for i in forest.shard(v).index_set(v))
        assert tiling == list(range(1, 4 * (len(members) - 1) + 1))
        assert forest.length[comp] == len(tiling)


def replay(ops, num_shards: int, n: int = N) -> ShardedForest:
    """Apply ``("link"|"cut"|"flip", u, v)`` ops to both structures, comparing after every step."""
    forest, reference = ShardedForest(n, num_shards), IndexedEulerTourForest(range(n))
    for op, u, v in ops:
        if op == "flip":
            forest.toggle_non_tree(u, v)
        else:
            getattr(forest, op)(u, v)
            getattr(reference, op)(u, v)
        assert_matches(forest, reference, n)
    return forest


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
class TestKernelCases:
    def test_reroot_flips_the_path_to_the_old_root(self, num_shards):
        # 2 is a non-root leaf of 0-1-2: linking it under 3 reroots the path, reversing both edges' pairs
        forest = replay([("link", 0, 1), ("link", 1, 2), ("flip", 0, 2), ("link", 3, 2)], num_shards)
        assert forest.shard(2).span(2) == (2, 11) and forest.shard(0).span(0) == (6, 7)

    def test_y_already_root_is_not_rotated(self, num_shards):
        replay([("link", 0, 1), ("link", 0, 2), ("link", 3, 0), ("link", 4, 3)], num_shards)

    def test_link_below_a_non_root_shifts_only_the_suffix(self, num_shards):
        replay([("link", 0, 1), ("link", 0, 2), ("link", 5, 6), ("link", 1, 5), ("link", 2, 7)], num_shards)

    def test_cut_leaves_y_a_singleton(self, num_shards):
        forest = replay([("link", 0, 1), ("link", 1, 2), ("cut", 2, 1)], num_shards)
        assert forest.shard(2).span(2) == (0, 0) and forest.shard(2).comp[2] == N

    def test_cut_leaves_x_a_singleton(self, num_shards):
        forest = replay([("link", 0, 1), ("link", 1, 2), ("cut", 0, 1)], num_shards)
        assert forest.shard(0).span(0) == (0, 0) and forest.shard(0).comp[0] == 0

    def test_cut_leaves_both_singletons_then_relinks(self, num_shards):
        replay([("link", 0, 1), ("cut", 0, 1), ("link", 1, 0), ("cut", 1, 0)], num_shards)

    def test_cut_in_the_middle_closes_the_gap(self, num_shards):
        star = [("link", 0, v) for v in (1, 2, 3)] + [("link", 2, 4), ("link", 4, 5), ("flip", 3, 5)]
        replay(star + [("cut", 0, 2), ("link", 5, 3), ("cut", 4, 2)], num_shards)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), st.integers(0, 9)), min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)
def test_property_random_link_cut_sequences_match_the_reference(triples, pyrandom):
    """Any valid link/cut sequence, on any shard count, keeps every shard equal to the reference."""
    runs = [(ShardedForest(N, k), IndexedEulerTourForest(range(N))) for k in SHARD_COUNTS]
    edges: list[tuple[int, int]] = []
    for u, v, dice in triples:
        if u == v:
            continue
        if dice == 0 and not runs[0][1].has_tree_edge(u, v):
            op = ("toggle_non_tree", None, u, v)
        elif not runs[0][1].connected(u, v):
            op = ("link", "link", u, v)
            edges.append((u, v))
        elif edges:
            a, b = edges.pop(pyrandom.randrange(len(edges)))
            op = ("cut", "cut", *pyrandom.choice([(a, b), (b, a)]))
        else:
            continue
        for forest, reference in runs:
            getattr(forest, op[0])(*op[2:])
            if op[1]:
                getattr(reference, op[1])(*op[2:])
            assert_matches(forest, reference, N)


class TestShardSurface:
    def test_edge_for_an_unknown_vertex_is_refused(self):
        shard = TourShard()
        with pytest.raises(KeyError):
            shard.set_edge(3, 4, {"tree": False, "weight": 1.0, "indexes": None})
        assert shard.live_words() == 0 and not shard.edges

    def test_replacing_a_record_moves_the_charge_by_the_difference(self):
        shard = TourShard()
        shard.add_vertex(1, 0)
        shard.set_edge(1, 2, {"tree": False, "weight": 1.0, "indexes": None})
        assert shard.live_words() == 12 + 8
        shard.set_edge(1, 2, {"tree": True, "weight": 1.0, "indexes": (1, 4)})
        assert shard.live_words() == 12 + 2 + 10 and shard.index_set(1) == {1, 4}
        shard.pop_edge(1, 2)
        shard.pop_edge(1, 2)  # absent: a no-op
        assert shard.live_words() == 12 and shard.span(1) == (0, 0)

    def test_pickle_round_trip_keeps_each_pair_stored_once(self):
        forest = replay([("link", 0, 1), ("link", 1, 2), ("flip", 0, 2)], 1, n=4)
        shard = pickle.loads(pickle.dumps(forest.shards[0]))
        assert shard.by_comp == forest.shards[0].by_comp and shard.live_words() == forest.shards[0].live_words()
        assert shard.edges == forest.shards[0].edges and shard.tree == forest.shards[0].tree
        assert all(shard.edges[v][w]["indexes"] is pair for v, row in shard.tree.items() for w, pair in row.items())
