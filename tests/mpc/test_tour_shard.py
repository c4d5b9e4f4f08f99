"""``TourShard`` records and the ``TourPairs`` position index over them: link/cut passes against the index-set reference.

A forest's vertices are split over 1, 2 and 7 shards, and the index's passes
are driven with the same constant-size scalars the connectivity driver
broadcasts; after every step the shards must say exactly what
:class:`IndexedEulerTourForest` says — although no shard stores an index set,
only the pairs of its tree records.  A replaced cut (``replace``) runs twice:
as the one composed rewrite ``cut_link`` and as ``cut`` then ``link``, which
must leave the same shards behind.  Before every cut, the offers each shard
builds for the vertices of the index's ``inside`` slice must be what the
per-member rule offers, and after every step — the pops of a cut's records
included — the index must be the one :meth:`TourPairs.from_shards` rebuilds:
each tree pair's two ends at the positions they read, under its vertex's
component.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.eulertour import IndexedEulerTourForest
from repro.mpc.layout import TourPairs, TourShard
from seeded_mutation import mutated

SHARD_COUNTS = (1, 2, 7)
N = 12


class ShardedForest:
    """Vertices ``v % k``-partitioned over ``k`` shards, driven like the DMPC driver drives machines."""

    def __init__(self, n: int, num_shards: int, *, composed: bool = True) -> None:
        self.composed = composed
        self.shards = [TourShard() for _ in range(num_shards)]
        self.pairs = TourPairs()
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
        members = {v for shard in self.shards for v in shard.by_comp.get(comp_y, ())}
        moved = self.pairs.link(comp_x, comp_y, y, f_x, l_y, len_y, len_y > 0 and f_y != 1)
        assert moved == members  # the link moves exactly y's component, a singleton included
        for shard in self.shards:
            here = {v for v in moved if self.shard(v) is shard}
            if here:
                shard.move(here, comp_y, comp_x)
        self.length[comp_x] += len_y + 4
        self.set_tree_edge(x, y, f_x, len_y)

    def set_tree_edge(self, x: int, y: int, f_x: int, len_y: int) -> None:
        """``_store_tree_edge``: the linked edge's two records (x is the parent, y the child)."""
        self.pairs.set_edge(self.shard(x), x, y, {"tree": True, "weight": 1.0, "indexes": (f_x + 1, f_x + len_y + 4)})
        self.pairs.set_edge(self.shard(y), y, x, {"tree": True, "weight": 1.0, "indexes": (f_x + 2, f_x + len_y + 3)})

    def offers(self, shard: TourShard, inside: "set[int]") -> list:
        """What ``shard`` offers for the scanned vertices it owns: their non-tree records."""
        return sorted((v, w, rec["weight"]) for v in inside if self.shard(v) is shard for w, rec in shard.edges[v].items() if not rec["tree"])

    def cut_scalars(self, x: int, y: int) -> "tuple[int, int, int, int, int]":
        """``_cut_scalars``: read from the two copies of the edge, which are then dropped."""
        pair_x = self.shard(x).edge_row(x)[y]["indexes"]
        pair_y = self.shard(y).edge_row(y)[x]["indexes"]
        if pair_x[0] > pair_y[0]:
            x, y, pair_y = y, x, pair_x
        comp, new_comp = self.shard(x).comp[x], self.next_comp
        self.next_comp += 1
        self.pairs.pop_edge(self.shard(x), x, y)
        self.pairs.pop_edge(self.shard(y), y, x)
        assert filled_slots(self.pairs) == filled_slots(TourPairs.from_shards(self.shards))  # the cut edge's slots are empty
        inside = self.pairs.inside(comp, y, *pair_y)  # what a cut's replacement search reads, before anything is rewritten
        for shard in self.shards:
            assert self.offers(shard, inside) == members_rule_offers(shard, comp, y, *pair_y)
        return (y, comp, new_comp, *pair_y)

    def cut(self, x: int, y: int) -> None:
        """``_cut_scalars`` + ``_commit_cut``."""
        y, comp, new_comp, f_y, l_y = self.cut_scalars(x, y)
        inside = self.pairs.inside(comp, y, f_y, l_y)
        offers = [self.offers(shard, inside) for shard in self.shards]
        moved = self.pairs.cut(comp, new_comp, y, f_y, l_y)
        assert moved == inside  # the cut moves exactly the vertices the scan found inside
        for shard in self.shards:
            here = {v for v in moved if self.shard(v) is shard}
            if here:
                shard.move(here, comp, new_comp)
        # what the un-cut shards offered is what the split-off component holds once the cut is applied
        assert offers == [
            sorted((v, w, rec["weight"]) for v in shard.by_comp.get(new_comp, ()) for w, rec in shard.edges[v].items() if not rec["tree"])
            for shard in self.shards
        ]
        self.length[new_comp] = l_y - f_y - 1
        self.length[comp] -= l_y - f_y + 3

    def replace(self, x: int, y: int, a: int, b: int) -> None:
        """A replaced tree delete: cut ``(x, y)``, then ``(a, b)`` — ``b`` inside the split-off subtree,
        ``a`` outside — becomes a tree edge.  Composed, it is the driver's ``_replacement_link`` (link
        scalars by arithmetic on the spans as they stand before the cut) and one ``cut_link`` pass."""
        if not self.composed:
            self.cut(x, y)
            self.link(a, b)
            return
        y, comp, _spent, f_y, l_y = self.cut_scalars(x, y)  # the split-off component's id: nothing ever carries it
        len_y = l_y - f_y - 1
        l_b = len_y if b == y else self.shard(b).span(b)[1] - f_y
        f_x = self.shard(a).span(a)[0]
        if f_x > l_y:
            f_x -= len_y + 4
        f_x -= f_x % 2
        self.pairs.cut_link(comp, f_y, l_y, f_x, l_b, len_y, b != y)
        self.set_tree_edge(a, b, f_x, len_y)

    def state(self) -> list:
        """Everything the shards hold but the component *ids* (compared as a partition per shard)."""
        return [
            (sorted(map(sorted, shard.by_comp.values())), shard.edges, shard.tree, shard.live_words())
            for shard in self.shards
        ]

    def toggle_non_tree(self, u: int, v: int) -> None:
        """Non-tree records are inert at this level: the passes must never touch them."""
        for a, b in ((u, v), (v, u)):
            if b in self.shard(a).edge_row(a):
                self.pairs.pop_edge(self.shard(a), a, b)
            else:
                self.pairs.set_edge(self.shard(a), a, b, {"tree": False, "weight": 2.0, "indexes": None})


def members_rule_offers(shard: TourShard, comp: int, y: int, f_y: int, l_y: int) -> list:
    """The per-member rule the map scan replaced: a vertex is inside ``y``'s subtree iff the
    first pair of its tree row lies in ``[f_y, l_y]``, or it is ``y`` with an empty row."""
    inside = []
    for v in shard.by_comp.get(comp, ()):
        row = list(shard.tree[v].values())
        if (f_y <= row[0][0] <= l_y) if row else v == y:
            inside.append(v)
    return sorted((v, w, rec["weight"]) for v in inside for w, rec in shard.edges[v].items() if not rec["tree"])


def filled_slots(pairs: TourPairs) -> dict:
    """``comp → {position: (v, w, id(pair), end)}`` over the index's filled slots."""
    held = {
        comp: {position: (*slot[:2], id(slot[2]), slot[3]) for position, slot in enumerate(slots) if slot is not None}
        for comp, slots in pairs.comps.items()
    }
    return {comp: filled for comp, filled in held.items() if filled}


def assert_pair_index(pairs: TourPairs, shards: "list[TourShard]") -> None:
    """``comps[comp]`` holds both ends of exactly the tree pairs of ``comp``'s members over all shards,
    each at the position it reads, as the very list the member's tree row holds; every position is
    filled, and no index outlives its pairs."""
    listed = sorted((id(pair), v, w, comp, end, pair[end] == position) for comp, slots in pairs.comps.items() for position, (v, w, pair, end) in enumerate(slots[1:], 1))
    rows = sorted((id(pair), v, w, shard.comp[v], end, True) for shard in shards for v, row in shard.tree.items() for w, pair in row.items() for end in (0, 1))
    assert listed == rows
    assert all(len(slots) > 1 and slots[0] is None for slots in pairs.comps.values())
    assert pairs.mismatch(shards) is None


def assert_matches(forest: ShardedForest, reference: IndexedEulerTourForest, n: int) -> None:
    groups: dict[int, set[int]] = {}
    assert_pair_index(forest.pairs, forest.shards)
    for shard in forest.shards:
        assert set(shard.comp) == set(shard.edges) == set(shard.tree)
        for comp, members in shard.by_comp.items():
            assert members and all(shard.comp[v] == comp for v in members)
            groups.setdefault(comp, set()).update(members)
        assert sum(len(members) for members in shard.by_comp.values()) == len(shard.comp)
        words = 0
        for v, row in shard.edges.items():
            # the seed's per-key closed form: ("tour", v) + ("edges", v) entries, then the records
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
    """Apply ``("link"|"cut"|"flip", u, v)`` / ``("replace", x, y, a, b)`` ops to the composed shards,
    their two-pass twin and the reference, comparing after every step."""
    forest, twin = ShardedForest(n, num_shards), ShardedForest(n, num_shards, composed=False)
    reference = IndexedEulerTourForest(range(n))
    for op, *args in ops:
        for sharded in (forest, twin):
            getattr(sharded, "toggle_non_tree" if op == "flip" else op)(*args)
        if op == "replace":
            reference.cut(*args[:2])
            reference.link(*args[2:])
        elif op != "flip":
            getattr(reference, op)(*args)
        assert_matches(forest, reference, n)
        assert forest.state() == twin.state(), f"composed and two-pass shards differ after {(op, *args)}"
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


#: the path 0-1-2-3-4 with a side branch 2-5 and the non-tree edges the named cases promote
PATH = [("link", 0, 1), ("link", 1, 2), ("link", 2, 3), ("link", 3, 4), ("link", 2, 5), ("flip", 0, 4), ("flip", 1, 5)]
#: the star 0-{1, 2, 3} with grandchildren 1-4, 2-5, 3-6; a link attaches in front, so the tour visits
#: 3's subtree, then 2's, then 1's
STAR = [("link", 0, 1), ("link", 0, 2), ("link", 0, 3), ("link", 1, 4), ("link", 2, 5), ("link", 3, 6), ("flip", 4, 5), ("flip", 5, 6)]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
class TestReplacedCutCases:
    """One composed rewrite per replaced tree delete, equal to cut-then-link and to the reference."""

    def test_leaf_subtree_has_nothing_to_rotate(self, num_shards):
        forest = replay(PATH + [("replace", 3, 4, 0, 4)], num_shards)  # len_y = 0, b == y
        assert forest.shard(4).span(4) == (2, 3)

    def test_b_is_y_with_children_keeps_its_rotation(self, num_shards):
        replay(PATH + [("replace", 1, 2, 0, 2)], num_shards)  # y = 2 roots {2, 3, 4, 5}: reroot False

    def test_b_below_y_reroots_the_subtree(self, num_shards):
        forest = replay(PATH + [("replace", 1, 2, 0, 4)], num_shards)  # 4 becomes the subtree's root
        assert forest.shard(4).span(4)[0] == 2

    def test_a_is_x(self, num_shards):
        replay(PATH + [("replace", 1, 2, 1, 5)], num_shards)
        replay(PATH + [("replace", 2, 1, 1, 5)], num_shards)  # the deleted edge named child first

    def test_attachment_before_the_hole(self, num_shards):
        star = replay(STAR, num_shards)
        assert star.shard(3).span(3)[0] < star.shard(6).span(6)[0] < star.shard(2).span(2)[0]
        replay(STAR + [("replace", 0, 2, 6, 5)], num_shards)
        replay(STAR + [("replace", 0, 2, 3, 2)], num_shards)

    def test_attachment_after_the_hole(self, num_shards):
        star = replay(STAR, num_shards)
        assert star.shard(2).span(2)[1] < star.shard(1).span(1)[0] < star.shard(4).span(4)[0]
        # a's first appearance is the last index that moves down: the interval is closed on that side
        replay(STAR + [("replace", 0, 2, 4, 5)], num_shards)
        replay(STAR + [("replace", 0, 2, 1, 2)], num_shards)
        replay(STAR + [("replace", 0, 3, 2, 6)], num_shards)

    def test_attachment_at_a_root_whose_first_child_was_cut(self, num_shards):
        replay(STAR + [("replace", 0, 3, 0, 6)], num_shards)  # x's first pair is past the hole, f_x still 0

    def test_singleton_survivor(self, num_shards):
        forest = replay([("link", 0, 1), ("link", 1, 2), ("flip", 0, 2), ("replace", 0, 1, 0, 2)], num_shards)
        assert forest.shard(0).span(0) == (1, 8)

    def test_non_tree_records_are_never_touched(self, num_shards):
        forest = replay(STAR + [("flip", 1, 3), ("replace", 0, 2, 4, 5)], num_shards)
        for u, v in ((5, 6), (6, 5), (1, 3), (3, 1)):
            assert forest.shard(u).edge_row(u)[v] == {"tree": False, "weight": 2.0, "indexes": None}
        assert forest.shard(4).edge_row(4)[5]["tree"]  # the promoted record


#: ``(u, v, dice)`` triples and the draws that pick edges and endpoints
RANDOM_SEQUENCES = (
    st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), st.integers(0, 9)), min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)


@settings(max_examples=60, deadline=None)
@given(*RANDOM_SEQUENCES)
def test_property_random_link_cut_sequences_match_the_reference(triples, pyrandom):
    """Any valid link/cut sequence, on any shard count, keeps every shard equal to the reference."""
    runs = [(ShardedForest(N, k), IndexedEulerTourForest(range(N))) for k in SHARD_COUNTS]
    runs.append((ShardedForest(N, 2, composed=False), IndexedEulerTourForest(range(N))))
    oracle = runs[0][1]
    edges: list[tuple[int, int]] = []
    for u, v, dice in triples:
        if u == v:
            continue
        if dice == 0 and not oracle.has_tree_edge(u, v):
            op = ("toggle_non_tree", u, v)
        elif not oracle.connected(u, v):
            op = ("link", u, v)
            edges.append((u, v))
        elif edges:
            x, y = edges.pop(pyrandom.randrange(len(edges)))
            if oracle.is_ancestor(y, x):
                x, y = y, x
            subtree = sorted(w for w in oracle.component_vertices(y) if oracle.is_descendant_of(w, y))
            rest = sorted(oracle.component_vertices(y) - set(subtree))
            x, y = pyrandom.choice([(x, y), (y, x)])
            if dice < 6:  # a replaced cut: any vertex outside the subtree with any vertex inside it
                a, b = pyrandom.choice(rest), pyrandom.choice(subtree)
                op = ("replace", x, y, a, b)
                edges.append((a, b))
            else:
                op = ("cut", x, y)
        else:
            continue
        for forest, reference in runs:
            getattr(forest, op[0])(*op[1:])
            if op[0] == "replace":
                reference.cut(x, y)
                reference.link(a, b)
            elif op[0] != "toggle_non_tree":
                getattr(reference, op[0])(*op[1:])
            assert_matches(forest, reference, N)
            assert filled_slots(forest.pairs) == filled_slots(TourPairs.from_shards(forest.shards))
        assert runs[1][0].state() == runs[-1][0].state()  # composed ≡ two passes, on two shards each


def test_property_catches_a_dropped_pair_left_in_its_list(monkeypatch):
    """Seeded mutation: ``pop_edge`` drops a tree record but leaves its two slots filled, so the
    index ``inside`` reads holds a pair no record holds.  The pass that applies the cut drops the
    cut edge's positions whatever they hold, so only the state between the pops and that pass
    shows it; the property above must fail on it."""
    monkeypatch.setattr(TourPairs, "pop_edge", mutated(TourPairs.pop_edge, "slots[pair[0]] = slots[pair[1]] = None", "pass"))
    prop = test_property_random_link_cut_sequences_match_the_reference.hypothesis.inner_test
    check = settings(max_examples=60, derandomize=True, deadline=None, database=None, phases=[Phase.generate], report_multiple_bugs=False)
    with pytest.raises(AssertionError):
        check(given(*RANDOM_SEQUENCES)(prop))()


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

    def test_pickle_round_trip_rebuilds_the_map_from_the_tree_records(self):
        forest = replay([("link", 0, 1), ("link", 1, 2), ("flip", 0, 2), ("link", 3, 2)], 2, n=4)
        shards = [pickle.loads(pickle.dumps(shard)) for shard in forest.shards]
        pairs = TourPairs.from_shards(shards)
        for shard, original in zip(shards, forest.shards):
            assert shard.by_comp == original.by_comp and shard.live_words() == original.live_words()
            assert shard.edges == original.edges and shard.tree == original.tree
            # one object per pair: the record's, the tree row's and the index's two slots'
            for v, row in shard.tree.items():
                for w, pair in row.items():
                    slots = pairs.comps[shard.comp[v]]
                    assert shard.edges[v][w]["indexes"] is pair and slots[pair[0]][2] is pair and slots[pair[1]][2] is pair
        assert_pair_index(pairs, shards)
        assert pairs.comps == forest.pairs.comps
        assert {comp: len(slots) for comp, slots in pairs.comps.items()} == {3: 13}  # the tree 3-2-1-0: 12 positions and slot 0

    def test_mismatch_names_the_component_whose_pairs_disagree(self):
        forest = replay([("link", 0, 1), ("link", 1, 2)], 2, n=4)
        assert forest.pairs.mismatch(forest.shards) is None
        record = forest.shard(2).edges[2][1]
        lo, hi = record["indexes"]
        forest.shard(2).pop_edge(2, 1)  # the record goes, its slots stay in the index
        stray = f"component 0: position {lo} holds a pair no tree record (2, 1) of the component holds"
        assert forest.pairs.mismatch(forest.shards) == stray
        forest.shard(2).set_edge(2, 1, record)  # an equal copy is not the slots' pair
        assert forest.pairs.mismatch(forest.shards) == stray
        forest.pairs.set_edge(forest.shard(2), 2, 1, record)
        assert forest.pairs.mismatch(forest.shards) is None and forest.pairs.comps[0][hi][:2] == (2, 1)

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (lambda slots: slots.__setitem__(5, None), "position 5 holds no pair end"),
            (lambda slots: slots.__setitem__(5, (*slots[5][:3], 1 - slots[5][3])), "position 5 holds end 0 of (2, 1)'s pair [4, 5]"),
            (lambda slots: slots.__setitem__(5, (*slots[5][:2], list(slots[5][2]), 1)), "position 5 holds a pair no tree record (2, 1) of the component holds"),
            (lambda slots: slots.__setitem__(5, slots[2]), "position 5 holds end 0 of (1, 0)'s pair [2, 7]"),
            (lambda slots: slots.append(slots[5]), "position 9 holds end 1 of (2, 1)'s pair [4, 5]"),
            (lambda slots: slots.__setitem__(0, slots[5]), "position 0 holds a pair end"),
        ],
        ids=["hole", "wrong-end", "copied-pair", "moved-slot", "extra-position", "slot-zero"],
    )
    def test_a_corrupted_slot_is_named_by_component_and_position(self, corrupt, problem):
        forest = replay([("link", 0, 1), ("link", 1, 2)], 2, n=4)
        slots = forest.pairs.comps[0]
        assert [slot[:2] + (slot[2][slot[3]],) for slot in slots[1:]] == [
            (0, 1, 1), (1, 0, 2), (1, 2, 3), (2, 1, 4), (2, 1, 5), (1, 2, 6), (1, 0, 7), (0, 1, 8)
        ]
        corrupt(slots)
        assert forest.pairs.mismatch(forest.shards) == f"component 0: {problem}"
