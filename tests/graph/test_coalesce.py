"""Update-stream coalescing: net-effect semantics, idempotence, grouping.

:func:`coalesce_updates` may drop and merge updates but never change the
*final graph* a batch produces: replaying the survivors from the batch's
pre-state must reach exactly the edge set (and, on well-formed streams,
the weights) that replaying the raw batch reaches.  These are the
property tests the coalescer's docstring promises, plus golden unit
tests for each cancellation rule.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import DynamicGraph, GraphUpdate
from repro.graph.generators import gnm_random_graph
from repro.graph.streams import mixed_stream
from repro.graph.updates import coalesce_updates, group_updates_by_owner

I = GraphUpdate.insert
D = GraphUpdate.delete


def lenient_replay(graph: DynamicGraph, updates) -> DynamicGraph:
    """Replay a (possibly ill-formed) stream; no-op inserts/deletes are skipped."""
    g = graph.copy()
    for upd in updates:
        if upd.is_insert:
            g.insert_edge(upd.u, upd.v, upd.weight)
        else:
            g.delete_edge(upd.u, upd.v)
    return g


# Arbitrary (possibly ill-formed) streams over a small vertex universe, so
# the same edge is touched many times and every cancellation rule fires.
updates_strategy = st.lists(
    st.builds(
        lambda op, u, v, w: GraphUpdate(op, u, v + (v >= u), w),
        st.sampled_from(["insert", "delete"]),
        st.integers(0, 5),
        st.integers(0, 4),
        st.floats(0.5, 4.0, allow_nan=False),
    ),
    max_size=40,
)


class TestCoalesceProperties:
    @settings(max_examples=200, deadline=None)
    @given(updates_strategy)
    def test_survivors_reach_the_same_edge_set(self, stream):
        survivors, stats = coalesce_updates(stream)
        raw = lenient_replay(DynamicGraph(), stream)
        net = lenient_replay(DynamicGraph(), survivors)
        assert raw.edge_list() == net.edge_list()
        assert stats["input"] == len(stream)
        assert stats["output"] == len(survivors) <= len(stream)

    @pytest.mark.parametrize("seed", range(8))
    def test_survivors_reach_the_same_edge_set_from_nonempty_prestate(self, seed):
        # Cancellation assumes the batch is well-formed w.r.t. its pre-state
        # (an insert of an already-present edge is a raw no-op the coalescer
        # would treat as real), so the non-empty pre-state property is
        # checked on well-formed streams — the only kind the algorithms see.
        base = gnm_random_graph(8, 12, seed=5)
        stream = list(mixed_stream(8, 100, seed=seed, insert_probability=0.5, initial=base))
        survivors, _ = coalesce_updates(stream)
        assert lenient_replay(base, stream).edge_list() == lenient_replay(base, survivors).edge_list()

    @settings(max_examples=200, deadline=None)
    @given(updates_strategy)
    def test_idempotent(self, stream):
        survivors, _ = coalesce_updates(stream)
        again, stats = coalesce_updates(survivors)
        assert again == survivors
        assert stats["cancelled_pairs"] == 0
        assert stats["deduped"] == 0

    @settings(max_examples=200, deadline=None)
    @given(updates_strategy)
    def test_at_most_two_survivors_per_edge_in_first_touch_order(self, stream):
        survivors, stats = coalesce_updates(stream)
        per_edge: dict[tuple[int, int], list[str]] = {}
        first_touch = []
        for upd in survivors:
            if upd.edge not in per_edge:
                first_touch.append(upd.edge)
            per_edge.setdefault(upd.edge, []).append(upd.op)
        for ops in per_edge.values():
            # the only two-survivor shape is a delete followed by an insert
            assert ops in (["insert"], ["delete"], ["delete", "insert"])
        raw_order = []
        for upd in stream:
            if upd.edge in per_edge and upd.edge not in raw_order:
                raw_order.append(upd.edge)
        assert first_touch == raw_order
        assert stats["edges"] == len({u.edge for u in stream})

    def test_well_formed_stream_preserves_weights_exactly(self):
        # On a well-formed stream (what mixed_stream generates: no duplicate
        # inserts, no deletes of absent edges) the survivors reproduce the
        # final weights too, not just the edge set.
        graph = gnm_random_graph(10, 15, seed=6)
        stream = list(mixed_stream(10, 120, seed=7, insert_probability=0.5, initial=graph))
        survivors, _ = coalesce_updates(stream)
        raw = lenient_replay(graph, stream)
        net = lenient_replay(graph, survivors)
        assert raw.edge_list() == net.edge_list()
        assert sorted(raw.weighted_edges()) == sorted(net.weighted_edges())


class TestCancellationRules:
    def test_insert_then_delete_cancels(self):
        survivors, stats = coalesce_updates([I(1, 2), D(1, 2)])
        assert survivors == []
        assert stats["cancelled_pairs"] == 1

    def test_insert_over_insert_keeps_the_last(self):
        survivors, stats = coalesce_updates([I(1, 2, weight=1.0), I(2, 1, weight=9.0)])
        assert survivors == [I(2, 1, weight=9.0)]
        assert stats["deduped"] == 1

    def test_consecutive_deletes_dedupe_to_one(self):
        survivors, stats = coalesce_updates([D(1, 2), D(2, 1)])
        assert survivors == [D(2, 1)]  # same-op runs keep the latest copy
        assert stats["deduped"] == 1

    def test_delete_insert_delete_keeps_the_first_delete(self):
        survivors, stats = coalesce_updates([D(1, 2), I(1, 2), D(1, 2)])
        assert survivors == [D(1, 2)]
        assert stats["cancelled_pairs"] == 1

    def test_delete_then_insert_keeps_both_in_order(self):
        survivors, _ = coalesce_updates([D(1, 2), I(1, 2, weight=3.0)])
        assert survivors == [D(1, 2), I(1, 2, weight=3.0)]

    def test_full_churn_collapses_to_net_effect(self):
        # D I D I on one edge nets to (delete, final insert)
        stream = [D(1, 2), I(1, 2, weight=1.0), D(1, 2), I(1, 2, weight=7.0)]
        survivors, stats = coalesce_updates(stream)
        assert survivors == [D(1, 2), I(1, 2, weight=7.0)]
        assert stats["cancelled_pairs"] == 1
        stream = [I(1, 2), D(1, 2), I(1, 2), D(1, 2)]
        assert coalesce_updates(stream)[0] == []

    def test_distinct_edges_do_not_interact(self):
        stream = [I(1, 2), I(3, 4), D(1, 2)]
        survivors, _ = coalesce_updates(stream)
        assert survivors == [I(3, 4)]


class TestOwnerGrouping:
    @staticmethod
    def owner(v: int) -> str:
        return f"m{v % 3}"

    @settings(max_examples=150, deadline=None)
    @given(updates_strategy)
    def test_grouping_is_a_permutation_preserving_per_edge_order(self, stream):
        survivors, _ = coalesce_updates(stream)
        grouped = group_updates_by_owner(survivors, self.owner)
        assert sorted(grouped, key=repr) == sorted(survivors, key=repr)
        for edge in {u.edge for u in survivors}:
            assert [u.op for u in grouped if u.edge == edge] == [
                u.op for u in survivors if u.edge == edge
            ]

    @settings(max_examples=150, deadline=None)
    @given(updates_strategy)
    def test_grouped_stream_reaches_the_same_edge_set(self, stream):
        survivors, _ = coalesce_updates(stream)
        grouped = group_updates_by_owner(survivors, self.owner)
        assert (
            lenient_replay(DynamicGraph(), grouped).edge_list()
            == lenient_replay(DynamicGraph(), survivors).edge_list()
        )

    def test_groups_are_contiguous_and_unordered_on_endpoints(self):
        stream = [I(0, 3), I(1, 2), I(3, 0 + 6), I(2, 1 + 6)]  # keys m0-m0, m1-m2 alternating
        grouped = group_updates_by_owner(stream, self.owner)
        keys = []
        for upd in grouped:
            a, b = self.owner(upd.u), self.owner(upd.v)
            keys.append((a, b) if a <= b else (b, a))
        # same machine-pair keys must be adjacent (stable partition)
        assert keys == sorted(keys, key=keys.index)
        seen = set()
        for i, key in enumerate(keys):
            if key in seen:
                assert keys[i - 1] == key
            seen.add(key)
