"""The flat ``StatsTable``: an O(1) word charge that never leaves its closed form.

``live_words()`` is read at every stats commit of the matching fabric, so it
is kept as two counters — ``occupied`` and ``suspended_words`` — instead of
a walk over the suspended stacks.  The only way to change a stack is a
record's ``suspended_machines`` setter; these tests drive it at random and
recount from scratch after every step.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpc.layout import FrozenChargeHandle, StatsTable, is_live_record

BASE, SIZE = 8, 6
#: two ids below the dense block, its six slots, three ids past it (overflow records)
VERTICES = st.integers(BASE - 2, BASE + SIZE + 2)
STACKS = st.lists(st.sampled_from(["edge3", "edge4", "edge5", "edge9"]), max_size=4)


def closed_form(table: StatsTable, stacks: dict[int, list[str]]) -> int:
    return 9 * (table.occupied + len(table.overflow)) + sum(len(stack) for stack in stacks.values())


class TestLiveWords:
    @settings(max_examples=150, deadline=None)
    @given(traffic=st.lists(st.tuples(VERTICES, st.one_of(st.none(), STACKS)), max_size=40))
    def test_counter_equals_closed_form_after_setter_traffic(self, traffic):
        """``(v, None)`` reads ``v``'s stack, ``(v, stack)`` occupies ``v`` and sets it."""
        table = StatsTable(BASE, SIZE)
        stacks: dict[int, list[str]] = {}
        for vertex, stack in traffic:
            if stack is None:
                record = table.view(vertex)
                assert (record is not None) == (vertex in stacks)
                if record is not None:
                    assert list(record.suspended_machines) == stacks[vertex]
                    assert record.dmpc_words() == 6 + len(stacks[vertex])
                    assert record.as_payload()["suspended"] == stacks[vertex]
            else:
                table.ensure(vertex).suspended_machines = stack
                stacks[vertex] = stack
            assert table.live_words() == closed_form(table, stacks)
            assert table.suspended_words == sum(len(s) for s in stacks.values())
            # only non-empty stacks are stored (an overflow record's under its out-of-block offset)
            assert table.suspended == {v - BASE: tuple(s) for v, s in stacks.items() if s}
            assert FrozenChargeHandle(table).dmpc_words() == max(1, table.live_words())

    def test_reading_a_stack_stores_nothing(self):
        table = StatsTable(BASE, SIZE)
        for vertex in range(BASE, BASE + SIZE):
            assert table.ensure(vertex).suspended_machines == ()
        assert table.suspended == {}
        assert table.live_words() == 9 * SIZE

    @pytest.mark.parametrize("vertex", [BASE + 1, BASE + SIZE + 1], ids=["dense", "overflow"])
    def test_a_stack_changes_only_through_the_setter(self, vertex):
        table = StatsTable(BASE, SIZE)
        record = table.ensure(vertex)
        record.suspended_machines = ["edge3"]
        stack = record.suspended_machines
        with pytest.raises(AttributeError):
            stack.append("edge4")  # a tuple: an in-place push would bypass the counter
        record.suspended_machines = [*stack, "edge4"]
        assert table.view(vertex).suspended_machines == ("edge3", "edge4")
        assert table.live_words() == 9 + 2
        record.suspended_machines = record.suspended_machines[:-1]
        assert table.live_words() == 9 + 1

    def test_pickle_round_trips_the_counter(self):
        table = StatsTable(BASE, SIZE)
        table.ensure(BASE).suspended_machines = ["edge3", "edge4"]
        table.ensure(BASE + 2).mate = 5
        table.ensure(BASE + SIZE + 2).suspended_machines = ["edge9"]
        handle = pickle.loads(pickle.dumps(FrozenChargeHandle(table)))
        clone = handle.table
        assert clone.suspended_words == 3
        assert clone.live_words() == table.live_words() == handle.dmpc_words() == 9 * 3 + 3
        assert clone.matched_pairs() == [(BASE + 2, 5)]
        # the clone's overflow record moves the clone's counter, not the original's
        clone.view(BASE + SIZE + 2).suspended_machines = []
        assert (clone.live_words(), table.live_words()) == (9 * 3 + 2, 9 * 3 + 3)


class TestLiveRecord:
    @pytest.mark.parametrize("vertex", [BASE + 1, BASE - 2, BASE + SIZE + 1], ids=["dense", "below", "overflow"])
    def test_every_record_kind_knows_its_vertex_and_its_table(self, vertex):
        table, other = StatsTable(BASE, SIZE), StatsTable(BASE, SIZE)
        record = table.ensure(vertex)
        assert record.vertex == table.view(vertex).vertex == vertex
        assert is_live_record(record, table, vertex) and is_live_record(table.view(vertex), table, vertex)
        assert not is_live_record(record, other, vertex)  # same slot of another table
        assert not is_live_record(record, table, vertex + 1)  # another slot of the same table
        assert not is_live_record(other.ensure(vertex), table, vertex)
        assert not is_live_record(object(), table, vertex)
