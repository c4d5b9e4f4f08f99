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

from repro.mpc.layout import FrozenChargeHandle, StatsTable, StatsView

BASE, SIZE = 8, 6
#: the block's six slots (the range partition routes no other id to this table)
VERTICES = st.integers(BASE, BASE + SIZE - 1)
STACKS = st.lists(st.sampled_from(["edge3", "edge4", "edge5", "edge9"]), max_size=4)


def closed_form(table: StatsTable, stacks: dict[int, list[str]]) -> int:
    return 9 * table.occupied + sum(len(stack) for stack in stacks.values())


def occupied(table: StatsTable, vertex: int) -> StatsView:
    """``vertex``'s record, its slot committed."""
    record = table.view(vertex)
    table.occupy(vertex, record)
    return record


class TestLiveWords:
    @settings(max_examples=150, deadline=None)
    @given(traffic=st.lists(st.tuples(VERTICES, st.one_of(st.none(), STACKS)), max_size=40))
    def test_counter_equals_closed_form_after_setter_traffic(self, traffic):
        """``(v, None)`` reads ``v``'s stack, ``(v, stack)`` occupies ``v`` and sets it."""
        table = StatsTable(BASE, SIZE)
        stacks: dict[int, list[str]] = {}
        for vertex, stack in traffic:
            if stack is None:
                assert table.has(vertex) == (vertex in stacks)
                assert list(table.view(vertex).suspended_machines) == stacks.get(vertex, [])
                assert table.payloads([vertex])[0][0][1]["suspended"] == stacks.get(vertex, [])
            else:
                occupied(table, vertex).suspended_machines = stack
                stacks[vertex] = stack
            assert table.live_words() == closed_form(table, stacks)
            assert table.suspended_words == sum(len(s) for s in stacks.values())
            # only non-empty stacks are stored, under the slot's offset
            assert table.suspended == {v - BASE: tuple(s) for v, s in stacks.items() if s}
            assert FrozenChargeHandle(table).dmpc_words() == max(1, table.live_words())

    def test_reading_a_stack_stores_nothing(self):
        table = StatsTable(BASE, SIZE)
        for vertex in range(BASE, BASE + SIZE):
            assert occupied(table, vertex).suspended_machines == ()
        assert table.suspended == {}
        assert table.live_words() == 9 * SIZE

    def test_a_stack_changes_only_through_the_setter(self):
        table, vertex = StatsTable(BASE, SIZE), BASE + 1
        record = occupied(table, vertex)
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
        occupied(table, BASE).suspended_machines = ["edge3", "edge4"]
        occupied(table, BASE + 2).mate = 5
        occupied(table, BASE + SIZE - 1).suspended_machines = ["edge9"]
        handle = pickle.loads(pickle.dumps(FrozenChargeHandle(table)))
        clone = handle.table
        assert clone.suspended_words == 3
        assert clone.live_words() == table.live_words() == handle.dmpc_words() == 9 * 3 + 3
        assert clone.matched_pairs() == [(BASE + 2, 5)]
        # the clone's record moves the clone's counter, not the original's
        clone.view(BASE + SIZE - 1).suspended_machines = []
        assert (clone.live_words(), table.live_words()) == (9 * 3 + 2, 9 * 3 + 3)


class TestOccupancy:
    def test_an_unoccupied_slot_is_the_blank_record_and_takes_writes(self):
        table, vertex = StatsTable(BASE, SIZE), BASE + 1
        record = table.view(vertex)
        assert record.vertex == vertex
        assert (record.degree, record.mate, record.heavy, record.free_neighbors) == (0, None, False, 0)
        assert (record.alive_machine, record.suspended_machines) == (None, ())
        assert table.unoccupied_writes() == []
        record.degree, record.alive_machine = 2, "edge3"
        assert table.view(vertex).degree == 2  # a view minted later reads the write
        assert (table.occupied, table.live_words()) == (0, 0)  # ... which nothing charged yet
        assert table.unoccupied_writes() == [vertex]
        table.occupy(vertex, record)
        assert (table.has(vertex), table.live_words(), table.unoccupied_writes()) == (True, 9, [])
        table.occupy(vertex, table.view(vertex))  # occupying again charges nothing more
        assert table.live_words() == 9

    @pytest.mark.parametrize("field", ["degree", "mate", "heavy", "free_neighbors", "alive_machine", "suspended_machines"])
    def test_every_column_of_an_unoccupied_slot_is_watched(self, field):
        table = StatsTable(BASE, SIZE)
        value = {"mate": 3, "heavy": True, "alive_machine": "edge3", "suspended_machines": ["edge4"]}.get(field, 1)
        setattr(table.view(BASE + 2), field, value)
        assert table.unoccupied_writes() == [BASE + 2]
