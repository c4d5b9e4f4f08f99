"""Unit tests for vertex partitioning and the coordinator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DMPCConfig
from repro.mpc import (
    Cluster,
    Coordinator,
    HistoryEntry,
    RangePartition,
    UpdateHistory,
    hash_partition,
)


class TestPartition:
    def test_hash_partition_is_deterministic_and_total(self):
        ids = ["m0", "m1", "m2"]
        assert hash_partition(7, ids) == hash_partition(7, ids)
        targets = {hash_partition(v, ids) for v in range(50)}
        assert targets <= set(ids)
        assert len(targets) > 1

    def test_hash_partition_requires_machines(self):
        with pytest.raises(ValueError):
            hash_partition(1, [])

    def test_range_partition_consecutive_blocks(self):
        part = RangePartition(10, ["s0", "s1", "s2"])
        assert part.block_size == 4
        assert [part.machine_for(v) for v in range(10)] == ["s0"] * 4 + ["s1"] * 4 + ["s2"] * 2
        assert list(part.vertices_on("s1")) == [4, 5, 6, 7]
        directory = part.directory()
        assert directory["s0"] == (0, 4)

    def test_range_partition_out_of_range_vertex_wraps(self):
        part = RangePartition(4, ["s0", "s1"])
        assert part.machine_for(100) in {"s0", "s1"}


class TestCoordinator:
    def test_update_history_bounded(self):
        history = UpdateHistory(capacity=3)
        for i in range(5):
            history.append("insert", i, i + 1)
        assert len(history) == 3
        assert history.last_seq == 5
        assert [e.seq for e in history.entries()] == [3, 4, 5]
        assert history.entries_since(4)[0].seq == 5

    def test_coordinator_send_history(self):
        cluster = Cluster(DMPCConfig(capacity_n=16, capacity_m=32))
        stats = cluster.add_machines("stats", 2, role="stats")
        partition = RangePartition(16, [m.machine_id for m in stats])
        coordinator = Coordinator.create(cluster, partition)
        coordinator.record("insert", 1, 2)
        coordinator.record("match", 1, 2)
        coordinator.send_history(["stats0", "stats1"])
        cluster.exchange()
        received = cluster.machine("stats0").drain("update-history")
        assert len(received) == 1
        assert received[0].words >= 2
        assert coordinator.stats_machine_for(0) == "stats0"

    def test_coordinator_send_history_order_is_registration_order(self):
        """Receivers passed as an unordered set must stage deterministically."""
        cluster = Cluster(DMPCConfig(capacity_n=16, capacity_m=32))
        stats = cluster.add_machines("stats", 4, role="stats")
        partition = RangePartition(16, [m.machine_id for m in stats])
        coordinator = Coordinator.create(cluster, partition)
        coordinator.record("insert", 1, 2)
        coordinator.send_history({"stats3", "stats1", "stats0", coordinator.machine_id})
        staged = [msg.receiver for msg in coordinator.machine.outbox]
        assert staged == ["stats0", "stats1", "stats3"]  # self excluded, index order


class TestHistorySuffix:
    """``entries_since`` takes the unseen suffix from the right end of the
    buffer; the filter over the whole buffer is its definition."""

    @pytest.mark.parametrize("capacity", [1, 4, 7])
    @settings(max_examples=40, deadline=None)
    @given(appends=st.lists(st.sampled_from(["insert", "delete", "match", "unmatch"]), max_size=20))
    def test_suffix_equals_filter_for_every_reader(self, capacity, appends):
        history = UpdateHistory(capacity=capacity)
        for step, kind in enumerate([None, *appends]):
            if kind is not None:
                history.append(kind, step, step + 1)
            buffered = history.entries()
            assert [e.seq for e in buffered] == list(range(history.last_seq - len(buffered) + 1, history.last_seq + 1))
            for seq in range(-1, history.last_seq + 2):
                suffix = history.entries_since(seq)
                assert suffix == [e for e in buffered if e.seq > seq]
                assert HistoryEntry.WORDS * len(suffix) == sum(e.dmpc_words() for e in suffix)
            # a reader staler than the buffer gets all of it, a current one nothing
            assert history.entries_since(history.last_seq - capacity - 3) == buffered
            assert history.entries_since(history.last_seq) == []
            assert history.dmpc_words() == max(1, sum(e.dmpc_words() for e in buffered))
