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

    @pytest.mark.parametrize("vertex", [-1, 4, 100])
    def test_range_partition_refuses_an_out_of_range_vertex(self, vertex):
        part = RangePartition(4, ["s0", "s1"])
        with pytest.raises(ValueError, match=f"vertex {vertex} is outside the partition's ids 0 .. 3"):
            part.machine_for(vertex)

    def test_range_partition_is_frozen(self):
        part = RangePartition(10, ["s0", "s1", "s2"])
        for name, value in (("num_vertices", 20), ("machine_ids", ("s9",)), ("block_size", 1)):
            with pytest.raises(AttributeError):
                setattr(part, name, value)
        assert (part.num_vertices, part.machine_ids, part.block_size) == (10, ("s0", "s1", "s2"), 4)
        assert part == RangePartition(10, ("s0", "s1", "s2")) and hash(part) == hash(RangePartition(10, ["s0", "s1", "s2"]))
        with pytest.raises(ValueError, match="not part of this partition"):
            part.vertices_on("s9")

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 300), k=st.integers(1, 40), probes=st.lists(st.integers(-1000, 1000), max_size=30))
    def test_range_partition_routes_like_the_formulas(self, n, k, probes):
        """Against the per-call formulas it caches: ``block = ceil(n / k)`` (1 for n = 0), vertex
        ``v`` in ``0 .. n-1`` on machine ``v // block`` and every other id refused, and machine
        ``i`` owning ``[i * block, min(n, (i + 1) * block))``."""
        ids = [f"s{i}" for i in range(k)]
        part = RangePartition(n, ids)
        block = 1 if n == 0 else -(-n // k)
        assert part.block_size == block
        for v in [*range(-3, n + 3), *probes]:
            if 0 <= v < n:
                assert part.machine_for(v) == ids[v // block]
            else:
                with pytest.raises(ValueError):
                    part.machine_for(v)
        for index, machine_id in enumerate(ids):
            start = index * block
            expected = range(start, max(start, min(n, (index + 1) * block)))
            assert part.vertices_on(machine_id) == expected
            assert part.directory()[machine_id] == (expected.start, expected.stop)
            assert all(part.machine_for(v) == machine_id for v in expected)


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
        coordinator = Coordinator.create(cluster, partition, history_capacity=4)
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
        coordinator = Coordinator.create(cluster, partition, history_capacity=4)
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
