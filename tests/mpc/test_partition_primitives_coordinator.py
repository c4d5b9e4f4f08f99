"""Unit tests for vertex partitioning, O(1)-round primitives and the coordinator."""

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
    aggregate_sum,
    broadcast,
    gather,
    hash_partition,
    sample_sort,
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


def build_cluster(num_machines: int = 4) -> Cluster:
    cluster = Cluster(DMPCConfig(capacity_n=64, capacity_m=128))
    cluster.add_machines("m", num_machines)
    return cluster


class TestPrimitives:
    def test_broadcast_reaches_everyone_in_one_round(self):
        cluster = build_cluster()
        count = broadcast(cluster, "m0", "hello", 42)
        assert count == 3
        for mid in ("m1", "m2", "m3"):
            assert cluster.machine(mid).drain("hello")[0].payload == 42
        assert cluster.ledger.updates[-1].num_rounds == 1

    def test_gather_collects_contributions(self):
        cluster = build_cluster()
        values = gather(cluster, "m0", "report", {"m1": 1, "m2": 2, "m3": None})
        assert sorted(values) == [1, 2]

    def test_aggregate_sum(self):
        cluster = build_cluster()
        assert aggregate_sum(cluster, "m0", "sum", {"m1": 1.5, "m2": 2.5, "m3": 0}) == 4.0

    def test_sample_sort_produces_global_order(self):
        cluster = build_cluster(4)
        items = {
            "m0": [9, 3, 11, 40],
            "m1": [1, 25, 17],
            "m2": [5, 30, 2, 8],
            "m3": [12, 7],
        }
        result = sample_sort(cluster, items)
        merged = []
        for mid in sorted(result):
            merged.extend(result[mid])
        assert merged == sorted(x for values in items.values() for x in values)
        # every bucket is locally sorted
        for bucket in result.values():
            assert bucket == sorted(bucket)

    def test_sample_sort_empty(self):
        cluster = build_cluster(2)
        assert sample_sort(cluster, {}) == {}


class TestCoordinator:
    def test_update_history_bounded(self):
        history = UpdateHistory(capacity=3)
        for i in range(5):
            history.append("insert", i, i + 1)
        assert len(history) == 3
        assert history.last_seq == 5
        assert [e.seq for e in history.entries()] == [3, 4, 5]
        assert history.entries_since(4)[0].seq == 5
        assert history.entries_for_vertex(4)  # edge (3,4) or (4,5) survived

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
