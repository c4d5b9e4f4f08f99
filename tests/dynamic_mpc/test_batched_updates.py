"""Batched update engine: equivalence with sequential application + cost wins.

``apply_batch`` must reach exactly the same solution as per-update ``apply``
on every stream (the batching only merges communication, never reorders
conflicting updates), while spending measurably fewer rounds.
"""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
)
from repro.dynamic_mpc.state import STATS_KEY, MatchingFabric
from repro.exceptions import ProtocolError
from repro.graph import batched
from repro.graph.generators import gnm_random_graph, random_forest, random_weighted_graph
from repro.graph.streams import mixed_stream, tree_edge_adversary_stream
from repro.graph.validation import connected_components, same_partition
from repro.mpc.cluster import Cluster
from repro.mpc.metrics import MetricsLedger


def canonical(components):
    return sorted(sorted(c) for c in components)


def run_pair(make, graph, stream, batch_size):
    """Run sequential and batched instances over the same stream."""
    sequential = make()
    if graph is not None:
        sequential.preprocess(graph)
    for update in stream:
        sequential.apply(update)
    batch = make()
    if graph is not None:
        batch.preprocess(graph)
    for chunk in batched(stream, batch_size):
        batch.apply_batch(chunk)
    return sequential, batch


class TestBatchedChunker:
    def test_chunks_preserve_order_and_cover_everything(self):
        stream = mixed_stream(16, 50, seed=1)
        chunks = list(batched(stream, 8))
        assert [len(c) for c in chunks] == [8] * 6 + [2]
        assert [u for c in chunks for u in c] == list(stream)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            list(batched([], 0))


class TestLedgerBatchScoping:
    def test_updates_are_tagged_with_the_batch_id(self):
        ledger = MetricsLedger()
        first = ledger.begin_batch()
        ledger.begin_update("a")
        ledger.file_round(0, 0, 0, 0)
        ledger.end_update()
        ledger.begin_update("b")
        ledger.file_round(0, 0, 0, 0)
        ledger.end_update()
        ledger.end_batch()
        ledger.begin_update("c")
        ledger.file_round(0, 0, 0, 0)
        ledger.end_update()
        groups = ledger.batches()
        assert set(groups) == {first}
        assert [r.label for r in groups[first]] == ["a", "b"]
        # One pseudo-update for the batch plus the unbatched record.
        assert ledger.batch_summary().num_updates == 2
        assert ledger.summary().num_updates == 3

    def test_batches_cannot_nest_or_straddle_updates(self):
        ledger = MetricsLedger()
        ledger.begin_batch()
        with pytest.raises(ProtocolError):
            ledger.begin_batch()
        ledger.end_batch()
        ledger.begin_update("a")
        with pytest.raises(ProtocolError):
            ledger.begin_batch()
        ledger.end_update()
        with pytest.raises(ProtocolError):
            ledger.end_batch()

    def test_cluster_batch_scope(self):
        cluster = Cluster(DMPCConfig.for_graph(8, 8))
        with cluster.batch():
            assert cluster.ledger.in_batch
        assert not cluster.ledger.in_batch


class TestBatchedConnectivity:
    def make(self, n, m):
        return lambda: DMPCConnectivity(DMPCConfig.for_graph(n, m))

    @pytest.mark.parametrize("batch_size", [4, 16, 64])
    def test_equivalent_on_mixed_stream_over_connected_graph(self, batch_size):
        n, m = 40, 80
        graph = gnm_random_graph(n, m, seed=31)
        stream = mixed_stream(n, 160, seed=32, insert_probability=0.5, initial=graph)
        sequential, batch = run_pair(self.make(n, 2 * m), graph, stream, batch_size)
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()
        batch.verify_invariants()

    def test_equivalent_on_fragmented_forest(self):
        n = 48
        graph = random_forest(n, num_trees=8, seed=33)
        stream = mixed_stream(n, 160, seed=34, insert_probability=0.5, initial=graph)
        sequential, batch = run_pair(self.make(n, 2 * n), graph, stream, 16)
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()
        assert same_partition(batch.components(), connected_components(batch.shadow))

    def test_equivalent_from_empty_graph(self):
        stream = mixed_stream(24, 200, seed=35, insert_probability=0.65)
        sequential, batch = run_pair(self.make(24, 120), None, stream, 8)
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()

    def test_equivalent_on_tree_edge_adversary_stream(self):
        # Record an adaptive adversarial stream against a sequential run,
        # then replay the recorded history both ways.
        n, m = 24, 36
        graph = gnm_random_graph(n, m, seed=36)
        recorder = DMPCConnectivity(DMPCConfig.for_graph(n, 2 * m))
        recorder.preprocess(graph)
        adaptive = tree_edge_adversary_stream(n, 120, recorder.spanning_forest, seed=37, delete_probability=0.6)
        adaptive.seed_graph(graph)
        for update in adaptive:
            recorder.apply(update)
        stream = list(adaptive.history)
        assert len(stream) == 120
        sequential, batch = run_pair(self.make(n, 2 * m), graph, stream, 16)
        assert canonical(sequential.components()) == canonical(batch.components())
        assert canonical(batch.components()) == canonical(recorder.components())
        assert sequential.spanning_forest() == batch.spanning_forest()

    def test_batching_saves_rounds_on_mixed_stream(self):
        n, m = 40, 80
        graph = gnm_random_graph(n, m, seed=38)
        stream = mixed_stream(n, 160, seed=39, insert_probability=0.5, initial=graph)
        sequential, batch = run_pair(self.make(n, 2 * m), graph, stream, 8)
        assert batch.update_round_total() < sequential.update_round_total()
        # Per-batch ledger scoping: every apply_batch call shows up as a batch.
        assert len(batch.ledger.batches()) == 160 // 8

    def test_apply_sequence_batch_size_argument(self):
        n = 20
        stream = mixed_stream(n, 80, seed=40, insert_probability=0.6)
        alg = DMPCConnectivity(DMPCConfig.for_graph(n, 80))
        alg.apply_sequence(stream, batch_size=10)
        assert same_partition(alg.components(), connected_components(alg.shadow))
        assert len(alg.ledger.batches()) == 8
        with pytest.raises(ValueError):
            alg.apply_sequence(stream, batch_size=0)


class TestBatchedMatching:
    @pytest.mark.parametrize("batch_size", [4, 16])
    def test_maximal_matching_equivalent_and_cheaper(self, batch_size):
        n, m = 36, 72
        graph = gnm_random_graph(n, m, seed=41)
        stream = mixed_stream(n, 150, seed=42, insert_probability=0.5, initial=graph)
        def make():
            return DMPCMaximalMatching(DMPCConfig.for_graph(n, 2 * m))

        sequential, batch = run_pair(make, graph, stream, batch_size)
        assert sequential.matching() == batch.matching()
        assert batch.update_round_total() < sequential.update_round_total()
        batch.verify_invariants()

    def test_three_halves_equivalent_from_empty(self):
        n = 28
        stream = mixed_stream(n, 150, seed=43, insert_probability=0.65)
        def make():
            return DMPCThreeHalvesMatching(DMPCConfig.for_graph(n, 160))

        sequential, batch = run_pair(make, None, stream, 16)
        assert sequential.matching() == batch.matching()
        assert batch.update_round_total() < sequential.update_round_total()
        batch.verify_invariants()

    def test_two_plus_eps_fallback_equivalent(self):
        n = 24
        stream = mixed_stream(n, 120, seed=44, insert_probability=0.6)
        def make():
            return DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(n, 120), seed=7)

        sequential, batch = run_pair(make, None, stream, 8)
        assert sequential.matching() == batch.matching()


class TestBatchedApproxMST:
    def test_sequential_fallback_keeps_the_forest_minimum(self):
        n, m = 24, 48
        graph = random_weighted_graph(n, m, seed=45)
        stream = mixed_stream(n, 100, seed=46, insert_probability=0.5, initial=graph, weighted=True)
        def make():
            return DMPCApproxMST(DMPCConfig.for_graph(n, 2 * m), epsilon=0.1)

        sequential, batch = run_pair(make, graph, stream, 8)
        assert canonical(sequential.components()) == canonical(batch.components())
        assert sequential.spanning_forest() == batch.spanning_forest()
        batch.verify_invariants()


class TestStatsContract:
    def make_fabric(self):
        config = DMPCConfig.for_graph(16, 32)
        cluster = Cluster(config)
        return MatchingFabric(cluster, config)

    def test_a_write_lands_in_its_slot_and_only_a_commit_occupies_it(self):
        """Every record is its slot: a write through any view of it, minted before the first
        commit or after, reads back from every other.  Only the commit occupies the slot and
        charges the statistics machine the slot's 9 words."""
        fabric = self.make_fabric()
        machine = fabric.cluster.machine(fabric.partition.machine_for(3))
        table = machine.load(STATS_KEY).table
        words = machine.used_words  # the key and the empty table's 1-word floor
        stats = fabric.stats_of(3)
        stats.degree = 5
        [queried] = fabric.query_stats([3]).values()
        assert (fabric.stats_of(3).degree, queried.degree) == (5, 5)
        assert not table.has(3) and machine.used_words == words
        queried.alive_machine = "edge0"
        fabric.push_stats({3: queried})
        assert table.has(3) and machine.used_words == words - 1 + 9
        assert (stats.degree, stats.alive_machine) == (5, "edge0")
        stats.mate = 9  # a committed slot takes writes through the older view as well
        assert fabric.mate_of(3) == 9 and machine.used_words == words - 1 + 9

    def test_mutate_stats_persists_for_unseen_and_stored_vertices(self):
        fabric = self.make_fabric()
        with fabric.mutate_stats(3) as stats:
            stats.degree = 5
        assert fabric.stats_of(3).degree == 5
        with fabric.mutate_stats(3) as stats:
            stats.mate = 9
        persisted = fabric.stats_of(3)
        assert (persisted.degree, persisted.mate) == (5, 9)

    def test_deferred_refresh_flush_is_one_round(self):
        fabric = self.make_fabric()
        fabric.load_initial_graph(gnm_random_graph(8, 12, seed=47), set())
        ledger = fabric.cluster.ledger
        before = ledger.total_rounds()
        with fabric.batched():
            for _ in range(6):
                fabric.round_robin_refresh()
            assert ledger.total_rounds() == before  # all deferred
            refreshed = fabric.flush_deferred_refreshes()
        assert refreshed >= 1
        assert ledger.total_rounds() == before + 1  # one merged round

    def test_a_batch_past_the_deferral_cap_flushes_in_the_update_that_reaches_it(self):
        """A batch of more updates than the deferral cap flushes each time the cap is reached, as
        one round charged to the update in progress; the pointer still advances once per update,
        and no machine falls behind the history buffer although the batch outgrows it."""
        fabric = self.make_fabric()
        fabric.load_initial_graph(gnm_random_graph(8, 12, seed=47), set())
        history, limit = fabric.coordinator.history, fabric._max_deferred_refreshes
        assert limit >= len(fabric._allocated)  # a flush reaches every allocated machine
        per_update = history.capacity // limit - 1
        updates = 2 * limit + 3
        assert limit * per_update < history.capacity < updates * per_update
        ledger = fabric.cluster.ledger
        with fabric.batched():
            for step in range(updates):
                with fabric.cluster.update(f"update:{step}"):
                    for _ in range(per_update):
                        fabric.record("insert", 0, 9)
                    fabric.round_robin_refresh()
            with fabric.cluster.update("flush"):
                assert fabric.flush_deferred_refreshes() == len(fabric._allocated)
        rounds = [record.num_rounds for record in ledger.updates_labelled("update:")]
        assert [step for step, count in enumerate(rounds) if count] == [limit - 1, 2 * limit - 1]
        assert max(rounds) == 1
        assert [record.num_rounds for record in ledger.updates_labelled("flush")] == [1]
        assert fabric._refresh_pointer == updates
        assert all(fabric._machine_seen_seq[machine_id] == history.last_seq for machine_id in fabric._allocated)
