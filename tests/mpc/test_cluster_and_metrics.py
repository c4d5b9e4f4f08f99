"""Unit tests for the cluster round engine and the metrics ledger."""

from __future__ import annotations

import pytest
from ledger_rounds import file_messages

from repro.config import DMPCConfig
from repro.exceptions import MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, MetricsLedger, Message, RoundRecord, SuperstepProgram


def make_cluster(**kwargs) -> Cluster:
    config = DMPCConfig(capacity_n=32, capacity_m=64)
    return Cluster(config, **kwargs)


class ReportProgram(SuperstepProgram):
    """Every worker but ``w0`` reports to ``w0``; each hands back its inbox size."""

    shared_writes = ("seen",)

    def run(self, ctx, inbox, shared):
        if ctx.machine_id != "w0":
            ctx.send("w0", "report", ctx.machine_id)
        return len(inbox)

    def apply(self, shared, machine_id, delta):
        shared["seen"][machine_id] = delta


def closure(machine, inbox):  # pragma: no cover - refused before it could run
    machine.send("w0", "report", machine.machine_id)


class TestCluster:
    def test_add_and_lookup_machines(self):
        cluster = make_cluster()
        cluster.add_machine("a", role="aux")
        cluster.add_machines("w", 3, role="worker")
        assert len(cluster) == 4
        assert cluster.machine_ids(role="worker") == ["w0", "w1", "w2"]
        assert "a" in cluster
        with pytest.raises(UnknownMachineError):
            cluster.machine("nope")

    def test_duplicate_machine_rejected(self):
        cluster = make_cluster()
        cluster.add_machine("a")
        with pytest.raises(ProtocolError):
            cluster.add_machine("a")

    def test_exchange_delivers_messages_and_records_round(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "ping", 7)
        record = cluster.exchange()
        assert record.active_machines == 2
        assert record.message_count == 1
        assert cluster.machine("b").drain("ping")[0].payload == 7

    def test_exchange_to_unknown_machine_raises(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()

    def test_io_cap_enforced_when_enabled(self):
        cluster = make_cluster(enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_io_cap_not_enforced_by_default(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        record = cluster.exchange()
        assert record.total_words > cluster.config.machine_memory

    def test_superstep_runs_program_on_all_machines(self):
        cluster = make_cluster()
        cluster.add_machines("w", 3)
        shared = {"seen": {}}
        cluster.superstep(ReportProgram(), shared=shared)
        assert len(cluster.machine("w0").inbox) == 2
        assert shared["seen"] == {"w0": 0, "w1": 0, "w2": 0}

    @pytest.mark.parametrize("backend", ["reference", "fast", "resident"])
    @pytest.mark.parametrize("entry", ["superstep", "superstep_block"])
    def test_closures_are_refused(self, backend, entry):
        cluster = Cluster(DMPCConfig(capacity_n=32, capacity_m=64, backend=backend))
        cluster.add_machines("w", 3)
        run = cluster.superstep if entry == "superstep" else lambda program: cluster.superstep_block([ReportProgram(), program])
        with pytest.raises(TypeError, match="SuperstepProgram"):
            run(closure)
        # refused before any program ran: nothing staged, nothing delivered
        assert cluster.ledger.next_round_index == 1
        assert all(machine.outbox == [] and machine.inbox == [] for machine in cluster.machines())

    def test_update_context_scopes_rounds(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        with cluster.update("insert:1-2"):
            a.send("b", "x", 1)
            cluster.exchange()
            a.send("b", "y", 2)
            cluster.exchange()
        record = cluster.ledger.updates[-1]
        assert record.label == "insert:1-2"
        assert record.num_rounds == 2

    def test_total_stored_words(self):
        cluster = make_cluster()
        a = cluster.add_machine("a")
        a.store("x", [1, 2, 3])
        assert cluster.total_stored_words == a.used_words


class TestMetricsLedger:
    def test_round_record_from_messages(self):
        msgs = [Message("a", "b", "t", 1), Message("b", "c", "t", [1, 2])]
        record = RoundRecord.from_messages(1, msgs)
        assert record.active_machines == 3
        assert record.message_count == 2
        assert record.total_words == sum(m.words for m in msgs)

    def test_update_bracketing_errors(self):
        ledger = MetricsLedger()
        with pytest.raises(ProtocolError):
            ledger.end_update()
        ledger.begin_update("u")
        with pytest.raises(ProtocolError):
            ledger.begin_update("v")
        ledger.end_update()

    def test_summary_aggregates_updates(self):
        ledger = MetricsLedger()
        for i in range(3):
            ledger.begin_update(f"op:{i}")
            file_messages(ledger, [Message("a", "b", "t", list(range(i + 1)))])
            file_messages(ledger, [Message("b", "a", "t", 1)])
            ledger.end_update()
        summary = ledger.summary("op:")
        assert summary.num_updates == 3
        assert summary.max_rounds == 2
        assert summary.max_active_machines == 2
        assert summary.total_words > 0

    def test_unlabelled_rounds_tracked(self):
        ledger = MetricsLedger()
        file_messages(ledger, [Message("a", "b", "t", 1)])
        assert ledger.updates[0].label == "<unlabelled>"

    def test_entropy_low_for_coordinator_pattern_high_for_spread(self):
        concentrated = MetricsLedger()
        concentrated.begin_update("u")
        for _ in range(8):
            file_messages(concentrated, [Message("hub", "m1", "t", 1)])
        concentrated.end_update()

        spread = MetricsLedger()
        spread.begin_update("u")
        for i in range(8):
            file_messages(spread, [Message(f"m{i}", f"m{i+1}", "t", 1)])
        spread.end_update()

        assert spread.communication_entropy() > concentrated.communication_entropy()

    def test_entropy_needs_a_breakdown_of_the_selected_rounds_only(self):
        ledger = MetricsLedger()
        ledger.begin_update("aggregate:u")
        ledger.file_round(2, 5, 1, 5)  # costs without a per-pair breakdown
        ledger.end_update()
        ledger.begin_update("detailed:u")
        file_messages(ledger, [Message("a", "b", "t", None, 3), Message("c", "b", "t", None, 3)])
        ledger.end_update()
        assert ledger.communication_entropy("detailed:") == pytest.approx(1.0)  # two pairs, equal words
        for prefix in (None, "aggregate:"):
            with pytest.raises(ProtocolError, match="round 1 carried words"):
                ledger.communication_entropy(prefix)

    def test_reset(self):
        ledger = MetricsLedger()
        ledger.begin_update("u")
        file_messages(ledger, [Message("a", "b", "t", 1)])
        ledger.end_update()
        ledger.reset()
        assert ledger.updates == []

    def test_traffic_totals_sum_every_recorded_round(self):
        ledger = MetricsLedger()
        assert ledger.traffic_totals() == dict.fromkeys(
            ("local_messages", "cross_slot_messages", "shm_bytes", "pipe_fallbacks"), 0
        )
        file_messages(ledger, [Message("a", "b", "t", 1)])
        ledger.record_traffic(local_messages=3, shm_bytes=40)
        file_messages(ledger, [Message("b", "a", "t", 1)])
        ledger.record_traffic(local_messages=1, cross_slot_messages=2, pipe_fallbacks=1)
        assert ledger.traffic_totals() == {
            "local_messages": 4,
            "cross_slot_messages": 2,
            "shm_bytes": 40,
            "pipe_fallbacks": 1,
        }

    def test_traffic_totals_are_a_copy(self):
        ledger = MetricsLedger()
        ledger.record_traffic(local_messages=2)
        totals = ledger.traffic_totals()
        totals["local_messages"] = 99
        assert ledger.traffic_totals()["local_messages"] == 2

    def test_reset_zeroes_traffic_and_keeps_the_round_counter(self):
        ledger = MetricsLedger()
        file_messages(ledger, [Message("a", "b", "t", 1)])
        ledger.record_traffic(local_messages=5, cross_slot_messages=1, shm_bytes=8, pipe_fallbacks=1)
        ledger.fused_rounds, ledger.driver_round_trips = 1, 1
        ledger.reset()
        assert set(ledger.traffic_totals().values()) == {0}
        # the fusion counters describe the discarded rounds too: never more fused rounds than rounds
        assert (ledger.fused_rounds, ledger.driver_round_trips, ledger.total_rounds()) == (0, 0, 0)
        assert ledger.next_round_index == 2
        ledger.record_traffic(cross_slot_messages=3)
        assert ledger.traffic_totals()["cross_slot_messages"] == 3
