"""Fused round blocks: barrier elision must change nothing observable.

The resident backend's fused blocks (``ResidentSession.run_block``) run up
to K consecutive worker-drivable supersteps on one driver round trip —
workers loop locally, self-apply their own deltas, hand messages over
as held same-slot ``Message`` objects and cross-slot shm-ring frames, and synchronize on a
lightweight shared-memory round barrier.  The contract is the usual one,
sharpened: not just identical solutions but **bit-identical per-round
RoundRecords** — fusion elides the driver barrier, never the accounting.

These tests drive the fusion-shaped static workload (connected
components' ``[propose, apply]`` pairs) on the resident backend — one
slot per host core, and the two-slot ``resident-shm`` configuration — and
with a deliberately tiny ring that forces a mid-block stop and pipe
fallback.  A round whose sends the driver reads (maximal matching's
propose, Borůvka's candidate scan) never reaches a worker: it runs in the
driver, as on ``fast``.
``fast`` runs every superstep in the driver under the same accounting
policy, so it is the yardstick every resident row must match bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.mpc import SuperstepProgram
from repro.runtime.resident import ResidentSession
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching
from repro.static_mpc.common import build_static_cluster
from repro.static_mpc.connected_components import CSRLabelProposeProgram, LabelApplyProgram

#: the resident rows, with ``resident-shm`` pinned to two slots (cross-slot
#: frames ride shm).
BACKENDS = ("resident", "resident-shm")

RESIDENT_SLOTS = 2


def backend_kwargs(backend: str) -> dict:
    if backend == "resident-shm":
        return {"backend": "resident", "resident_slots": RESIDENT_SLOTS}
    return {"backend": backend}


def round_records(ledger) -> list:
    """Every recorded round, bit for bit — including the pair breakdown
    (excluded from dataclass equality, so compared explicitly here)."""
    return [
        (
            update.label,
            [
                (
                    record.round_index,
                    record.active_machines,
                    record.total_words,
                    record.message_count,
                    record.max_message_words,
                    sorted(record.pair_words.items()),
                )
                for record in update.rounds
            ],
        )
        for update in ledger.updates
    ]


class GlobalMergeProgram(SuperstepProgram):
    """A round with a global merge: it runs at the workers, but only as a block of one."""

    driver_reads_sends = False

    def run(self, ctx, inbox, shared):
        return None

    def apply(self, shared, machine_id, delta):
        pass


class InteriorProgram(SuperstepProgram):
    driver_reads_sends = False
    delta_scope = "owner"

    def run(self, ctx, inbox, shared):  # pragma: no cover - only segmented, never run
        return None


class DriverReadProgram(InteriorProgram):
    driver_reads_sends = True


def fusable_span(programs, start: int = 0) -> int:
    # segmentation reads only the programs' declarations, never the session
    return ResidentSession._fusable_span(None, programs, start)


def run_cc(graph, backend: str, **extra):
    algorithm = StaticConnectedComponents(graph, **backend_kwargs(backend), **extra)
    algorithm.run()
    return algorithm


def run_matching(graph, backend: str, **extra):
    algorithm = StaticMaximalMatching(graph, seed=13, **backend_kwargs(backend), **extra)
    algorithm.run()
    return algorithm


def assert_bit_identical(run, fast) -> None:
    assert round_records(run.cluster.ledger) == round_records(fast.cluster.ledger)


class TestFusedVsFastBitIdentity:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_connected_components_property(self, seed):
        """Property: fused blocks change neither the labels/forest nor a single
        per-round record, under any slot count."""
        graph = gnm_random_graph(28, 64, seed=seed)
        fast = run_cc(graph, "fast")
        for backend in BACKENDS:
            run = run_cc(graph, backend)
            assert run.labels == fast.labels, backend
            assert run.spanning_forest() == fast.spanning_forest(), backend
            assert run.rounds_used == fast.rounds_used, backend
            assert_bit_identical(run, fast)
            assert run.cluster.ledger.fused_rounds > 0, backend

    def test_maximal_matching_all_backends(self):
        """Only the announce rounds reach the workers, each as a block of one."""
        graph = gnm_random_graph(32, 96, seed=17)
        fast = run_matching(graph, "fast")
        for backend in BACKENDS:
            run = run_matching(graph, backend)
            assert run.matching == fast.matching, backend
            assert run.rounds_used == fast.rounds_used, backend
            assert_bit_identical(run, fast)
            assert run.cluster.ledger.fused_rounds == 0, backend

    def test_boruvka_mst_all_backends(self):
        """The candidate scan declares that the driver reads its sends, so no
        Borůvka round reaches a worker — still bit-identical to ``fast``."""
        graph = random_weighted_graph(30, 80, seed=23)
        fast = StaticBoruvkaMST(graph, backend="fast")
        fast.run()
        for backend in BACKENDS:
            run = StaticBoruvkaMST(graph, **backend_kwargs(backend))
            run.run()
            assert run.forest == fast.forest, backend
            assert_bit_identical(run, fast)
            assert run.cluster.ledger.fused_rounds == 0, backend


class TestDriverReadRoundsRunInTheDriver:
    """``driver_reads_sends = True`` rounds run in the driver on ``resident``, as on ``fast``."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matching_propose_rounds_never_reach_a_worker(self, backend):
        graph = gnm_random_graph(40, 120, seed=5)
        fast = run_matching(graph, "fast")
        run = run_matching(graph, backend)
        assert run.matching == fast.matching
        assert_bit_identical(run, fast)
        # one propose and one announce round per iteration: only the announces are worker rounds
        assert run.cluster.ledger.total_rounds() == 2 * run.rounds_used
        assert run.cluster.backend.last_session_worker_rounds == run.rounds_used > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_boruvka_candidate_rounds_never_reach_a_worker(self, backend):
        graph = random_weighted_graph(40, 120, seed=5)
        fast = StaticBoruvkaMST(graph, backend="fast")
        fast.run()
        run = StaticBoruvkaMST(graph, **backend_kwargs(backend))
        run.run()
        assert run.forest == fast.forest
        assert_bit_identical(run, fast)
        assert run.cluster.ledger.total_rounds() > 0
        assert run.cluster.backend.last_session_worker_rounds == 0


class TestBlockSegmentation:
    def test_interior_rounds_form_one_block(self):
        assert fusable_span([InteriorProgram(), InteriorProgram(), InteriorProgram()]) == 3

    def test_a_driver_read_round_ends_the_block(self):
        span = [InteriorProgram(), InteriorProgram(), DriverReadProgram(), InteriorProgram()]
        assert fusable_span(span) == 2
        assert fusable_span(span, 3) == 1

    def test_a_position_that_cannot_fuse_is_a_block_of_one(self):
        span = [GlobalMergeProgram(), InteriorProgram(), InteriorProgram()]
        assert fusable_span(span) == 1
        assert fusable_span(span, 1) == 2
        assert fusable_span([DriverReadProgram(), DriverReadProgram()]) == 1

    def test_mixed_span_runs_as_consecutive_blocks_bit_identically(self):
        """``[propose, apply, merge, propose, apply]`` ships as blocks of 2, 1 and 2."""
        graph = gnm_random_graph(24, 50, seed=9)
        ledgers = {}
        for backend in ("fast", "resident-shm"):
            setup = build_static_cluster(graph, weighted=False, **backend_kwargs(backend))
            cluster, worker_ids = setup.cluster, setup.worker_ids
            state = {"labels": {v: v for v in graph.vertices}, "via": {}, "frontier": dict(setup.owned)}
            propose = CSRLabelProposeProgram(setup.owned, worker_ids)
            apply_min = LabelApplyProgram(setup.owned, worker_ids, worker_ids[0])
            with cluster.update("mixed"), cluster.session(state):
                records = cluster.superstep_block(
                    [propose, apply_min, GlobalMergeProgram(), propose, apply_min], machines=worker_ids, shared=state
                )
            assert len(records) == 5, backend
            ledgers[backend] = (cluster.ledger, dict(state["labels"]))
        (fast, fast_labels), (resident, resident_labels) = ledgers["fast"], ledgers["resident-shm"]
        assert resident_labels == fast_labels
        assert round_records(resident) == round_records(fast)
        assert resident.driver_round_trips == 3
        assert resident.fused_rounds == 4


class TestDriverRoundTrips:
    def test_fusion_halves_driver_round_trips(self):
        """Every CC iteration is a fusable [propose, apply] pair: one driver
        round trip per two rounds, every round inside a fused block."""
        graph = gnm_random_graph(48, 120, seed=3)
        ledger = run_cc(graph, "resident").cluster.ledger
        assert ledger.driver_round_trips > 0
        assert ledger.driver_round_trips * 2 <= ledger.total_rounds()
        assert ledger.fused_rounds == ledger.total_rounds()

    def test_lone_supersteps_count_one_trip_per_round(self):
        """``Cluster.superstep`` is a block of one round: one trip each, none fused."""
        graph = gnm_random_graph(24, 50, seed=9)
        setup = build_static_cluster(graph, backend="resident", resident_slots=RESIDENT_SLOTS, weighted=False)
        cluster, worker_ids = setup.cluster, setup.worker_ids
        state = {"labels": {v: v for v in graph.vertices}, "via": {}, "frontier": dict(setup.owned)}
        propose = CSRLabelProposeProgram(setup.owned, worker_ids)
        apply_min = LabelApplyProgram(setup.owned, worker_ids, worker_ids[0])
        with cluster.update("lone"), cluster.session(state):
            for _ in range(3):
                cluster.superstep(propose, machines=worker_ids, shared=state)
                cluster.superstep(apply_min, machines=worker_ids, shared=state)
        ledger = cluster.ledger
        assert ledger.driver_round_trips == ledger.total_rounds() == 6
        assert ledger.fused_rounds == 0


class TestOwnerDeltasStayHome:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_static_cc_blocks_leave_no_replay_backlog(self, backend, monkeypatch):
        """Both CC programs' deltas are owner-scoped: the owning slot self-applies them, the
        block's final round included, so no block queues a replay for the next request."""
        backlogs = []
        run_block = ResidentSession.run_block

        def watched(session, *args):
            records = run_block(session, *args)
            backlogs.append([len(slot.pending) for slot in session._slots])
            return records

        monkeypatch.setattr(ResidentSession, "run_block", watched)
        graph = gnm_random_graph(48, 120, seed=3)
        routed, fast = run_cc(graph, backend), run_cc(graph, "fast")
        assert (routed.labels, routed.parent_edges) == (fast.labels, fast.parent_edges)
        assert_bit_identical(routed, fast)
        assert backlogs and all(count == 0 for counts in backlogs for count in counts), backlogs


class TestTinyRingFallback:
    def test_mid_block_stop_and_pipe_fallback_stay_bit_identical(self, monkeypatch):
        """Two slots with a 1024-byte ring: cross-slot frames overflow, the
        worker loop stops at the boundary and hands the overflow to the
        driver's pipe forward path — the run must still match the roomy-ring
        and fast runs bit for bit."""
        graph = gnm_random_graph(64, 220, seed=11)
        fast = run_cc(graph, "fast")
        roomy = run_cc(graph, "resident-shm")
        monkeypatch.setattr(ResidentSession, "_ring_capacity", lambda session: 1024)
        tiny = run_cc(graph, "resident", resident_slots=2)
        assert tiny.labels == fast.labels == roomy.labels
        assert_bit_identical(tiny, fast)
        assert_bit_identical(roomy, fast)
        # non-vacuous: blocks genuinely formed AND the tiny ring genuinely
        # forced overflow frames onto the pipe mid-block
        assert tiny.cluster.ledger.fused_rounds > 0
        traffic = tiny.cluster.ledger.traffic_totals()
        assert traffic["pipe_fallbacks"] > 0, traffic
        # the roomy ring kept everything on shm — proves the tiny ring (not
        # the workload) caused the fallbacks
        roomy_traffic = roomy.cluster.ledger.traffic_totals()
        assert roomy_traffic["pipe_fallbacks"] == 0, roomy_traffic
        assert roomy_traffic["shm_bytes"] > 0, roomy_traffic
