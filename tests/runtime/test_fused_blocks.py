"""Fused round blocks: barrier elision must change nothing observable.

The resident backend's fused blocks (``ResidentSession.run_block``) run up
to K consecutive worker-drivable supersteps on one driver round trip —
workers loop locally, self-apply their own deltas, exchange frames over
the same-slot pending maps and cross-slot shm rings, and synchronize on a
lightweight shared-memory round barrier.  The contract is the usual one,
sharpened: not just identical solutions but **bit-identical per-round
RoundRecords** — fusion elides the driver barrier, never the accounting.

These tests drive the fusion-shaped static workloads (connected
components' ``[propose, apply]`` pairs, maximal matching's
``[announce, propose]`` pairs) with fusion on and off under every backend
configuration of the equivalence matrix, including the two-slot
``resident-shm`` configuration, and with a deliberately tiny ring that
forces a mid-block stop and pipe fallback.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.graph.generators import gnm_random_graph
from repro.static_mpc import StaticConnectedComponents, StaticMaximalMatching

#: the equivalence matrix: every execution strategy, with ``resident-shm``
#: the resident backend pinned to two slots (cross-slot frames ride shm).
BACKENDS = ("reference", "fast", "resident", "resident-shm")

RESIDENT_SLOTS = 2


def backend_kwargs(backend: str) -> dict:
    if backend == "resident-shm":
        return {"backend": "resident", "resident_slots": RESIDENT_SLOTS}
    return {"backend": backend}


def with_fuse(algorithm, fuse: str):
    """``algorithm`` with ``fuse_rounds`` set on its cluster's config (read when a session runs a span)."""
    algorithm.cluster.config = dataclasses.replace(algorithm.cluster.config, fuse_rounds=fuse)
    return algorithm


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


def run_cc(graph, backend: str, fuse: str, **extra):
    algorithm = with_fuse(StaticConnectedComponents(graph, **backend_kwargs(backend), **extra), fuse)
    algorithm.run()
    return algorithm


def run_matching(graph, backend: str, fuse: str, **extra):
    algorithm = with_fuse(StaticMaximalMatching(graph, seed=13, **backend_kwargs(backend), **extra), fuse)
    algorithm.run()
    return algorithm


def assert_bit_identical(fused, unfused) -> None:
    assert round_records(fused.cluster.ledger) == round_records(unfused.cluster.ledger)


class TestFusedVsUnfusedBitIdentity:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_connected_components_property(self, seed):
        """Property: fusion changes neither the labels/forest nor a single
        per-round record, under any backend configuration."""
        graph = gnm_random_graph(28, 64, seed=seed)
        for backend in BACKENDS:
            fused = run_cc(graph, backend, "auto")
            unfused = run_cc(graph, backend, "off")
            assert fused.labels == unfused.labels, backend
            assert fused.spanning_forest() == unfused.spanning_forest(), backend
            assert fused.rounds_used == unfused.rounds_used, backend
            assert_bit_identical(fused, unfused)
            if backend in ("resident", "resident-shm"):
                assert fused.cluster.ledger.fused_rounds > 0, backend
                assert unfused.cluster.ledger.fused_rounds == 0, backend

    def test_maximal_matching_all_backends(self):
        graph = gnm_random_graph(32, 96, seed=17)
        for backend in BACKENDS:
            fused = run_matching(graph, backend, "auto")
            unfused = run_matching(graph, backend, "off")
            assert fused.matching == unfused.matching, backend
            assert fused.rounds_used == unfused.rounds_used, backend
            assert_bit_identical(fused, unfused)

    def test_fuse_cap_still_identical(self):
        """An explicit block cap (K=2) segments differently but must still
        deliver the same rounds."""
        graph = gnm_random_graph(30, 70, seed=23)
        capped = run_cc(graph, "resident", "2")
        unfused = run_cc(graph, "resident", "off")
        assert capped.labels == unfused.labels
        assert_bit_identical(capped, unfused)
        assert capped.cluster.ledger.fused_rounds > 0


class TestDriverRoundTrips:
    def test_fusion_halves_driver_round_trips(self):
        """Every CC iteration is a fusable [propose, apply] pair, so the
        trip count must drop by at least 2x (the acceptance bound)."""
        graph = gnm_random_graph(48, 120, seed=3)
        fused = run_cc(graph, "resident", "auto")
        unfused = run_cc(graph, "resident", "off")
        fused_trips = fused.cluster.ledger.driver_round_trips
        unfused_trips = unfused.cluster.ledger.driver_round_trips
        assert fused_trips > 0 and unfused_trips > 0
        assert fused_trips * 2 <= unfused_trips, (fused_trips, unfused_trips)
        # every delivered round ran inside a fused block
        assert fused.cluster.ledger.fused_rounds == unfused.cluster.ledger.total_rounds()
        assert fused.cluster.backend.last_superstep_mode == "resident-fused"

    def test_unfused_counts_one_trip_per_round(self):
        graph = gnm_random_graph(24, 50, seed=9)
        unfused = run_cc(graph, "resident", "off")
        ledger = unfused.cluster.ledger
        assert ledger.driver_round_trips == ledger.total_rounds()


class TestTinyRingFallback:
    def test_mid_block_stop_and_pipe_fallback_stay_bit_identical(self):
        """Two slots with a 1024-byte ring: cross-slot frames overflow, the
        worker loop stops at the boundary and hands the overflow to the
        driver's pipe forward path — the run must still match the roomy-ring
        and unfused runs bit for bit."""
        graph = gnm_random_graph(64, 220, seed=11)
        tiny = dict(resident_slots=2, resident_shm_ring_bytes=1024)
        fused = run_cc(graph, "resident", "auto", **tiny)
        unfused = run_cc(graph, "resident", "off", **tiny)
        roomy = run_cc(graph, "resident-shm", "auto")
        assert fused.labels == unfused.labels == roomy.labels
        assert_bit_identical(fused, unfused)
        assert_bit_identical(fused, roomy)
        # non-vacuous: blocks genuinely formed AND the tiny ring genuinely
        # forced overflow frames onto the pipe mid-block
        assert fused.cluster.ledger.fused_rounds > 0
        traffic = fused.cluster.ledger.traffic_totals()
        assert traffic["pipe_fallbacks"] > 0, traffic
        # the roomy ring kept everything on shm — proves the tiny ring (not
        # the workload) caused the fallbacks
        roomy_traffic = roomy.cluster.ledger.traffic_totals()
        assert roomy_traffic["pipe_fallbacks"] == 0, roomy_traffic
        assert roomy_traffic["shm_bytes"] > 0, roomy_traffic
