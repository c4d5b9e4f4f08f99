"""Cross-backend equivalence: optimised backends must change nothing observable.

The execution-backend contract (:mod:`repro.runtime.base`) is that backends
may change *how* a simulation executes but never *what* it computes: the
maintained solutions, the per-update round counts and the word accounting
must be identical under every backend.  These tests drive the same graphs
and update streams through the reference, fast and resident backends — the
latter twice: once with its default slot count and once pinned to two
slots (``resident-shm``), where cross-slot messages ride the shared-memory
rings — and compare everything the algorithms expose.

The resident backend runs with live persistent worker sessions: the
static tests assert that one session was reused across rounds and that
the two-slot configuration genuinely moved frames between slots.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
)
from repro.graph import DynamicGraph, GraphUpdate, batched
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching

#: the fourth way, ``resident-shm``, is the resident backend pinned to two
#: worker slots — the configuration where cross-slot messages genuinely ride
#: the shared-memory rings (one slot routes everything worker-locally).
BACKENDS = ("reference", "fast", "resident", "resident-shm")

RESIDENT_SLOTS = 2

_RESIDENT_FAMILY = ("resident", "resident-shm")


def real_backend(backend: str) -> str:
    """Registry name behind a test-matrix entry (``resident-shm`` is a config)."""
    return "resident" if backend == "resident-shm" else backend


def backend_overrides(backend: str) -> dict:
    """Per-backend config extras: ``resident-shm`` pins its slot count."""
    return {"resident_slots": RESIDENT_SLOTS} if backend == "resident-shm" else {}


def make_config(n: int, m: int, backend: str) -> DMPCConfig:
    return DMPCConfig.for_graph(n, m, backend=real_backend(backend), **backend_overrides(backend))


def per_update_rounds(algorithm) -> list[tuple[str, int]]:
    """(label, round count) of every recorded ledger update, in order."""
    return [(u.label, u.num_rounds) for u in algorithm.ledger.updates]


def run_stream(cls, config: DMPCConfig, graph, stream, *, batch_size: int | None = None, **kwargs):
    algorithm = cls(config, **kwargs)
    algorithm.preprocess(graph.copy() if graph is not None else DynamicGraph())
    if batch_size is None:
        for update in stream:
            algorithm.apply(update)
    else:
        for chunk in batched(stream, batch_size):
            algorithm.apply_batch(chunk)
    return algorithm


def run_all(cls, make_config, graph, stream, *, batch_size: int | None = None, **kwargs):
    return {
        backend: run_stream(cls, make_config(backend), graph, stream, batch_size=batch_size, **kwargs)
        for backend in BACKENDS
    }


def assert_all_equal(by_backend: dict, extract, what: str) -> None:
    reference = extract(by_backend["reference"])
    for backend in BACKENDS[1:]:
        assert extract(by_backend[backend]) == reference, f"{backend} diverged from reference: {what}"


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("batch_size", [None, 8])
    def test_connectivity_same_solution_and_rounds(self, batch_size):
        n, m = 48, 96
        graph = gnm_random_graph(n, m, seed=21)
        stream = list(mixed_stream(n, 120, seed=22, insert_probability=0.5, initial=graph))
        runs = run_all(
            DMPCConnectivity, lambda b: make_config(n, 2 * m, b), graph, stream, batch_size=batch_size
        )
        assert_all_equal(runs, lambda a: sorted(map(sorted, a.components())), "components")
        assert_all_equal(runs, lambda a: a.spanning_forest(), "spanning forest")
        assert_all_equal(runs, per_update_rounds, "per-update rounds")
        assert_all_equal(runs, lambda a: a.update_summary().as_dict(), "update summary")

    @pytest.mark.parametrize("batch_size", [None, 8])
    def test_maximal_matching_same_solution_and_rounds(self, batch_size):
        n, m = 40, 80
        graph = gnm_random_graph(n, m, seed=31)
        stream = list(mixed_stream(n, 120, seed=32, insert_probability=0.5, initial=graph))
        runs = run_all(
            DMPCMaximalMatching, lambda b: make_config(n, 2 * m, b), graph, stream, batch_size=batch_size
        )
        assert_all_equal(runs, lambda a: a.matching(), "matching")
        assert_all_equal(runs, per_update_rounds, "per-update rounds")
        assert_all_equal(runs, lambda a: a.update_summary().as_dict(), "update summary")

    def test_approx_mst_same_forest_and_rounds(self):
        n, m = 32, 64
        graph = random_weighted_graph(n, m, seed=41)
        stream = list(mixed_stream(n, 80, seed=42, insert_probability=0.5, initial=graph, weighted=True))
        runs = run_all(DMPCApproxMST, lambda b: make_config(n, 2 * m, b), graph, stream, epsilon=0.2)
        assert_all_equal(runs, lambda a: a.spanning_forest(), "spanning forest")
        assert_all_equal(runs, per_update_rounds, "per-update rounds")
        reference = runs["reference"].forest_weight()
        for backend in BACKENDS[1:]:
            assert runs[backend].forest_weight() == pytest.approx(reference)

    def test_heavy_star_workload_equivalent(self):
        """The heavy-vertex suspended-stack path decides identically on all backends."""
        n = 64
        graph = DynamicGraph(n)
        for i in range(1, 31):
            graph.insert_edge(0, i)
        stream = [GraphUpdate.delete(0, i) for i in range(1, 23)]
        runs = run_all(DMPCMaximalMatching, lambda b: make_config(n, 2 * graph.num_edges, b), graph, stream)
        assert_all_equal(runs, lambda a: a.matching(), "matching")
        assert_all_equal(runs, per_update_rounds, "per-update rounds")

    @pytest.mark.parametrize(
        "algorithm_cls,kwargs",
        [
            (DMPCConnectivity, {}),
            (DMPCMaximalMatching, {}),
            (DMPCThreeHalvesMatching, {}),
            (DMPCTwoPlusEpsMatching, {"seed": 3}),
        ],
        ids=lambda value: getattr(value, "__name__", ""),
    )
    def test_memory_accounting_identical(self, algorithm_cls, kwargs):
        """Every backend must report the exact same memory usage as eager sizing.

        This covers every in-place-mutation pattern the algorithms use
        (``mutate_stats`` / ``push_stats`` same-object re-stores, the
        two-plus-eps per-vertex state dicts, copy-on-write adjacency) —
        the reference never charges in-place drift and the cached storage
        must not either.
        """
        n = 40
        stream = list(mixed_stream(n, 100, seed=52, insert_probability=0.55))
        runs = run_all(algorithm_cls, lambda b: make_config(n, 4 * n, b), DynamicGraph(n), stream, **kwargs)
        reference = runs["reference"]
        for backend in BACKENDS[1:]:
            other = runs[backend]
            assert other.cluster.total_stored_words == reference.cluster.total_stored_words
            for ref_machine, other_machine in zip(reference.cluster.machines(), other.cluster.machines()):
                assert ref_machine.machine_id == other_machine.machine_id
                assert ref_machine.used_words == other_machine.used_words


class TestStaticAlgorithmEquivalence:
    """The superstep-routed static baselines under every execution strategy.

    These are the workloads where the resident backend actually runs the
    per-machine code in its worker processes, so they pin the deterministic
    merge barrier: solutions, per-round ledger records, word totals and
    per-machine ``used_words`` must be identical to the reference.
    """

    def run_static(self, cls, graph, *, routed=True, **kwargs):
        runs = {}
        for backend in BACKENDS:
            algorithm = cls(
                graph, backend=real_backend(backend), **backend_overrides(backend), **kwargs
            )
            algorithm.run()
            runs[backend] = algorithm
        # The resident rows' supersteps must have been routed through one
        # live worker session — a silent fallback would make this whole
        # class vacuous for them — with more than one round actually
        # crossing into the persistent workers (state was kept resident and
        # *reused*, not re-shipped per round).
        for backend in _RESIDENT_FAMILY:
            assert runs[backend].cluster.ledger.driver_round_trips > 0
            assert runs[backend].cluster.backend.last_session_worker_rounds >= 2
        # The shm row must be non-vacuous: with two slots on these
        # message-heavy workloads at least one cross-slot frame must have
        # ridden a shared-memory ring (otherwise the equivalence claim for
        # the shm wire path tests nothing).  Workloads whose only superstep
        # program is driver-read (``routed=False``) return every send on
        # the round reply instead, so no frame is ever slot-routed.
        backend = runs["resident-shm"].cluster.backend
        traffic = backend.last_session_traffic
        if routed:
            assert backend.last_session_shm_frames >= 1
            assert traffic["cross_slot_messages"] >= 1
        else:
            assert traffic["local_messages"] + traffic["cross_slot_messages"] == 0
        return runs

    def assert_cluster_parity(self, runs):
        reference = runs["reference"]
        ref_rounds = [(u.label, u.num_rounds, u.total_words) for u in reference.cluster.ledger.updates]
        ref_words = [(m.machine_id, m.used_words) for m in reference.cluster.machines()]
        for backend in BACKENDS[1:]:
            other = runs[backend]
            assert [(u.label, u.num_rounds, u.total_words) for u in other.cluster.ledger.updates] == ref_rounds
            assert [(m.machine_id, m.used_words) for m in other.cluster.machines()] == ref_words
            summary = other.cluster.ledger.summary().as_dict()
            assert summary == reference.cluster.ledger.summary().as_dict()

    def test_connected_components_equivalent(self):
        graph = gnm_random_graph(60, 140, seed=13)
        runs = self.run_static(StaticConnectedComponents, graph)
        assert_all_equal(runs, lambda a: a.labels, "labels")
        assert_all_equal(runs, lambda a: sorted(a.spanning_forest()), "spanning forest")
        assert_all_equal(runs, lambda a: a.rounds_used, "rounds used")
        self.assert_cluster_parity(runs)

    def test_maximal_matching_equivalent(self):
        graph = gnm_random_graph(50, 130, seed=17)
        runs = self.run_static(StaticMaximalMatching, graph, seed=17)
        assert_all_equal(runs, lambda a: sorted(a.matching), "matching")
        assert_all_equal(runs, lambda a: a.rounds_used, "rounds used")
        self.assert_cluster_parity(runs)

    def test_boruvka_mst_equivalent(self):
        graph = random_weighted_graph(45, 110, seed=19)
        # Borůvka's single superstep program feeds the driver's contraction
        # step (driver_reads_sends = True), so every send returns on the
        # round reply — no frame is slot-routed.
        runs = self.run_static(StaticBoruvkaMST, graph, routed=False)
        assert_all_equal(runs, lambda a: sorted(a.forest), "forest")
        assert_all_equal(runs, lambda a: a.phases_used, "phases used")
        reference = runs["reference"].forest_weight()
        for backend in BACKENDS[1:]:
            assert runs[backend].forest_weight() == pytest.approx(reference)
        self.assert_cluster_parity(runs)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=25))
def test_property_equivalence_under_arbitrary_toggles(pairs):
    """Property: any toggle sequence yields identical matchings and round counts."""
    algorithms = {}
    for backend in BACKENDS:
        alg = DMPCMaximalMatching(make_config(10, 64, backend))
        alg.preprocess(DynamicGraph(10))
        present: set[tuple[int, int]] = set()
        for (u, v) in pairs:
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present:
                alg.apply(GraphUpdate.delete(*edge))
                present.discard(edge)
            else:
                alg.apply(GraphUpdate.insert(*edge))
                present.add(edge)
        algorithms[backend] = alg
    assert_all_equal(algorithms, lambda a: a.matching(), "matching")
    assert_all_equal(algorithms, per_update_rounds, "per-update rounds")
    assert_all_equal(algorithms, lambda a: a.cluster.total_stored_words, "stored words")
