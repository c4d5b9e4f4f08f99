"""The resident backend's session, delta-shipping and live re-plan seams.

Cross-backend *equivalence* of the resident backend is pinned in
``test_backend_equivalence`` (six-backend matrix, non-vacuous residency
assertions).  This module covers what is specific to residency itself:

* live re-planning — :meth:`Cluster.replan` mid-run (including shard-count
  changes under the rendezvous strategy) must preserve bit-identical
  solutions and round counts versus a fixed-plan run, and migration must
  move only machines the ``rebalance`` proposal actually pinned elsewhere;
* the closed autotuning loop (``DMPCConfig.replan_every``);
* the worker-session protocol ops, exercised in-process (they are plain
  functions over a sessions dict) and against the real worker processes;
* snapshot-cache eviction by storage-version epoch, in both the process
  backend's worker cache and resident session state.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import ProtocolError
from repro.graph.generators import gnm_random_graph
from repro.mpc.cluster import Cluster
from repro.runtime.process import _WORKER_STORES, _worker_store
from repro.runtime.resident import (
    ResidentBackend,
    ResidentSession,
    _session_close,
    _session_migrate,
    _session_open,
    _session_run_round,
    _slot_worker,
)
from repro.runtime.sharding import ShardPlan
from repro.static_mpc import StaticConnectedComponents
from repro.static_mpc.common import build_static_cluster
from repro.static_mpc.connected_components import CSRLabelProposeProgram, LabelApplyProgram

SHARD_COUNT = 3
MAX_WORKERS = 2


def run_label_propagation(graph, *, backend, plans=None, replan_every=None, on_round=None):
    """The StaticConnectedComponents round loop, with re-plan injection.

    ``plans`` maps an iteration number to a callable ``cluster -> ShardPlan``
    applied (via :meth:`Cluster.replan`) right before that iteration's
    supersteps; ``on_round`` maps an iteration number to a callable
    ``(cluster, session) -> None`` run at the same point (fault injection).
    Returns everything a bit-identity comparison needs plus the session and
    the observed migrations.
    """
    setup = build_static_cluster(
        graph,
        backend=backend,
        shard_count=SHARD_COUNT,
        max_workers=MAX_WORKERS,
        replan_every=replan_every,
        weighted=False,
    )
    cluster = setup.cluster
    worker_ids = setup.worker_ids
    leader = worker_ids[0]
    state = {"labels": {v: v for v in graph.vertices}, "via": {}, "changed_flags": {}}
    propose = CSRLabelProposeProgram(setup.owned, worker_ids)
    apply_min = LabelApplyProgram(setup.owned, worker_ids, leader)
    migrations = []
    with cluster.update("replan-cc"), cluster.session(state) as session:
        changed = True
        rounds = 0
        while changed and rounds < 4 * max(4, graph.num_vertices):
            rounds += 1
            if on_round and rounds in on_round:
                on_round[rounds](cluster, session)
            if plans and rounds in plans:
                plan = plans[rounds](cluster)
                applied = cluster.replan(plan)
                migrations.append((rounds, plan, applied, list(session.last_migration or [])))
            cluster.superstep(propose, machines=worker_ids, shared=state)
            cluster.superstep(apply_min, machines=worker_ids, shared=state)
            changed = any(state["changed_flags"].values())
        cluster.machine(leader).drain("changed")
    return {
        "labels": state["labels"],
        "via": dict(state["via"]),
        "rounds": rounds,
        "ledger": [(u.label, u.num_rounds, u.total_words) for u in cluster.ledger.updates],
        "cluster": cluster,
        "session": session,
        "migrations": migrations,
    }


def assert_identical_runs(result, reference):
    assert result["labels"] == reference["labels"]
    assert result["via"] == reference["via"]
    assert result["rounds"] == reference["rounds"]
    assert result["ledger"] == reference["ledger"]


class TestLiveReplan:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1000), gap=st.integers(1, 3), second_count=st.integers(1, 6))
    def test_replan_mid_run_is_bit_identical(self, seed, gap, second_count):
        """Property: arbitrary mid-run plan changes — including shard-count
        changes under the rendezvous strategy — never change the simulation."""
        graph = gnm_random_graph(36, 80, seed=seed)
        reference = run_label_propagation(graph, backend="fast")
        # round 2 always exists (any improving round forces a follow-up),
        # so the first re-plan always lands mid-run; the second may fall
        # past convergence depending on the graph.
        plans = {
            2: lambda cluster: ShardPlan(5, strategy="rendezvous"),
            2 + gap: lambda cluster: ShardPlan(second_count, strategy="rendezvous"),
        }
        result = run_label_propagation(graph, backend="resident", plans=plans)
        assert_identical_runs(result, reference)
        # plans scheduled past convergence never fire; every fired one applied
        fired = [round_no for round_no in sorted(plans) if round_no <= result["rounds"]]
        assert fired, "at least the first re-plan must land mid-run"
        applied = [entry for entry in result["migrations"] if entry[2]]
        assert len(applied) == len(fired)
        history = result["cluster"].replan_history
        assert [h["shard_count"] for h in history] == [5, second_count][: len(fired)]
        assert all(h["strategy"] == "rendezvous" for h in history)

    def test_rebalance_migration_moves_only_pinned_machines(self):
        """A live ``machine_load -> rebalance -> replan`` step migrates only
        machines the proposal pinned (to a different worker slot) — and the
        run still matches a fixed-plan one bit for bit."""
        graph = gnm_random_graph(48, 110, seed=7)
        reference = run_label_propagation(graph, backend="fast")

        observed = {}

        def rebalance_from_load(cluster):
            proposal = cluster.backend.plan.rebalance(cluster._transport.machine_load())
            observed["proposal"] = proposal
            return proposal

        result = run_label_propagation(graph, backend="resident", plans={3: rebalance_from_load})
        assert_identical_runs(result, reference)
        (_, plan, applied, moved) = result["migrations"][0]
        assert applied
        session = result["session"]
        assert isinstance(session, ResidentSession)
        # every machine that sent anything is pinned by the LPT proposal...
        assert plan.assignment
        # ...and migration touched no machine the proposal did not pin.
        assert set(moved) <= set(plan.assignment)
        assert session.last_migration == moved

    def test_autotune_loop_closes_and_records_plans(self):
        graph = gnm_random_graph(40, 90, seed=11)
        fixed = StaticConnectedComponents(graph, shard_count=SHARD_COUNT, backend="fast")
        fixed.run()
        tuned = StaticConnectedComponents(
            graph,
            backend="resident",
            shard_count=SHARD_COUNT,
            max_workers=MAX_WORKERS,
            replan_every=4,
        )
        tuned.run()
        assert tuned.labels == fixed.labels
        assert tuned.rounds_used == fixed.rounds_used
        assert sorted(tuned.spanning_forest()) == sorted(fixed.spanning_forest())
        history = tuned.cluster.replan_history
        assert history, "replan_every must have driven at least one adopted plan"
        for entry in history:
            assert set(entry) == {"round", "shard_count", "strategy", "pinned"}
            assert entry["pinned"], "LPT proposals pin every machine that sent words"

    def test_replan_with_storeless_programs_multi_slot(self, monkeypatch):
        """Matching programs ship no stores, so machine→slot moves are
        invisible to the snapshot bookkeeping — a re-plan must still
        invalidate resident shared copies (stale owner-scoped free_adj at a
        machine's new slot would silently diverge the matching).  Forced to
        two slots so this holds on single-CPU hosts too."""
        monkeypatch.setattr(ResidentBackend, "worker_slots", property(lambda self: 2))
        from repro.static_mpc import StaticMaximalMatching

        graph = gnm_random_graph(48, 130, seed=31)
        fixed = StaticMaximalMatching(graph, seed=31, backend="fast")
        fixed.run()
        tuned = StaticMaximalMatching(
            graph,
            seed=31,
            backend="resident",
            shard_count=SHARD_COUNT,
            max_workers=MAX_WORKERS,
            replan_every=2,
        )
        tuned.run()
        assert sorted(tuned.matching) == sorted(fixed.matching)
        assert tuned.rounds_used == fixed.rounds_used
        assert tuned.cluster.replan_history, "replan_every=2 must fire within the run"
        assert tuned.cluster.backend.last_session_worker_rounds >= 2

    def test_replan_is_noop_on_unplanned_backends(self):
        config = DMPCConfig.for_graph(16, 32, backend="fast")
        cluster = Cluster(config)
        cluster.add_machines("w", 4)
        assert cluster.replan(ShardPlan(4)) is False
        assert cluster.replan_history == []
        assert cluster.autotune_replan() is None

    def test_replan_with_staged_messages_raises(self):
        config = DMPCConfig.for_graph(16, 32, backend="sharded", shard_count=2)
        cluster = Cluster(config)
        machines = cluster.add_machines("w", 4)
        machines[0].send("w1", "probe", 1)
        with pytest.raises(ProtocolError):
            cluster.replan(ShardPlan(3))
        cluster.exchange()
        assert cluster.replan(ShardPlan(3)) is True
        assert cluster.replan_history[0]["shard_count"] == 3

    def test_sessions_do_not_nest(self):
        config = DMPCConfig.for_graph(16, 32, backend="fast")
        cluster = Cluster(config)
        with cluster.session({}):
            with pytest.raises(ProtocolError):
                with cluster.session({}):
                    pass  # pragma: no cover


class TestWorkerSessionProtocol:
    """The four protocol ops as plain functions over a sessions dict."""

    def make_program_blob(self):
        program = CSRLabelProposeProgram({"m0": []}, ["m0"])
        return pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)

    def test_open_run_close_lifecycle(self):
        sessions = {}
        assert _session_open(sessions, "s1")
        assert _session_open(sessions, "s1")  # idempotent
        blob = self.make_program_blob()
        results = _session_run_round(
            sessions, "s1", {0: blob}, 0, [], {"labels": {}}, [], [("m0", ())]
        )
        assert results == [("m0", [], None)]
        assert _session_close(sessions, "s1")
        assert sessions == {}
        assert not _session_close(sessions, "s1")

    def test_store_version_epoch_evicts_superseded_snapshots(self):
        sessions = {}
        _session_open(sessions, "s")
        blob = self.make_program_blob()
        store_v1 = pickle.dumps({("adj", 1): [2]}, protocol=pickle.HIGHEST_PROTOCOL)
        _session_run_round(
            sessions, "s", {0: blob}, 0, [], {"labels": {}},
            [("m0", ("adj",), 1, store_v1)], [("m0", ())],
        )
        state = sessions["s"]
        assert state.stores[("m0", ("adj",))] == {("adj", 1): [2]}
        assert state.store_versions["m0"] == 1
        # a newer epoch evicts every prefix snapshot of the machine at once
        store_v2 = pickle.dumps({("weights", 1): {2: 1.0}}, protocol=pickle.HIGHEST_PROTOCOL)
        _session_run_round(
            sessions, "s", {}, 0, [], {},
            [("m0", ("weights",), 2, store_v2)], [("m0", ())],
        )
        assert ("m0", ("adj",)) not in state.stores
        assert state.stores[("m0", ("weights",))] == {("weights", 1): {2: 1.0}}
        assert state.store_versions["m0"] == 2

    def test_migrate_drops_only_named_machines(self):
        sessions = {}
        _session_open(sessions, "s")
        state = sessions["s"]
        state.stores[("m0", ("adj",))] = {"a": 1}
        state.stores[("m0", ("weights",))] = {"b": 2}
        state.stores[("m1", ("adj",))] = {"c": 3}
        state.store_versions.update({"m0": 4, "m1": 9})
        assert _session_migrate(sessions, "s", ["m0"]) == 2
        assert list(state.stores) == [("m1", ("adj",))]
        assert state.store_versions == {"m1": 9}
        assert _session_migrate(sessions, "missing", ["m0"]) == 0

    def test_worker_death_mid_session_recovers(self):
        """Killing every slot worker mid-session must not corrupt the run:
        respawned workers carry a new generation, so the session resets its
        per-slot bookkeeping and re-ships state wholesale."""
        graph = gnm_random_graph(40, 90, seed=23)
        reference = run_label_propagation(graph, backend="fast")

        def kill_workers(cluster, session):
            for slot in range(session.slot_count):
                worker = _slot_worker(slot)
                worker.process.terminate()
                worker.process.join(timeout=10)

        result = run_label_propagation(graph, backend="resident", on_round={3: kill_workers})
        assert_identical_runs(result, reference)
        assert result["session"].worker_rounds >= 2

    def test_aborted_round_leaves_shared_workers_usable(self):
        """A round that dies while building/pipelining requests must realign
        the (process-wide) slot workers' pipes: the broken session falls back,
        and a *fresh* session on the same workers still runs bit-identically."""
        graph = gnm_random_graph(30, 60, seed=29)
        setup = build_static_cluster(
            graph, backend="resident", shard_count=SHARD_COUNT, max_workers=MAX_WORKERS, weighted=False
        )
        cluster = setup.cluster
        worker_ids = setup.worker_ids
        propose = CSRLabelProposeProgram(setup.owned, worker_ids)
        bad_state = {"via": {}, "changed_flags": {}}  # missing "labels"
        with cluster.session(bad_state) as session:
            with pytest.raises(KeyError):
                cluster.superstep(propose, machines=worker_ids, shared=bad_state)
            assert session._broken
        reference = run_label_propagation(graph, backend="fast")
        result = run_label_propagation(graph, backend="resident")
        assert_identical_runs(result, reference)
        assert result["session"].worker_rounds >= 2

    def test_closed_session_leaves_no_worker_state(self):
        """Drive a real run, then ask the live worker processes directly."""
        graph = gnm_random_graph(30, 60, seed=3)
        result = run_label_propagation(graph, backend="resident")
        session = result["session"]
        assert isinstance(session, ResidentSession)
        assert session.worker_rounds >= 2
        for slot in range(session.slot_count):
            assert session.session_id not in _slot_worker(slot).call(("sessions",))


class TestProcessWorkerStoreCache:
    def test_superseded_versions_are_evicted(self):
        _WORKER_STORES.clear()
        adj_blob = pickle.dumps({("adj", 1): [2]})
        weights_blob = pickle.dumps({("weights", 1): {2: 1.0}})
        assert _worker_store("m0", ("adj",), 1, adj_blob) == {("adj", 1): [2]}
        assert _worker_store("m0", ("weights",), 1, weights_blob) == {("weights", 1): {2: 1.0}}
        version, by_prefix = _WORKER_STORES["m0"]
        assert version == 1 and set(by_prefix) == {("adj",), ("weights",)}
        # the version epoch moves: every old prefix snapshot goes at once,
        # so long update streams keep exactly one version per machine
        new_adj = pickle.dumps({("adj", 1): [2, 3]})
        assert _worker_store("m0", ("adj",), 2, new_adj) == {("adj", 1): [2, 3]}
        version, by_prefix = _WORKER_STORES["m0"]
        assert version == 2 and set(by_prefix) == {("adj",)}
        _WORKER_STORES.clear()

    def test_unchanged_blob_skips_unpickling(self):
        _WORKER_STORES.clear()
        blob = pickle.dumps({("adj", 7): [1]})
        first = _worker_store("m1", ("adj",), 3, blob)
        assert _worker_store("m1", ("adj",), 3, blob) is first
        _WORKER_STORES.clear()
