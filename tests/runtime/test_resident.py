"""The resident backend's session and delta-shipping seams.

Cross-backend *equivalence* of the resident backend is pinned in
``test_backend_equivalence`` (four-configuration matrix, non-vacuous
residency assertions).  This module covers what is specific to residency
itself:

* sessions do not nest;
* the worker-session protocol ops, exercised in-process (they are plain
  functions over a sessions dict) and against the real worker processes —
  including worker death and aborted rounds mid-session;
* snapshot-cache eviction by storage-version epoch in resident session
  state.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import DMPCConfig
from repro.exceptions import ProtocolError
from repro.graph.generators import gnm_random_graph
from repro.mpc.cluster import Cluster
from repro.runtime.resident import (
    ResidentSession,
    _session_close,
    _session_open,
    _session_run_block,
    _slot_worker,
)
from repro.static_mpc.common import build_static_cluster
from repro.static_mpc.connected_components import CSRLabelProposeProgram, LabelApplyProgram

RESIDENT_SLOTS = 2


def run_label_propagation(graph, *, backend, on_round=None):
    """The StaticConnectedComponents round loop, with fault injection.

    ``on_round`` maps an iteration number to a callable ``(cluster, session)
    -> None`` run right before that iteration's supersteps.  Returns
    everything a bit-identity comparison needs plus the session.
    """
    setup = build_static_cluster(graph, backend=backend, resident_slots=RESIDENT_SLOTS, weighted=False)
    cluster = setup.cluster
    worker_ids = setup.worker_ids
    leader = worker_ids[0]
    state = {"labels": {v: v for v in graph.vertices}, "via": {}, "frontier": dict(setup.owned)}
    propose = CSRLabelProposeProgram(setup.owned, worker_ids)
    apply_min = LabelApplyProgram(setup.owned, worker_ids, leader)
    with cluster.update("resident-cc"), cluster.session(state) as session:
        rounds = 0
        while any(state["frontier"].values()):
            rounds += 1
            if on_round and rounds in on_round:
                on_round[rounds](cluster, session)
            cluster.superstep(propose, machines=worker_ids, shared=state)
            cluster.superstep(apply_min, machines=worker_ids, shared=state)
        cluster.machine(leader).drain("changed")
    return {
        "labels": state["labels"],
        "via": dict(state["via"]),
        "rounds": rounds,
        "ledger": [(u.label, u.num_rounds, u.total_words) for u in cluster.ledger.updates],
        "cluster": cluster,
        "session": session,
    }


def assert_identical_runs(result, reference):
    assert result["labels"] == reference["labels"]
    assert result["via"] == reference["via"]
    assert result["rounds"] == reference["rounds"]
    assert result["ledger"] == reference["ledger"]


class TestSessions:
    def test_sessions_do_not_nest(self):
        config = DMPCConfig.for_graph(16, 32, backend="fast")
        cluster = Cluster(config)
        with cluster.session({}):
            with pytest.raises(ProtocolError):
                with cluster.session({}):
                    pass  # pragma: no cover


def one_round(sessions, session_id, new_programs, shared_init, store_updates, batch):
    """Run program 0 as a one-round block (funneled: its sends come back on the reply)."""
    block = {"epoch0": 0, "slot": 0, "map": None, "forward": [], "rounds": [(0, False, True)], "barrier": None}
    reply = _session_run_block(sessions, session_id, new_programs, [], shared_init, store_updates, batch, block)
    assert reply[:2] == ("block", 1)
    (funneled,) = reply[2]
    assert funneled[0] == "funneled"
    return funneled[1]


class TestWorkerSessionProtocol:
    """The protocol ops as plain functions over a sessions dict, then against the real workers."""

    def make_program_blob(self):
        program = CSRLabelProposeProgram({"m0": []}, ["m0"])
        return pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)

    def test_open_run_close_lifecycle(self):
        sessions = {}
        assert _session_open(sessions, "s1")
        assert _session_open(sessions, "s1")  # idempotent
        blob = self.make_program_blob()
        results = one_round(sessions, "s1", {0: blob}, {"labels": {}, "frontier": {"m0": []}}, [], [("m0", ())])
        assert results == [("m0", [], None)]
        assert _session_close(sessions, "s1")
        assert sessions == {}
        assert not _session_close(sessions, "s1")

    def test_store_version_epoch_evicts_superseded_snapshots(self):
        sessions = {}
        _session_open(sessions, "s")
        blob = self.make_program_blob()
        store_v1 = pickle.dumps({("adj", 1): [2]}, protocol=pickle.HIGHEST_PROTOCOL)
        one_round(sessions, "s", {0: blob}, {"labels": {}, "frontier": {"m0": []}}, [("m0", ("adj",), 1, store_v1)], [("m0", ())])
        state = sessions["s"]
        assert state.stores[("m0", ("adj",))] == {("adj", 1): [2]}
        assert state.store_versions["m0"] == 1
        # a newer epoch evicts every prefix snapshot of the machine at once
        store_v2 = pickle.dumps({("weights", 1): {2: 1.0}}, protocol=pickle.HIGHEST_PROTOCOL)
        one_round(sessions, "s", {}, {}, [("m0", ("weights",), 2, store_v2)], [("m0", ())])
        assert ("m0", ("adj",)) not in state.stores
        assert state.stores[("m0", ("weights",))] == {("weights", 1): {2: 1.0}}
        assert state.store_versions["m0"] == 2

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
        setup = build_static_cluster(graph, backend="resident", resident_slots=RESIDENT_SLOTS, weighted=False)
        cluster = setup.cluster
        worker_ids = setup.worker_ids
        propose = CSRLabelProposeProgram(setup.owned, worker_ids)
        bad_state = {"via": {}, "frontier": dict(setup.owned)}  # missing "labels"
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
