"""Unit tests for the runtime layer's individual policies.

Storage accounting, cap enforcement, transport delivery order, per-pair
metrics detail, resident slots and backend resolution — each policy tested
in isolation, plus the pinned guarantee that the fast backend still *enforces*
the model caps when they are explicitly enabled (it only relaxes metrics
retention, never enforcement).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import MachineMemoryExceeded, MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, Machine, MetricsLedger, RoundRecord, SuperstepProgram
from repro.runtime import (
    BACKENDS,
    CachedStorage,
    FastBackend,
    ReferenceBackend,
    ReferenceStorage,
    ResidentBackend,
    resolve_backend,
)
from repro.runtime import resident as resident_mod
from repro.runtime.resident import _worker_main
from repro.runtime.wire import decode_obj, encode_obj


class TokenProbeProgram(SuperstepProgram):
    """Module-level (hence picklable) probe: store + shared in, delta + message out.

    Each machine reads its stored token, adds the shared offset, reports
    the sum to ``m0`` as a message and returns ``(pid, sum)`` as its delta —
    enough to observe *where* the run executed and that every data path
    (store slice, shared slice, sends, deltas) round-trips.
    """

    shared_reads = ("offset",)
    shared_writes = ("results",)
    store_reads = ("token",)

    def run(self, ctx, inbox, shared):
        value = ctx.load(("token", ctx.machine_id), 0) + shared["offset"]
        if ctx.machine_id != "m0":
            ctx.send("m0", "probe", value)
        return (os.getpid(), value)

    def apply(self, shared, machine_id, delta):
        shared["results"][machine_id] = delta


class UndeclaredReadProgram(SuperstepProgram):
    shared_reads = ("missing-key",)

    def run(self, ctx, inbox, shared):  # pragma: no cover - never reached
        return None


class ReportIndexProgram(SuperstepProgram):
    """Every machine but ``m0`` reports its registration index to ``m0``."""

    #: the reports feed the next superstep's inboxes, so they stay slot-routed
    driver_reads_sends = False

    def run(self, ctx, inbox, shared):
        if ctx.machine_id != "m0":
            ctx.send("m0", "probe", int(ctx.machine_id[1:]))


class CollectInboxProgram(SuperstepProgram):
    """Every machine hands its inbox payloads, in arrival order, to the driver."""

    shared_writes = ("seen",)

    def run(self, ctx, inbox, shared):
        return [msg.payload for msg in inbox]

    def apply(self, shared, machine_id, delta):
        shared["seen"][machine_id] = delta


class ExplodingProgram(SuperstepProgram):
    """``m1`` and ``m2`` raise: sequentially ``m1`` is first, on two slots ``m2``'s slot is."""

    def run(self, ctx, inbox, shared):
        if ctx.machine_id in ("m1", "m2"):
            raise RuntimeError(f"boom-{ctx.machine_id}")


def make_cluster(backend: str, **kwargs) -> Cluster:
    config = kwargs.pop("config", None) or DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)
    return Cluster(config, **kwargs)


# ---------------------------------------------------------------------- sizing
class TestFastWordSize:
    """fast_word_size must agree with word_size on every input."""

    payloads = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=False),
            st.text(max_size=30),
            st.binary(max_size=30),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=6),
            st.lists(children, max_size=6).map(tuple),
            st.dictionaries(st.one_of(st.integers(), st.text(max_size=8)), children, max_size=6),
            st.lists(st.integers(), max_size=6).map(frozenset),
        ),
        max_leaves=25,
    )

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_matches_reference_on_arbitrary_payloads(self, payload):
        from repro.mpc.sizing import fast_word_size, word_size

        assert fast_word_size(payload) == word_size(payload)

    def test_matches_reference_on_package_objects(self):
        from repro.dynamic_mpc.state import VertexStats
        from repro.mpc.coordinator import HistoryEntry
        from repro.mpc.sizing import fast_word_size, word_size

        class IntSubclass(int):
            pass

        class DictWithWords(dict):
            def dmpc_words(self) -> int:
                return 42

        for payload in (
            VertexStats(degree=3, mate=1, suspended_machines=["edge1", "edge2"]),
            HistoryEntry(seq=1, kind="insert", u=0, v=1),
            [VertexStats(), {"k": (HistoryEntry(seq=2, kind="delete", u=2, v=3), None)}],
            IntSubclass(7),
            DictWithWords(a=1),
            "",
            b"",
        ):
            assert fast_word_size(payload) == word_size(payload)


# --------------------------------------------------------------------- storage
class TestStorageEquivalence:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("store"), st.integers(0, 7), st.integers(0, 5)),
            st.tuples(st.just("delete"), st.integers(0, 7), st.just(0)),
            st.tuples(st.just("read"), st.just(0), st.just(0)),
        ),
        min_size=1,
        max_size=60,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=ops)
    def test_cached_matches_reference_accounting(self, ops):
        """used_words agrees at every read point, for interleaved store/delete/read."""
        reference = ReferenceStorage("m", 10**9, strict=False)
        cached = CachedStorage("m", 10**9, strict=False)
        for op, key, size in ops:
            if op == "store":
                value = {("k", i): [i, i + 1] for i in range(size)}
                reference.store(("slot", key), value)
                cached.store(("slot", key), value)
            elif op == "delete":
                reference.delete(("slot", key))
                cached.delete(("slot", key))
            else:
                assert cached.used_words == reference.used_words
        assert cached.used_words == reference.used_words
        assert sorted(map(repr, cached.keys())) == sorted(map(repr, reference.keys()))

    def test_cached_strict_raises_at_same_store(self):
        reference = ReferenceStorage("m", 16, strict=True)
        cached = CachedStorage("m", 16, strict=True)
        for storage in (reference, cached):
            storage.store("a", [1, 2, 3])
        with pytest.raises(MachineMemoryExceeded) as ref_err:
            reference.store("b", list(range(16)))
        with pytest.raises(MachineMemoryExceeded) as fast_err:
            cached.store("b", list(range(16)))
        assert ref_err.value.used == fast_err.value.used
        assert ref_err.value.requested == fast_err.value.requested
        # the failed store must not corrupt the accounting
        assert reference.used_words == cached.used_words

    def test_cached_overwrite_and_delete_release_words(self):
        cached = CachedStorage("m", 10**9, strict=False)
        cached.store("k", list(range(50)))
        assert cached.used_words > 50
        cached.store("k", 1)
        reference = ReferenceStorage("m", 10**9, strict=False)
        reference.store("k", 1)
        assert cached.used_words == reference.used_words
        cached.delete("k")
        assert cached.used_words == 0

    def test_machine_standalone_defaults_to_reference_storage(self):
        machine = Machine("solo", 64)
        assert isinstance(machine.storage, ReferenceStorage)
        machine.store("x", [1, 2, 3])
        assert machine.used_words == machine.storage.used_words


# ------------------------------------------------------------- cap enforcement
class TestFastBackendEnforcesCaps:
    """Pinned guarantee: `fast` relaxes metrics retention, never enforcement."""

    def test_fast_backend_raises_machine_memory_exceeded(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, strict_memory=True, backend="fast")
        cluster = Cluster(config)
        machine = cluster.add_machine("a", capacity=16)
        with pytest.raises(MachineMemoryExceeded):
            machine.store("big", list(range(64)))

    def test_fast_backend_raises_message_size_exceeded(self):
        cluster = make_cluster("fast", enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_fast_backend_receive_cap_enforced(self):
        cluster = make_cluster("fast", enforce_io_cap=True)
        cluster.add_machines("s", 3)
        cluster.add_machine("sink")
        over = cluster.config.machine_memory // 2 + 1
        for sender in cluster.machines(role="worker"):
            if sender.machine_id != "sink":
                sender.send("sink", "blob", None, words=over)
        with pytest.raises(MessageSizeExceeded) as err:
            cluster.exchange()
        assert err.value.direction == "receive"

    def test_fast_backend_unknown_receiver_raises(self):
        cluster = make_cluster("fast")
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()

    def test_fast_backend_caps_off_by_default(self):
        cluster = make_cluster("fast")
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        record = cluster.exchange()
        assert record.total_words > cluster.config.machine_memory


# ------------------------------------------------------------------- transport
class TestTransportParity:
    @pytest.mark.parametrize("backend", ["fast", "resident"])
    def test_delivery_order_matches_reference(self, backend):
        """Staging order must not leak into delivery order: registration order rules."""
        inboxes = {}
        for name in ("reference", backend):
            config = DMPCConfig(capacity_n=32, capacity_m=64, backend=name)
            cluster = Cluster(config)
            machines = cluster.add_machines("m", 7)
            cluster.add_machine("sink")
            # Stage in an order different from registration order.
            for machine in reversed(machines):
                machine.send("sink", "probe", machine.machine_id)
            cluster.exchange()
            inboxes[name] = [msg.payload for msg in cluster.machine("sink").inbox]
        assert inboxes[backend] == inboxes["reference"] == [f"m{i}" for i in range(7)]

    @pytest.mark.parametrize("backend", ["fast", "resident"])
    def test_discard_undelivered_clears_staged_state(self, backend):
        cluster = make_cluster(backend)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "x", 1)
        cluster.discard_undelivered()
        record = cluster.exchange()
        assert record.message_count == 0
        assert cluster.machine("b").inbox == []

    @pytest.mark.parametrize("backend", ["reference", "fast", "resident"])
    @pytest.mark.parametrize("fault", ["unknown-receiver", "over-cap"])
    def test_refused_round_keeps_every_staged_message(self, backend, fault):
        """A round the transport refuses is all-or-nothing: the *last* sender (in
        registration order) carries the fault, so every earlier sender has already been
        walked when the error is raised — none of them may have lost its outbox, and a
        corrected retry must deliver exactly the round the reference delivers."""

        def stage(name):
            config = DMPCConfig(capacity_n=32, capacity_m=64, backend=name)
            cluster = Cluster(config, enforce_io_cap=True)
            machines = cluster.add_machines("m", 5)
            cluster.add_machine("sink")
            for machine in machines:
                machine.send("sink", "probe", machine.machine_id)
                machine.send(machines[0].machine_id, "echo", None, words=2)
            return cluster, machines

        expected, machines = stage("reference")
        expected.exchange()

        cluster, machines = stage(backend)
        last = machines[-1]
        if fault == "unknown-receiver":
            bad, error = last.send("ghost", "ping", 1), UnknownMachineError
        else:
            bad, error = last.send("sink", "big", None, words=cluster.config.machine_memory + 1), MessageSizeExceeded
        staged = {machine.machine_id: list(machine.outbox) for machine in cluster.machines()}
        rounds_before = cluster.ledger.total_rounds()
        with pytest.raises(error):
            cluster.exchange()
        assert {machine.machine_id: machine.outbox for machine in cluster.machines()} == staged
        assert all(machine.inbox == [] for machine in cluster.machines())
        assert cluster.ledger.total_rounds() == rounds_before

        last.outbox.remove(bad)
        record = cluster.exchange()
        assert record.message_count == 10
        assert record.total_words == expected.ledger.updates[-1].rounds[-1].total_words
        for machine_id in ("sink", "m0"):
            assert cluster.machine(machine_id).inbox == expected.machine(machine_id).inbox
        assert all(machine.outbox == [] for machine in cluster.machines())
        assert cluster.exchange().message_count == 0

    @pytest.mark.parametrize("backend", ["fast", "resident"])
    def test_message_words_match_reference_sizer(self, backend):
        """The transport message sizer must charge exactly the reference words."""
        payloads = [None, 7, "tagged-payload", [1, 2, (3, 4)], {"k": [5, 6]}, {("a", 1): {2, 3}}]
        words = {}
        for name in ("reference", backend):
            cluster = make_cluster(name)
            a = cluster.add_machine("a")
            cluster.add_machine("b")
            staged = [a.send("b", "t", payload) for payload in payloads]
            words[name] = [msg.words for msg in staged]
        assert words[backend] == words["reference"]

    def test_resident_io_caps_still_enforced(self):
        cluster = make_cluster("resident", enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_resident_unknown_receiver_raises(self):
        cluster = make_cluster("resident")
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()


# ------------------------------------------------------------------ accounting
class TestAccountingPolicies:
    def run_rounds(self, backend: str):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)
        cluster = Cluster(config)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        records = []
        for i in range(4):
            a.send("b", "t", [i, i + 1])
            records.append(cluster.exchange())
            cluster.machine("b").drain()
        return cluster, records

    def test_fast_scalar_aggregates_match_reference(self):
        _, ref_records = self.run_rounds("reference")
        _, fast_records = self.run_rounds("fast")
        for ref, fast in zip(ref_records, fast_records):
            assert (ref.round_index, ref.active_machines, ref.total_words, ref.message_count, ref.max_message_words) == (
                fast.round_index,
                fast.active_machines,
                fast.total_words,
                fast.message_count,
                fast.max_message_words,
            )

    def test_fast_drops_pair_detail_by_default(self):
        cluster, records = self.run_rounds("fast")
        assert all(record.pair_words == {} for record in records)
        with pytest.raises(ProtocolError, match="per-pair breakdown"):
            cluster.ledger.communication_entropy()

    def test_reference_always_retains_pair_detail(self):
        cluster, records = self.run_rounds("reference")
        assert all(record.pair_words for record in records)
        assert cluster.ledger.communication_entropy() == 0.0  # one pair carries every word


# -------------------------------------------------------------- resident slots
def resident_slot_map(machines: int, *, slots: int, shard_count: "int | None" = None) -> list[int]:
    """Slot of every machine of a resident cluster, as the session's routing map has it."""
    config = DMPCConfig(capacity_n=32, capacity_m=64, backend="resident", resident_slots=slots, shard_count=shard_count)
    cluster = Cluster(config)
    cluster.add_machines("m", machines)
    with cluster.session({}) as session:
        assert session.slot_count == slots
        session._refresh_machine_info()
        return [session._machine_info[machine.machine_id][1] for machine in cluster.machines()]


class TestResidentSlots:
    @pytest.mark.parametrize("slots", [1, 2, 3, 4])
    def test_machine_i_runs_on_slot_i_mod_slots(self, slots):
        assert resident_slot_map(11, slots=slots) == [i % slots for i in range(11)]

    @pytest.mark.parametrize("slots", [1, 2])
    def test_same_map_as_the_shard_plan_at_four_shards(self, slots):
        """Until the shard plan left, machine ``i`` ran on slot ``(i % shard_count) % slots``;
        at ``shard_count=4`` (the benchmark's) that is the same slot for one or two slots."""
        shard_count = 4
        assert resident_slot_map(13, slots=slots, shard_count=shard_count) == [
            (i % shard_count) % slots for i in range(13)
        ]

    def test_slot_count_is_capped_by_shard_count(self):
        def slots(**kwargs) -> int:
            return ResidentBackend(DMPCConfig(capacity_n=32, capacity_m=64, **kwargs)).worker_slots

        assert slots(resident_slots=7) == 4  # the default cap
        assert slots(resident_slots=7, shard_count=7) == 7
        assert slots(resident_slots=2, shard_count=1) == 1
        assert 1 <= slots() <= max(1, min(4, os.cpu_count() or 1))
        assert 1 <= slots(shard_count=3) <= max(1, min(3, os.cpu_count() or 1))


class TestFusedAccountingParity:
    """The resident transport's delivered records must equal ``fast``'s."""

    def run_rounds(self, backend: str, *, enforce: bool = False):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)
        cluster = Cluster(config, enforce_io_cap=enforce)
        machines = cluster.add_machines("m", 5)
        records = []
        for i in range(6):
            for machine in machines[1:]:
                machine.send("m0", "t", [i, machine.index])
            records.append(cluster.exchange())
            cluster.machine("m0").drain()
        return records

    @pytest.mark.parametrize("enforce", [False, True])
    def test_records_identical_to_fast(self, enforce):
        fast_records = self.run_rounds("fast", enforce=enforce)
        resident_records = self.run_rounds("resident", enforce=enforce)
        assert resident_records == fast_records
        for fast_record, resident_record in zip(fast_records, resident_records):
            assert resident_record.pair_words == fast_record.pair_words == {}


# ---------------------------------------------------------- resident supersteps
class TestResidentSuperstep:
    """Programs in a resident session run in the slot workers; outside one, in the driver."""

    def make_cluster(self, backend: str = "resident", *, machines: int = 9) -> Cluster:
        config = DMPCConfig(capacity_n=64, capacity_m=128, backend=backend, resident_slots=2)
        cluster = Cluster(config)
        for i, machine in enumerate(cluster.add_machines("m", machines)):
            machine.store(("token", machine.machine_id), 10 * i)
        return cluster

    def run_probe(self, cluster: Cluster, *, session: bool = True) -> dict:
        shared = {"offset": 7, "results": {}}
        if session:
            with cluster.session(shared):
                cluster.superstep(TokenProbeProgram(), shared=shared)
        else:
            cluster.superstep(TokenProbeProgram(), shared=shared)
        return shared["results"]

    def assert_probe_observable(self, cluster: Cluster, results: dict) -> None:
        machines = cluster.machines()
        assert [results[m.machine_id][1] for m in machines] == [10 * i + 7 for i in range(len(machines))]
        inbox = cluster.machine("m0").drain("probe")
        # registration delivery order, identical to every in-process backend
        assert [msg.payload for msg in inbox] == [10 * i + 7 for i in range(1, len(machines))]

    def test_session_round_trip_crosses_process_boundary(self):
        cluster = self.make_cluster()
        results = self.run_probe(cluster)
        assert cluster.ledger.driver_round_trips > 0
        self.assert_probe_observable(cluster, results)
        assert os.getpid() not in {pid for pid, _ in results.values()}  # every run happened elsewhere

    def test_outside_a_session_runs_in_the_driver_like_fast(self):
        """Without a session ``resident`` is ``fast``: same round, same deltas, same inboxes."""
        rounds = {}
        for backend in ("fast", "resident"):
            cluster = self.make_cluster(backend)
            results = self.run_probe(cluster, session=False)
            assert {pid for pid, _ in results.values()} == {os.getpid()}  # never left the driver
            record = cluster.ledger.updates[-1].rounds[-1]
            rounds[backend] = (record, record.pair_words, results, [m.as_fields() for m in cluster.machine("m0").inbox])
            self.assert_probe_observable(cluster, results)
        assert rounds["resident"] == rounds["fast"]
        assert cluster.ledger.driver_round_trips == 0  # no session ever ran

    def test_outside_a_session_blocks_run_round_by_round(self):
        records = {}
        for backend in ("fast", "resident"):
            cluster = self.make_cluster(backend)
            shared = {"seen": {}}
            records[backend] = (
                cluster.superstep_block([ReportIndexProgram(), CollectInboxProgram()], shared=shared),
                shared,
            )
        assert records["resident"] == records["fast"]
        assert records["fast"][1]["seen"]["m0"] == list(range(1, 9))

    def test_matches_reference_backend_observables(self):
        outcomes = {}
        for backend in ("reference", "resident"):
            cluster = self.make_cluster(backend)
            shared = {"offset": 3, "results": {}}
            with cluster.session(shared):
                record = cluster.superstep(TokenProbeProgram(), shared=shared)
            outcomes[backend] = (
                record.message_count,
                record.total_words,
                record.active_machines,
                {mid: value for mid, (_, value) in shared["results"].items()},
            )
        assert outcomes["resident"] == outcomes["reference"]

    def test_session_inbox_delivery_order(self):
        """Messages routed between two slots arrive in registration order of their senders."""
        cluster = self.make_cluster()
        shared = {"seen": {}}
        with cluster.session(shared) as session:
            cluster.superstep(ReportIndexProgram(), shared=shared)
            cluster.superstep(CollectInboxProgram(), shared=shared)
            assert session.cross_slot_messages > 0
        assert shared["seen"]["m0"] == list(range(1, 9))

    def test_program_errors_propagate_from_the_lowest_slot(self):
        with pytest.raises(RuntimeError, match="boom-m1"):
            self.make_cluster("fast").superstep(ExplodingProgram())
        cluster = self.make_cluster()
        shared: dict = {}
        with cluster.session(shared) as session:
            with pytest.raises(RuntimeError, match="boom-m2"):  # slot 0 holds m2, slot 1 holds m1
                cluster.superstep(ExplodingProgram(), shared=shared)
            assert session._broken
        # the workers' pipes stay aligned: a fresh session on the same workers still runs
        self.assert_probe_observable(cluster, self.run_probe(cluster))

    def test_env_var_selection_round_trip(self, monkeypatch):
        """REPRO_BACKEND=resident: resolution, construction and a session run."""
        monkeypatch.setenv("REPRO_BACKEND", "resident")
        config = DMPCConfig(capacity_n=64, capacity_m=128, resident_slots=2)
        assert resolve_backend(None, config).name == "resident"
        cluster = Cluster(config)
        assert isinstance(cluster.backend, ResidentBackend)
        for i, machine in enumerate(cluster.add_machines("m", 9)):
            machine.store(("token", machine.machine_id), 10 * i)
        results = self.run_probe(cluster)
        assert os.getpid() not in {pid for pid, _ in results.values()}
        self.assert_probe_observable(cluster, results)

    def test_undeclared_shared_read_is_a_loud_error(self):
        cluster = self.make_cluster()
        shared = {"offset": 1}
        with cluster.session(shared):
            with pytest.raises(KeyError, match="missing-key"):
                cluster.superstep(UndeclaredReadProgram(), shared=shared)

    def test_store_blobs_memoised_until_version_bump(self):
        cluster = self.make_cluster()
        backend = cluster.backend
        machine = cluster.machine("m0")
        blob = backend._store_blob(machine, ("token",))
        assert backend._store_blob(machine, ("token",)) is blob  # cached bytes reused
        machine.store(("token", "m0"), 999)
        fresh = backend._store_blob(machine, ("token",))
        assert fresh is not blob


class RunningTotalProgram(SuperstepProgram):
    """Each machine adds its index and inbox size to its running total and reports it to ``m0``."""

    shared_reads = ("totals",)

    def run(self, ctx, inbox, shared):
        total = shared["totals"].get(ctx.machine_id, 0) + int(ctx.machine_id[1:]) + len(inbox)
        ctx.send("m0", "total", total)
        return total

    def apply(self, shared, machine_id, delta):
        shared["totals"][machine_id] = delta


class _ScriptedPipe:
    """A worker connection that serves scripted requests, then EOF."""

    def __init__(self, requests) -> None:
        self.requests = [encode_obj(request) for request in requests]
        self.replies: list = []

    def recv_bytes(self) -> bytes:
        if not self.requests:
            raise EOFError
        return self.requests.pop(0)

    def send_bytes(self, blob: bytes) -> None:
        self.replies.append(decode_obj(blob))


def _program_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _program_classes(sub)


class TestOneRoundProtocol:
    """Every resident superstep is a ``run_block`` of K >= 1 rounds; nothing else runs a round."""

    def test_worker_has_no_round_op(self):
        pipe = _ScriptedPipe([("round", "s"), ("sessions",)])
        _worker_main(pipe)
        (status, error), listed = pipe.replies
        assert status == "err" and isinstance(error, KeyError) and error.args == ("round",)
        assert listed == ("ok", [])

    def test_a_superstep_is_one_single_round_block_per_slot(self, monkeypatch):
        sent: list = []
        request = resident_mod._SlotWorker.request

        def spy(worker, op):
            sent.append((worker.index, op))
            return request(worker, op)

        monkeypatch.setattr(resident_mod._SlotWorker, "request", spy)
        cluster = TestResidentSuperstep().make_cluster()
        shared = {"offset": 7, "results": {}}
        with cluster.session(shared):
            cluster.superstep(TokenProbeProgram(), shared=shared)
        blocks = [(index, op[-1]) for index, op in sent if op[0] == "run_block"]
        assert sorted(index for index, _ in blocks) == [0, 1]
        assert [len(block["rounds"]) for _, block in blocks] == [1, 1]
        assert {op[0] for _, op in sent} <= {"open", "attach_shm", "run_block", "flush", "close"}

    def test_driver_local_is_gone_and_driver_reads_sends_is_a_bool(self):
        import repro.static_mpc  # noqa: F401 - defines the library's programs

        assert not hasattr(SuperstepProgram, "driver_local")
        assert SuperstepProgram.driver_reads_sends is True
        library = [c for c in _program_classes(SuperstepProgram) if c.__module__.startswith("repro.")]
        assert len(library) >= 5
        for program in library:
            assert type(program.driver_reads_sends) is bool, program

    def test_driver_staged_sends_run_the_round_in_the_driver(self):
        """A driver-side send staged before a round keeps that round in the driver,
        equal to ``fast``'s; the next round goes back to the workers."""
        outcomes = {}
        for backend in ("fast", "resident"):
            cluster = TestResidentSuperstep().make_cluster(backend)
            shared = {"offset": 7, "results": {}, "seen": {}}
            with cluster.session(shared) as session:
                cluster.machine("m3").send("m0", "probe", -1)
                first = cluster.superstep(TokenProbeProgram(), shared=shared)
                second = cluster.superstep(CollectInboxProgram(), shared=shared)
            outcomes[backend] = (first, second, {m: value for m, (_, value) in shared["results"].items()}, shared["seen"])
            if backend == "resident":
                assert {pid for pid, _ in shared["results"].values()} == {os.getpid()}
                assert cluster.ledger.driver_round_trips == 1
                assert session.worker_rounds == 1
        assert outcomes["resident"] == outcomes["fast"]
        assert -1 in outcomes["fast"][3]["m0"]  # the staged send was delivered

    def test_a_driver_round_replays_its_deltas_on_the_workers(self):
        """A round kept in the driver by a staged send writes shared state the
        workers already hold; the next (worker-routed) round reads worker
        copies that replayed those deltas, equal to ``fast``'s."""
        outcomes = {}
        for backend in ("fast", "resident"):
            cluster = TestResidentSuperstep().make_cluster(backend)
            program = RunningTotalProgram()
            shared: dict = {"totals": {}}
            with cluster.session(shared) as session:
                records = [cluster.superstep(program, shared=shared)]
                cluster.machine("m3").send("m0", "probe", -1)
                records.append(cluster.superstep(program, shared=shared))
                records.append(cluster.superstep(program, shared=shared))
            outcomes[backend] = (
                records,
                dict(shared["totals"]),
                [m.as_fields() for m in cluster.machine("m0").drain()],
            )
            if backend == "resident":
                # rounds one and three are worker blocks; round two stays in the driver
                assert cluster.ledger.driver_round_trips == 2
                assert session.worker_rounds == 2
        assert outcomes["resident"] == outcomes["fast"]
        # three rounds of each index, plus m0's inboxes: nine reports, then
        # nine reports and the staged probe
        assert outcomes["fast"][1] == {f"m{i}": 3 * i for i in range(1, 9)} | {"m0": 9 + 10}


# ------------------------------------------------------------------ resolution
class TestBackendResolution:
    def test_registry_is_exactly_three_backends(self):
        assert set(BACKENDS) == {"reference", "fast", "resident"}

    @pytest.mark.parametrize("name", ["sharded", "parallel", "process"])
    @pytest.mark.parametrize("via", ["argument", "config", "env"])
    def test_removed_backends_are_unknown(self, monkeypatch, name, via):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend=name if via == "config" else None)
        if via == "env":
            monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(ValueError, match=rf"unknown execution backend '{name}'") as raised:
            Cluster(config, backend=name if via == "argument" else None)
        assert "(known backends: fast, reference, resident)" in str(raised.value)

    def test_config_selects_backend(self):
        assert make_cluster("fast").backend.name == "fast"
        assert make_cluster("reference").backend.name == "reference"

    def test_explicit_argument_beats_config(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="reference")
        assert Cluster(config, backend="fast").backend.name == "fast"

    def test_backend_instance_passthrough(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        backend = FastBackend(config)
        assert Cluster(config, backend=backend).backend is backend

    def test_env_var_fallback(self, monkeypatch):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend(None, config).name == "fast"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None, config).name == "reference"

    def test_config_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="reference")
        assert resolve_backend(None, config).name == "reference"

    def test_unknown_backend_rejected(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="warp")
        with pytest.raises(ValueError, match="unknown execution backend"):
            Cluster(config)


# ---------------------------------------------------------------- removed knobs
#: the four ``DMPCConfig`` fields that existed only for the shard-plan backends, and the
#: pair-detail stride that per-pair detail being a transport constant made meaningless
REMOVED_FIELDS = ("shard_strategy", "max_workers", "process_chunk_machines", "replan_every", "metrics_sampling")


def _ledgers():
    return [MetricsLedger()]


def _backends():
    config = DMPCConfig(capacity_n=32, capacity_m=64)
    return [ReferenceBackend(config), FastBackend(config), ResidentBackend(config)]


def _transports():
    return [Cluster(DMPCConfig(capacity_n=32, capacity_m=64, backend=backend))._transport for backend in BACKENDS]


def _algorithms():
    from repro.dynamic_mpc import DMPCConnectivity

    return [DMPCConnectivity(DMPCConfig.for_graph(8, 16), coalesce=True)]


#: the run-time choice of which rounds keep per-pair detail, now a transport constant, and the
#: ``last_*`` attribute that ``normalize_batch`` and ``coalesce_totals`` replaced
REMOVED_ACCOUNTING = [
    pytest.param(owners, name, id=f"{owners.__name__[1:]}.{name}")
    for owners, names in (
        (_ledgers, ("round_record_factory", "install_round_record_factory", "record_policy", "append_round", "replay_update")),
        (_backends, ("round_record_factory", "accounting_policy_name", "guarantees")),
        (_transports, ("pair_detail_every",)),
        (_algorithms, ("last_coalesce_stats",)),
    )
    for name in names
]


class TestRemovedKnobs:
    def test_config_has_eight_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(DMPCConfig)] == [
            "capacity_n",
            "capacity_m",
            "memory_slack",
            "strict_memory",
            "backend",
            "shard_count",
            "resident_slots",
            "resident_shm_ring_bytes",
        ]

    def test_shared_ledgers_and_record_factories_are_gone(self):
        """A cluster builds its own ledger, and a ledger condenses message lists one way."""
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        with pytest.raises(TypeError, match="ledger"):
            Cluster(config, ledger=MetricsLedger())
        with pytest.raises(TypeError, match="round_record_factory"):
            MetricsLedger(round_record_factory=RoundRecord.from_messages)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_cluster_files_into_its_own_ledger(self, backend):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)
        first, second = Cluster(config), Cluster(config)
        assert first.ledger is not second.ledger
        for cluster, rounds in ((first, 2), (second, 1)):
            a = cluster.add_machine("a")
            cluster.add_machine("b")
            for i in range(rounds):
                a.send("b", "t", i)
                cluster.exchange()
        assert (first.ledger.next_round_index, second.ledger.next_round_index) == (3, 2)
        (record,) = second.ledger.updates[-1].rounds
        assert record.round_index == 1
        assert bool(record.pair_words) is type(second._transport).pair_detail

    @pytest.mark.parametrize(("owners", "name"), REMOVED_ACCOUNTING)
    def test_a_removed_accounting_attribute_is_gone(self, owners, name):
        for owner in owners():
            assert not hasattr(owner, name), type(owner).__name__

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_config_refuses_a_removed_field(self, field):
        with pytest.raises(TypeError, match=field):
            DMPCConfig(capacity_n=32, capacity_m=64, **{field: 2})

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_for_graph_refuses_a_removed_field(self, field):
        with pytest.raises(TypeError, match=field):
            DMPCConfig.for_graph(32, 64, **{field: 2})

    @pytest.mark.parametrize("entry", ["build_static_cluster", "StaticConnectedComponents", "StaticMaximalMatching", "StaticBoruvkaMST"])
    def test_static_entry_points_refuse_the_removed_fields(self, entry):
        import repro.static_mpc as static_mpc
        from repro.graph.generators import gnm_random_graph
        from repro.static_mpc.common import build_static_cluster

        make = build_static_cluster if entry == "build_static_cluster" else getattr(static_mpc, entry)
        graph = gnm_random_graph(8, 12, seed=1)
        for field in REMOVED_FIELDS:
            with pytest.raises(TypeError, match=field):
                make(graph, **{field: 2})


class TestRemovedModules:
    """The shard-plan backends, their placement hash and live re-planning are gone, not stubbed."""

    @pytest.mark.parametrize("module", ["sharding", "parallel", "process"])
    def test_backend_module_is_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.runtime.{module}")

    def test_rendezvous_placement_is_gone(self):
        import repro.mpc
        import repro.mpc.partition

        assert not hasattr(repro.mpc, "rendezvous_shard")
        assert not hasattr(repro.mpc.partition, "rendezvous_shard")

    @pytest.mark.parametrize(
        "owner,attribute",
        [
            ("cluster", "replan"),
            ("cluster", "autotune_replan"),
            ("cluster", "replan_history"),
            ("backend", "replan"),
            ("session", "migrate"),
            ("session", "last_migration"),
            ("session", "pending_autotune"),
        ],
    )
    def test_live_replanning_is_gone(self, owner, attribute):
        cluster = make_cluster("resident")
        with cluster.session({}) as session:
            assert not hasattr({"cluster": cluster, "backend": cluster.backend, "session": session}[owner], attribute)

