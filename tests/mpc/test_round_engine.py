"""The round engine: one delivery pass, slotted records, O(1) storage and drain.

``Transport.deliver`` is the only place staged messages move, so the three
backends must agree on every inbox and every record field whatever a round
carries, and refuse a bad round without moving anything.  Per-pair detail
is a constant of the transport: every round on ``reference``, none on
``fast`` / ``resident``.  A round the resident workers
routed among themselves reaches the driver as a deposit of per-slot round
summaries instead, and must become the very round ``deliver`` makes of
the same messages.  Around it: ``RoundRecord`` as a value class,
``CachedStorage`` charging exactly what ``ReferenceStorage`` charges,
``Machine.drain(tag)`` in one walk.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import MachineMemoryExceeded, MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, Machine, Message, MetricsLedger, RoundRecord, UpdateRecord
from repro.mpc.layout import FrozenChargeHandle, StatsTable
from repro.runtime import CachedStorage, ReferenceStorage
from repro.runtime.resident import _commit_frames, _SessionState

BACKENDS = ("reference", "fast", "resident")
MACHINES = 41
COSTS = ("round_index", "active_machines", "total_words", "message_count", "max_message_words")


def make_cluster(backend: str, *, enforce: bool = False, machines: int = MACHINES) -> Cluster:
    config = DMPCConfig(capacity_n=64, capacity_m=128, backend=backend)
    cluster = Cluster(config, enforce_io_cap=enforce)
    cluster.add_machines("m", machines)
    return cluster


def mailboxes(cluster: Cluster, box: str) -> dict[str, list[tuple]]:
    return {m.machine_id: [msg.as_fields() for msg in getattr(m, box)] for m in cluster.machines()}


def staged_ids(cluster: Cluster) -> set[str]:
    """Ids in the transport's staged-sender set (the reference transport keeps none)."""
    return {machine.machine_id for machine in getattr(cluster._transport, "_staged", ())}


# one send: (sender, receiver, words or None for "let the transport size the payload")
SENDS = st.tuples(st.integers(0, MACHINES - 1), st.integers(0, MACHINES - 1), st.one_of(st.none(), st.integers(1, 6)))
#: a fan-out: one sender, several receivers, staged through ``send_many``
FAN_OUTS = st.tuples(st.integers(0, MACHINES - 1), st.lists(st.integers(0, MACHINES - 1), min_size=2, max_size=8))
ROUNDS = st.lists(st.lists(st.one_of(SENDS, FAN_OUTS), max_size=60), min_size=4, max_size=7)


def stage(cluster: Cluster, sends) -> None:
    """Stage one round of ``SENDS`` / ``FAN_OUTS`` on ``cluster``."""
    ids = cluster.machine_ids()
    for send in sends:
        if len(send) == 3:
            sender, receiver, words = send
            cluster.machine(ids[sender]).send(ids[receiver], f"t{receiver % 3}", [sender, receiver], words=words)
        else:
            sender, receivers = send
            cluster.machine(ids[sender]).send_many("fan", [(ids[r], (sender, r), 4) for r in receivers])


def play(cluster: Cluster, rounds) -> tuple[list[RoundRecord], list[dict]]:
    """Stage and exchange ``rounds``; inboxes are snapshotted, then drained, every other round."""
    records, inboxes = [], []
    for number, sends in enumerate(rounds):
        stage(cluster, sends)
        records.append(cluster.exchange())
        inboxes.append(mailboxes(cluster, "inbox"))
        if number % 2:
            for machine in cluster.machines():
                machine.drain()
    return records, inboxes


class TestOnePassEverywhere:
    @settings(max_examples=25, deadline=None)
    @given(rounds=ROUNDS)
    @pytest.mark.parametrize("enforce", [False, True])
    def test_same_inboxes_and_records_on_every_backend(self, enforce, rounds):
        expected_records, expected_inboxes = play(make_cluster("reference", enforce=enforce), rounds)
        assert len({r.round_index for r in expected_records}) == len(rounds)
        for backend in ("fast", "resident"):
            records, inboxes = play(make_cluster(backend, enforce=enforce), rounds)
            assert inboxes == expected_inboxes  # arrival order included
            for record, expected in zip(records, expected_records):
                assert [getattr(record, name) for name in COSTS] == [getattr(expected, name) for name in COSTS]
                assert sum(expected.pair_words.values()) == expected.total_words  # the reference keeps every pair
                assert record.pair_words == {}

    @pytest.mark.parametrize(("backend", "detail"), [("reference", True), ("fast", False), ("resident", False)])
    def test_pair_detail_is_a_constant_of_the_transport(self, backend, detail):
        transport = make_cluster(backend, machines=2)._transport
        assert type(transport).pair_detail is detail
        with pytest.raises(AttributeError):
            transport.pair_detail = not detail  # no per-instance override


class TestEntropyNeedsPairDetail:
    """``communication_entropy`` measures the pairs of every selected round, or refuses to measure."""

    SENDS = (("m0", "m1", 3), ("m2", "m1", 1), ("m0", "m3", 4))

    def exchange_rounds(self, backend: str) -> Cluster:
        cluster = make_cluster(backend, machines=4)
        cluster.ledger.begin_update("u")
        for sender, receiver, words in self.SENDS:
            cluster.machine(sender).send(receiver, "t", None, words=words)
            cluster.exchange()
        cluster.ledger.end_update()
        return cluster

    @pytest.mark.parametrize("backend", ["fast", "resident"])
    def test_refused_over_rounds_without_a_breakdown(self, backend):
        ledger = self.exchange_rounds(backend).ledger
        for prefix in (None, "u"):
            with pytest.raises(ProtocolError, match="round 1 carried words but kept no per-pair breakdown"):
                ledger.communication_entropy(prefix)
        assert ledger.summary().total_words == 8  # the costs themselves are all there

    def test_reference_measures_the_delivered_pairs(self):
        ledger = self.exchange_rounds("reference").ledger
        recorded = MetricsLedger()
        recorded.begin_update("u")
        for sender, receiver, words in self.SENDS:
            recorded.record_round([Message(sender, receiver, "t", None, words)])
        recorded.end_update()
        expected = -sum(p * math.log2(p) for p in (3 / 8, 1 / 8, 4 / 8))
        assert ledger.communication_entropy("u") == recorded.communication_entropy("u") == pytest.approx(expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wordless_rounds_never_refuse(self, backend):
        cluster = make_cluster(backend, machines=2)
        records = [cluster.exchange(), cluster.exchange()]
        assert [record.total_words for record in records] == [0, 0]
        assert cluster.ledger.communication_entropy() == 0.0


class TestRefusedRounds:
    """Unknown receiver, then send cap, then receive cap; nothing moves, nothing is counted."""

    def stage(self, backend: str, fault: str):
        cluster = make_cluster(backend, enforce=True, machines=6)
        cap = cluster.config.machine_memory
        m = cluster.machines()
        m[1].send("m0", "old", "left over from an earlier round")
        cluster.exchange()
        for sender in m[1:5]:
            sender.send("m0", "probe", sender.machine_id, words=3)
            sender.send("m5", "probe", None, words=2)
        if fault == "unknown-receiver":
            bad = [m[4].send("ghost", "ping", 1), m[2].send("m5", "big", None, words=cap + 1)]
            error = (UnknownMachineError, None)
        elif fault == "over-cap-sender":
            # under the cap per message and per receiver, over it for the sender; m3 (a later
            # sender) also breaks the receive cap of m1: the send cap is checked first
            bad = [m[2].send("m3", "half", None, words=cap // 2), m[2].send("m4", "half", None, words=cap // 2)]
            bad += [m[3].send("m1", "big", None, words=cap - 5), m[4].send("m1", "big", None, words=cap - 5)]
            error = (MessageSizeExceeded, ("m2", "send", 2 * (cap // 2) + 5, cap))
        else:
            # every sender under the cap, their sum at m5 over it
            bad = [s.send("m5", "third", None, words=cap // 3) for s in m[1:5]]
            error = (MessageSizeExceeded, ("m5", "receive", 4 * (cap // 3) + 8, cap))
        return cluster, bad, error

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", ["unknown-receiver", "over-cap-sender", "over-cap-receiver"])
    def test_nothing_moves_and_the_corrected_round_delivers(self, backend, fault):
        cluster, bad, (error, fields) = self.stage(backend, fault)
        before = (mailboxes(cluster, "outbox"), mailboxes(cluster, "inbox"), staged_ids(cluster))
        index, rounds = cluster.ledger.next_round_index, cluster.ledger.total_rounds()
        with pytest.raises(error) as raised:
            cluster.exchange()
        if fields is not None:
            refusal = raised.value
            assert (refusal.machine_id, refusal.direction, refusal.words, refusal.capacity) == fields
        assert (mailboxes(cluster, "outbox"), mailboxes(cluster, "inbox"), staged_ids(cluster)) == before
        assert (cluster.ledger.next_round_index, cluster.ledger.total_rounds()) == (index, rounds)

        for message in bad:
            cluster.machine(message.sender).outbox.remove(message)
        record = cluster.exchange()
        assert (record.round_index, record.message_count, record.total_words) == (index, 8, 20)
        assert [m.payload for m in cluster.machine("m0").inbox] == [
            "left over from an earlier round", "m1", "m2", "m3", "m4"
        ]  # fmt: skip
        assert all(machine.outbox == [] for machine in cluster.machines())
        assert not staged_ids(cluster)
        assert cluster.exchange().message_count == 0


TRAFFIC = {"local_messages": 3, "cross_slot_messages": 2, "shm_bytes": 120, "pipe_fallbacks": 1}


def deposit_staged(cluster: Cluster, *, fallback=(), traffic=None, slots: int = 2) -> None:
    """Move the staged round off the outboxes into a deposit, as a resident session hands it over.

    The outboxes go through the workers' own commit, machine ``i`` on slot ``i % slots``, so the
    deposit carries one round summary per slot — totals, senders and receivers, per-machine loads
    under the I/O cap — and a message to a machine outside the
    routing map comes along as a fallback frame.  No rings are attached: cross-slot bodies stay away.
    """
    transport = cluster._transport
    index = cluster.ledger.next_round_index
    routing = {m.machine_id: (m.index, m.index % slots) for m in cluster.machines()}
    summaries, frames = [], list(fallback)
    for slot in range(slots):
        state = _SessionState()
        state.machine_slots = routing
        staged = [(m.index, m.outbox) for m in cluster.machines() if m.index % slots == slot]
        summary, _, _, slot_frames = _commit_frames(state, staged, index, slot, cluster.enforce_io_cap)
        summaries.append(summary)
        frames += slot_frames
    for machine in cluster.machines():
        machine.outbox = []
    transport._staged.clear()
    traffic = dict.fromkeys(TRAFFIC, 0) if traffic is None else traffic
    frames.sort(key=lambda frame: frame[:3])
    transport.deposit_worker_round({"summaries": summaries, "fallback": frames, "traffic": traffic})


class TestDepositedRounds:
    """``ResidentTransport`` turns a deposit into the round ``deliver`` makes of the same messages."""

    @settings(max_examples=25, deadline=None)
    @given(rounds=ROUNDS)
    @pytest.mark.parametrize("slots", [1, 2, 3])
    def test_a_deposit_records_the_delivered_round(self, slots, rounds):
        """Whatever the slot count, the per-slot summaries merge into the one delivered round."""
        delivered = make_cluster("resident")
        deposited = make_cluster("resident")
        for sends in rounds:
            stage(delivered, sends)
            expected = delivered.exchange()
            stage(deposited, sends)
            deposit_staged(deposited, slots=slots)
            record = deposited.exchange()
            assert [getattr(record, name) for name in COSTS] == [getattr(expected, name) for name in COSTS]
            assert record.pair_words == expected.pair_words
        assert all(machine.inbox == [] for machine in deposited.machines())  # the bodies stayed away

    @pytest.mark.parametrize("fault", ["unknown-receiver", "over-cap-sender", "over-cap-receiver"])
    def test_a_deposit_is_refused_like_the_round_it_stands_for(self, fault):
        delivered, _, (error, _) = TestRefusedRounds().stage("resident", fault)
        with pytest.raises(error) as expected:
            delivered.exchange()
        cluster, _, _ = TestRefusedRounds().stage("resident", fault)
        index, inboxes = cluster.ledger.next_round_index, mailboxes(cluster, "inbox")
        deposit_staged(cluster, fallback=[(index, 0, 0, "m1", "m0", "late", None, 2)])
        with pytest.raises(error) as raised:
            cluster.exchange()
        assert str(raised.value) == str(expected.value)
        if error is MessageSizeExceeded:
            fields = ("machine_id", "direction", "words", "capacity")
            assert [getattr(raised.value, f) for f in fields] == [getattr(expected.value, f) for f in fields]
        # nothing recorded, not even the fallback frame delivered
        assert (cluster.ledger.next_round_index, mailboxes(cluster, "inbox")) == (index, inboxes)

    def test_fallback_frames_and_traffic_reach_the_driver(self):
        """Frames no worker could hold (their receiver is outside the worker map) land in
        driver inboxes in the order given; the wire counters land on the round."""
        cluster = make_cluster("resident", machines=4)
        cluster.machine("m1").send("m0", "t", "kept", words=2)
        cluster.machine("m2").send("m0", "u", [7], words=3)
        frames = [(1, 1, 0, "m1", "m0", "t", "kept", 2), (1, 2, 0, "m2", "m0", "u", [7], 3)]
        deposit_staged(cluster, fallback=frames, traffic=dict(TRAFFIC))
        record = cluster.exchange()
        assert (record.message_count, record.total_words, record.active_machines) == (2, 5, 3)
        assert [m.as_fields() for m in cluster.machine("m0").inbox] == [
            ("m1", "m0", "t", "kept", 2),
            ("m2", "m0", "u", [7], 3),
        ]
        assert cluster.ledger.traffic_totals() == TRAFFIC

    def test_deposits_queue_first_in_first_out(self):
        cluster = make_cluster("resident", machines=4)
        for words in (2, 5):
            cluster.machine("m1").send("m3", "t", None, words=words)
            deposit_staged(cluster)
        first, second = cluster.exchange(), cluster.exchange()
        assert (first.round_index, first.total_words) == (1, 2)
        assert (second.round_index, second.total_words) == (2, 5)
        assert cluster.exchange().message_count == 0  # then back to the staged-sender path

    def test_discard_undelivered_drops_pending_deposits(self):
        cluster = make_cluster("resident", machines=4)
        cluster.machine("m1").send("m3", "t", None, words=2)
        deposit_staged(cluster)
        cluster.discard_undelivered()
        assert cluster.exchange().message_count == 0

    def test_refused_while_driver_messages_are_staged(self):
        cluster = make_cluster("resident", machines=4)
        deposit_staged(cluster)
        cluster.machine("m1").send("m3", "t", None, words=2)
        with pytest.raises(ProtocolError, match="driver-side messages are staged"):
            cluster.exchange()


class TestRecords:
    def record(self, **changes) -> RoundRecord:
        fields = dict(round_index=3, active_machines=2, total_words=9, message_count=2, max_message_words=5)
        return RoundRecord(**{**fields, **changes})

    def test_round_record_is_a_value_without_a_dict(self):
        plain, detailed = self.record(), self.record(pair_words={("a", "b"): 9})
        assert plain == detailed and hash(plain) == hash(detailed)  # pair detail is not identity
        assert plain.pair_words == {} and plain.pair_words is not self.record().pair_words
        assert len({plain, detailed, self.record(total_words=10)}) == 2
        for name in COSTS:
            assert plain != self.record(**{name: 99})
        assert plain != (3, 2, 9, 2, 5)
        assert not hasattr(plain, "__dict__")
        with pytest.raises(AttributeError):
            plain.label = "no new attributes"
        assert "total_words=9" in repr(plain) and "('a', 'b'): 9" in repr(detailed)

    def test_records_pickle(self):
        detailed = self.record(pair_words={("a", "b"): 9})
        clone = pickle.loads(pickle.dumps(detailed))
        assert clone == detailed and clone.pair_words == {("a", "b"): 9}
        update = UpdateRecord("insert", [detailed, self.record(round_index=4)], batch_id=2)
        clone = pickle.loads(pickle.dumps(update))
        assert clone == update and not hasattr(clone, "__dict__")
        assert (clone.num_rounds, clone.total_words, clone.max_active_machines) == (2, 18, 2)
        assert clone != UpdateRecord("insert", [detailed], batch_id=2)
        with pytest.raises(TypeError):
            hash(update)  # mutable, compared by value

    def test_from_messages_keeps_the_pair_breakdown(self):
        messages = [Message("a", "b", "t", 1, 4), Message("a", "b", "t", 2, 5), Message("c", "a", "t", 3, 1)]
        full = RoundRecord.from_messages(7, messages)
        assert full == RoundRecord(7, 3, 10, 3, 5)
        assert full.pair_words == {("a", "b"): 9, ("c", "a"): 1}

    def test_record_round_and_file_round_share_one_counter(self):
        ledger = MetricsLedger()
        recorded = ledger.record_round([Message("a", "b", "t", None, 2)])
        delivered = ledger.file_round(None, 1, 3, 1, 3)
        again = ledger.record_round([])
        assert [recorded.round_index, delivered.round_index, again.round_index] == [1, 2, 3]
        assert ledger.next_round_index == 4
        ledger.file_round(9, 0, 0, 0, 0)  # a record filed under the index it carries leaves the counter
        assert ledger.next_round_index == 4
        # each round outside an update is an anonymous update of its own
        assert [[r.round_index for r in u.rounds] for u in ledger.updates] == [[1], [2], [3], [9]]
        assert [u.label for u in ledger.updates] == ["<unlabelled>"] * 4

# ------------------------------------------------------------------- storage
_TABLE = StatsTable(0, 4)
KEYS = st.sampled_from(
    [("adj", 3), ("adj", 4), ("status", 3), ("status", 12345), "stats", "a-tag-longer-than-a-word", 7, 1, 1.0, True]
)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.dictionaries(st.integers(0, 9), st.booleans(), max_size=6),
    st.lists(st.tuples(st.integers(), st.text(max_size=9)), max_size=4),
    st.builds(FrozenChargeHandle, st.just(_TABLE)),
)
OPS = st.one_of(
    st.tuples(st.just("store"), KEYS, VALUES),
    st.tuples(st.just("restore"), KEYS),  # the same object again: sized by neither side
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("clear")),
)


class TestCachedStorageParity:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(OPS, max_size=40))
    def test_used_words_equal_the_reference_after_every_operation(self, ops):
        cached = CachedStorage("m", 10**6, strict=False)
        reference = ReferenceStorage("m", 10**6, strict=False)
        for op in ops:
            if op[0] == "store":
                cached.store(op[1], op[2])
                reference.store(op[1], op[2])
            elif op[0] == "restore":
                value = cached.load(op[1])
                assert value is reference.load(op[1])
                if value is None and op[1] not in cached:
                    continue
                cached.store(op[1], value)
                reference.store(op[1], value)
            elif op[0] == "delete":
                cached.delete(op[1])
                reference.delete(op[1])
            else:
                cached.clear()
                reference.clear()
            assert cached.used_words == reference.used_words
            assert dict(cached.items()) == dict(reference.items()) and len(cached) == len(reference)
        cached.clear()
        assert cached.used_words == 0 and cached._sizes == {}

    def test_equal_keys_share_one_entry_and_one_charge(self):
        """``1``, ``1.0`` and ``True`` are one dict key (and one word each)."""
        cached, reference = CachedStorage("m", 100, strict=False), ReferenceStorage("m", 100, strict=False)
        for key, value in [(1, "a"), (1.0, [1, 2]), (True, None), (("adj", 1), {}), (("adj", True), {2: False})]:
            cached.store(key, value)
            reference.store(key, value)
            assert cached.used_words == reference.used_words
        assert len(cached) == len(reference) == 2
        cached.delete(1.0)
        reference.delete(1.0)
        assert cached.used_words == reference.used_words == 3 + 3

    @pytest.mark.parametrize("storage_cls", [CachedStorage, ReferenceStorage])
    def test_strict_memory_refuses_at_the_offending_store(self, storage_cls):
        storage = storage_cls("m", 20, strict=True)
        storage.store(("adj", 1), {2: True, 3: True})  # 3 + 5
        storage.store(("status", 2), 7)  # 3 + 1
        assert storage.used_words == 12
        with pytest.raises(MachineMemoryExceeded) as raised:
            storage.store(("adj", 1), {k: True for k in range(2, 9)})  # 3 + 15 replaces 8: 22 > 20
        assert (raised.value.used, raised.value.capacity, raised.value.requested) == (4, 20, 18)
        with pytest.raises(MachineMemoryExceeded) as raised:
            storage.store("fresh-key", list(range(7)))  # 2 + 8 on top of 12
        assert (raised.value.used, raised.value.capacity, raised.value.requested) == (12, 20, 10)
        # a refused store changed nothing, not even for a key seen for the first time
        assert storage.used_words == 12 and "fresh-key" not in storage and len(storage) == 2
        assert storage.load(("adj", 1)) == {2: True, 3: True}
        storage.store("fresh-key", [1, 2, 3, 4, 5])  # 2 + 6: exactly the capacity
        assert storage.used_words == 20


# ----------------------------------------------------------- one-sender rounds
def count_notes(monkeypatch, cluster: Cluster) -> list:
    """Record every staging notification the cluster's transport receives (the sender each time)."""
    transport = cluster._transport
    notes: list = []
    noted = transport.note_staged

    def note(machine):
        notes.append(machine.machine_id)
        noted(machine)

    if "note_staged" in getattr(type(transport), "__slots__", ()):
        monkeypatch.setattr(transport, "note_staged", note)  # the fast transport's set.add
    else:
        monkeypatch.setattr(type(transport), "note_staged", lambda _self, machine: note(machine))
    return notes


class TestOneSenderRounds:
    """The light rounds of the matching protocol: one sender, one or a few messages."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_drain_of_another_tag_keeps_a_lone_message(self, backend):
        cluster = make_cluster(backend, machines=2)
        cluster.machine("m0").send("m1", "a", 1, words=2)
        cluster.exchange()
        receiver = cluster.machine("m1")
        inbox = receiver.inbox
        assert receiver.drain("b") == []
        assert receiver.inbox is inbox and [m.payload for m in inbox] == [1]
        drained = receiver.drain("a")
        assert drained is inbox and [m.payload for m in drained] == [1]  # the inbox itself, handed over
        assert receiver.inbox == [] and receiver.inbox is not drained

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_a_mixed_inbox_keeps_its_order(self, backend):
        cluster = make_cluster(backend, machines=2)
        sender, receiver = cluster.machine("m0"), cluster.machine("m1")
        for number, tag in enumerate("abaab"):
            sender.send("m1", tag, number, words=1)
        cluster.exchange()
        assert [m.payload for m in receiver.drain("a")] == [0, 2, 3]
        assert [(m.tag, m.payload) for m in receiver.inbox] == [("b", 1), ("b", 4)]
        assert [m.payload for m in receiver.drain("b")] == [1, 4] and receiver.inbox == []

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_a_sender_is_noted_once_and_delivered_in_staging_order(self, backend, monkeypatch):
        cluster = make_cluster(backend, machines=3)
        notes = count_notes(monkeypatch, cluster)
        sender = cluster.machine("m1")
        sender.send("m0", "t", "first", words=2)
        sender.send("m2", "t", "second", words=3)
        sender.send_many("fan", [("m0", "third", 1), ("m2", "fourth", 1)])
        sender.send("m0", "t", "fifth", words=4)
        assert notes == ["m1"]
        record = cluster.exchange()
        assert [m.payload for m in cluster.machine("m0").inbox] == ["first", "third", "fifth"]
        assert [m.payload for m in cluster.machine("m2").inbox] == ["second", "fourth"]
        assert (record.active_machines, record.message_count, record.total_words, record.max_message_words) == (3, 5, 11, 4)
        sender.send("m0", "t", "next round", words=1)
        assert notes == ["m1", "m1"]  # noted again: its outbox was emptied by the delivery

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_one_sender_round_records_what_from_messages_makes_of_it(self, backend):
        cluster = make_cluster(backend, machines=4)
        sender = cluster.machine("m2")
        for receiver, words in (("m0", 3), ("m3", 5), ("m0", 2), ("m2", 1)):
            sender.send(receiver, "t", None, words=words)
        staged = list(sender.outbox)
        index = cluster.ledger.next_round_index
        record = cluster.exchange()
        expected = RoundRecord.from_messages(index, staged)
        assert record == expected
        assert record.pair_words == (expected.pair_words if cluster._transport.pair_detail else {})
        assert (record.active_machines, record.total_words) == (3, 11)
        assert cluster.ledger.updates[-1].rounds == [expected]

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("fault", ["unknown-receiver", "over-cap"])
    def test_a_refused_one_sender_round_moves_nothing(self, backend, fault):
        cluster = make_cluster(backend, enforce=True, machines=3)
        cap = cluster.config.machine_memory
        sender = cluster.machine("m1")
        sender.send("m0", "t", "kept", words=2)
        if fault == "unknown-receiver":
            bad, error = sender.send("ghost", "t", None, words=1), UnknownMachineError
        else:
            bad, error = sender.send("m2", "t", None, words=cap), MessageSizeExceeded
        before = (mailboxes(cluster, "outbox"), mailboxes(cluster, "inbox"), staged_ids(cluster))
        index = cluster.ledger.next_round_index
        with pytest.raises(error):
            cluster.exchange()
        assert (mailboxes(cluster, "outbox"), mailboxes(cluster, "inbox"), staged_ids(cluster)) == before
        assert cluster.ledger.next_round_index == index and cluster.ledger.total_rounds() == 0
        sender.outbox.remove(bad)
        record = cluster.exchange()
        assert (record.round_index, record.message_count, record.total_words) == (index, 1, 2)
        assert [m.payload for m in cluster.machine("m0").inbox] == ["kept"] and not staged_ids(cluster)


# --------------------------------------------------------------------- drain
TAGS = st.sampled_from(["a", "b", "c"])


class TestDrainOneTag:
    @settings(max_examples=150, deadline=None)
    @given(tags=st.lists(TAGS, max_size=12), wanted=TAGS)
    def test_both_sides_keep_arrival_order(self, tags, wanted):
        machine = Machine("m", 100)
        arrived = [Message("s", "m", tag, number) for number, tag in enumerate(tags)]
        machine.inbox = inbox = list(arrived)
        drained = machine.drain(wanted)
        assert drained == [m for m in arrived if m.tag == wanted]
        assert machine.inbox == [m for m in arrived if m.tag != wanted]
        if not drained:
            assert machine.inbox is inbox  # nothing matched: left alone, not rebuilt
        assert machine.drain(wanted) == []
        assert machine.receive() == machine.inbox and machine.drain() == [m for m in arrived if m.tag != wanted]
        assert machine.inbox == []

    def test_drained_list_is_the_callers(self):
        machine = Machine("m", 100)
        machine.inbox = [Message("s", "m", "a", 1)]
        drained = machine.drain("a")
        drained.append("scribble")
        assert machine.inbox == [] and machine.drain("a") == []
