"""The round engine: one delivery pass, slotted records, O(1) storage and drain.

``Transport.deliver`` is the only place staged messages move, so the three
single-process backends must agree on every inbox and every record field
whatever a round carries, refuse a bad round without moving anything, and
still honour a ledger whose factory was assigned by hand.  Around it:
``RoundRecord`` as a value class, ``CachedStorage`` charging exactly what
``ReferenceStorage`` charges, ``Machine.drain(tag)`` in one walk.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import MachineMemoryExceeded, MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, Machine, Message, MetricsLedger, RoundRecord, UpdateRecord
from repro.mpc.layout import StatsTable, StatsTableHandle
from repro.runtime import CachedStorage, ReferenceStorage

BACKENDS = ("reference", "fast", "sharded")
MACHINES = 41
COSTS = ("round_index", "active_machines", "total_words", "message_count", "max_message_words")


def make_cluster(backend: str, *, enforce: bool = False, sampling: int = 0, machines: int = MACHINES) -> Cluster:
    config = DMPCConfig(capacity_n=64, capacity_m=128, backend=backend, metrics_sampling=sampling, shard_count=3)
    cluster = Cluster(config, enforce_io_cap=enforce)
    cluster.add_machines("m", machines)
    return cluster


def mailboxes(cluster: Cluster, box: str) -> dict[str, list[tuple]]:
    return {m.machine_id: [msg.as_fields() for msg in getattr(m, box)] for m in cluster.machines()}


def staged_sets(cluster: Cluster) -> list[set[str]]:
    """Ids in the transport's staged-sender sets (the reference transport keeps none)."""
    staged = getattr(cluster._transport, "_staged", [])
    groups = staged if isinstance(staged, list) else [staged]
    return [{machine.machine_id for machine in group} for group in groups]


# one send: (sender, receiver, words or None for "let the transport size the payload")
SENDS = st.tuples(st.integers(0, MACHINES - 1), st.integers(0, MACHINES - 1), st.one_of(st.none(), st.integers(1, 6)))
#: a fan-out: one sender, several receivers, staged through ``send_many``
FAN_OUTS = st.tuples(st.integers(0, MACHINES - 1), st.lists(st.integers(0, MACHINES - 1), min_size=2, max_size=8))
ROUNDS = st.lists(st.lists(st.one_of(SENDS, FAN_OUTS), max_size=60), min_size=4, max_size=7)


def play(cluster: Cluster, rounds) -> tuple[list[RoundRecord], list[dict]]:
    """Stage and exchange ``rounds``; inboxes are snapshotted, then drained, every other round."""
    ids = cluster.machine_ids()
    records, inboxes = [], []
    for number, sends in enumerate(rounds):
        for send in sends:
            if len(send) == 3:
                sender, receiver, words = send
                cluster.machine(ids[sender]).send(ids[receiver], f"t{receiver % 3}", [sender, receiver], words=words)
            else:
                sender, receivers = send
                cluster.machine(ids[sender]).send_many("fan", [(ids[r], (sender, r), 4) for r in receivers])
        records.append(cluster.exchange())
        inboxes.append(mailboxes(cluster, "inbox"))
        if number % 2:
            for machine in cluster.machines():
                machine.drain()
    return records, inboxes


class TestOnePassEverywhere:
    @settings(max_examples=25, deadline=None)
    @given(rounds=ROUNDS)
    @pytest.mark.parametrize("sampling", [0, 3])
    @pytest.mark.parametrize("enforce", [False, True])
    def test_same_inboxes_and_records_on_every_backend(self, enforce, sampling, rounds):
        expected_records, expected_inboxes = play(make_cluster("reference", enforce=enforce), rounds)
        assert len({r.round_index for r in expected_records}) == len(rounds)
        for backend in ("fast", "sharded"):
            records, inboxes = play(make_cluster(backend, enforce=enforce, sampling=sampling), rounds)
            assert inboxes == expected_inboxes  # arrival order included
            for record, expected in zip(records, expected_records):
                assert [getattr(record, name) for name in COSTS] == [getattr(expected, name) for name in COSTS]
                assert sum(expected.pair_words.values()) == expected.total_words  # the reference keeps every pair
                sampled = sampling > 0 and record.round_index % sampling == 0
                assert record.pair_words == (expected.pair_words if sampled else {})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_hand_assigned_factory_gets_the_message_list(self, backend):
        seen = []

        def factory(round_index, messages):
            seen.append([message.as_fields() for message in messages])
            return RoundRecord(round_index, -1, 0, len(seen[-1]), 0)

        cluster = make_cluster(backend, machines=4)
        cluster.ledger.round_record_factory = factory
        assert cluster.ledger.record_policy is None
        cluster.machine("m2").send("m0", "t", 1, words=2)
        cluster.machine("m1").send("m3", "t", 2, words=3)
        cluster.machine("m1").send("m0", "t", 3, words=4)
        record = cluster.exchange()
        assert (record.active_machines, record.message_count) == (-1, 3)
        # registration order of the senders, staging order within one
        assert seen == [[("m1", "m3", "t", 2, 3), ("m1", "m0", "t", 3, 4), ("m2", "m0", "t", 1, 2)]]
        assert [m.payload for m in cluster.machine("m0").inbox] == [3, 1]
        assert cluster.ledger.updates[-1].rounds == [record]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_assigning_the_policy_factory_back_restores_the_policy(self, backend):
        ledger = make_cluster(backend, machines=2).ledger
        installed, policy = ledger.round_record_factory, ledger.record_policy
        assert policy is not None
        ledger.round_record_factory = RoundRecord.from_messages if backend != "reference" else (lambda i, m: None)
        assert ledger.record_policy is None
        ledger.round_record_factory = installed
        assert ledger.record_policy == policy


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
        before = (mailboxes(cluster, "outbox"), mailboxes(cluster, "inbox"), staged_sets(cluster))
        index, rounds = cluster.ledger.next_round_index, cluster.ledger.total_rounds()
        with pytest.raises(error) as raised:
            cluster.exchange()
        if fields is not None:
            refusal = raised.value
            assert (refusal.machine_id, refusal.direction, refusal.words, refusal.capacity) == fields
        assert (mailboxes(cluster, "outbox"), mailboxes(cluster, "inbox"), staged_sets(cluster)) == before
        assert (cluster.ledger.next_round_index, cluster.ledger.total_rounds()) == (index, rounds)

        for message in bad:
            cluster.machine(message.sender).outbox.remove(message)
        record = cluster.exchange()
        assert (record.round_index, record.message_count, record.total_words) == (index, 8, 20)
        assert [m.payload for m in cluster.machine("m0").inbox] == [
            "left over from an earlier round", "m1", "m2", "m3", "m4"
        ]  # fmt: skip
        assert all(machine.outbox == [] for machine in cluster.machines())
        assert not any(staged_sets(cluster))
        assert cluster.exchange().message_count == 0


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

    def test_from_messages_without_pair_detail_equals_with(self):
        messages = [Message("a", "b", "t", 1, 4), Message("a", "b", "t", 2, 5), Message("c", "a", "t", 3, 1)]
        full = RoundRecord.from_messages(7, messages)
        assert full == RoundRecord.from_messages(7, messages, pair_detail=False) == RoundRecord(7, 3, 10, 3, 5)
        assert full.pair_words == {("a", "b"): 9, ("c", "a"): 1}
        assert RoundRecord.from_messages(7, messages, pair_detail=False).pair_words == {}

    def test_append_round_must_continue_the_counter(self):
        ledger = MetricsLedger()
        with pytest.raises(ProtocolError, match="expects round_index 1"):
            ledger.append_round(self.record(round_index=2))
        assert ledger.next_round_index == 1 and ledger.updates == []
        ledger.append_round(self.record(round_index=1))
        ledger.record_round([Message("a", "b", "t", None, 2)])
        with pytest.raises(ProtocolError, match="expects round_index 3"):
            ledger.append_round(self.record(round_index=2))
        filed = ledger.append_round(self.record(round_index=3))
        assert ledger.next_round_index == 4
        assert [u.label for u in ledger.updates] == ["<unlabelled>"] * 3 and ledger.updates[-1].rounds == [filed]


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
    st.builds(StatsTableHandle, st.just(_TABLE)),
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
