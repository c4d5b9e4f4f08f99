"""Slot-local routing: the wire codec, the shm rings and the traffic books.

``test_backend_equivalence`` pins that the slot-routing resident backend is
bit-identical to the other configurations; ``test_resident`` pins the
session protocol.  This module covers the routing machinery itself:

* the marshal-first frame codec round-trips everything a routed frame can
  carry — including tuple-keyed ``("adj", v)`` store payloads — and falls
  back to pickle for payloads marshal rejects;
* the SPSC ring preserves frame order across wraps, refuses (never blocks
  on) frames that do not fit, and detects torn frames loudly;
* the routed round (driven in-process, the protocol ops are plain
  functions) delivers same-slot frames without touching a ring, rides
  cross-slot frames over the rings in reference order, defers same-epoch
  ring read-ahead, and spills to the driver pipe on overflow;
* the word accounting sizes each message exactly once and lands on the
  same totals as the reference sizer; a routed round's reply names
  machines, not (sender, receiver) pairs, and routed rounds, capped ones
  included, still record and refuse exactly as ``fast`` does;
* end to end: a single-slot session routes everything locally (zero
  cross-slot frames), deliberately tiny rings force pipe fallbacks without
  changing a bit, and every slot count delivers the same rounds;
* the transport's inbox-router hooks: a driver-side read, a driver-side
  round and a discard each see worker-held frames exactly as if they had
  been delivered to the driver.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import MessageSizeExceeded, UnknownMachineError
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.mpc.cluster import Cluster
from repro.mpc.message import Message
from repro.mpc.program import SuperstepProgram
from repro.mpc.sizing import word_size
from repro.runtime import resident as resident_mod
from repro.runtime.resident import (
    _session_flush,
    _session_open,
    _session_run_block,
)
from repro.runtime.wire import (
    FRAME_HEADER,
    ShmRing,
    TornFrameError,
    decode_obj,
    encode_obj,
    pack_inbox,
    unpack_inbox,
)
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching

# ------------------------------------------------------------------ fixtures
#: scalars marshal handles natively (floats kept NaN-free so == works)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    | st.binary(max_size=8)
)
#: recursive payloads shaped like real routed traffic: lists of pairs,
#: tuple-keyed store dicts (the ``("adj", v)`` idiom), nested containers
_payloads = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(
            st.tuples(st.just("adj"), st.integers(0, 99)), children, max_size=4
        )
        | st.dictionaries(st.integers(0, 99), children, max_size=4)
    ),
    max_leaves=12,
)


class _Opaque:
    """Marshal-rejected payload (pickle fallback path); value-compares."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Opaque) and other.value == self.value


class FanoutProgram(SuperstepProgram):
    """Send a scripted list of messages per machine; echo the inbox as delta."""

    shared_reads = ()

    def __init__(self, sends: dict[str, list[tuple[str, str, object]]]) -> None:
        self.sends = dict(sends)

    def run(self, ctx, inbox, shared):
        for receiver, tag, payload in self.sends.get(ctx.machine_id, ()):
            ctx.send(receiver, tag, payload)
        return [(m.sender, m.tag, m.payload, m.words) for m in inbox]

    def apply(self, shared, machine_id, delta):
        shared.setdefault("got", {})[machine_id] = delta


class ReportProgram(SuperstepProgram):
    """Every machine but ``m0`` reports its registration index to ``m0``.

    Declares its sends worker-consumed, so they stay held at the workers —
    the tests below then read them driver-side anyway, which is what the
    inbox-router flush exists for.
    """

    driver_reads_sends = False

    def run(self, ctx, inbox, shared):
        if ctx.machine_id != "m0":
            ctx.send("m0", "report", int(ctx.machine_id[1:]))


class CollectProgram(SuperstepProgram):
    """Every machine hands its inbox payloads, in arrival order, to the driver."""

    shared_writes = ("seen",)

    def run(self, ctx, inbox, shared):
        return [msg.payload for msg in inbox]

    def apply(self, shared, machine_id, delta):
        shared["seen"][machine_id] = delta


def local_ring(capacity: int) -> ShmRing:
    """A ring over plain process-local bytes — same framing, no shm."""
    return ShmRing(bytearray(16 + capacity))


def routed_round(sessions, session_id, program, batch_ids, machine_slots, slot, epoch, *, forward=()):
    """Drive one slot-routed round through the real protocol op (a one-round block), in-process."""
    blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
    block = {
        "epoch0": epoch,
        "slot": slot,
        "map": dict(machine_slots),
        "forward": list(forward),
        "rounds": [(0, not program.reads_inbox, False)],
        "barrier": None,
    }
    reply = _session_run_block(
        sessions, session_id, {0: blob}, [], {}, [],
        [(machine_id, []) for machine_id in batch_ids], block,
    )
    assert reply[:2] == ("block", 1)
    (routed,) = reply[2]
    assert routed[0] == "routed"
    return routed


# ---------------------------------------------------------------- wire codec
class TestWireCodec:
    @settings(max_examples=60, deadline=None)
    @given(payload=_payloads, epoch=st.integers(0, 500), seq=st.integers(0, 99))
    def test_frames_round_trip_through_marshal(self, payload, epoch, seq):
        frame = (epoch, 3, seq, "w0", "w1", "propose", payload, 17)
        blob = encode_obj(frame)
        assert blob[:1] == b"M", "builtin-only frames must take the marshal path"
        assert decode_obj(blob) == frame

    def test_unmarshalable_payloads_fall_back_to_pickle(self):
        frame = (0, 0, 0, "w0", "w1", "blob", _Opaque(7), 3)
        blob = encode_obj(frame)
        assert blob[:1] == b"P"
        assert decode_obj(blob) == frame

    def test_inbox_packing_round_trips_messages(self):
        inbox = [
            Message(sender="w0", receiver="w1", tag="adj-page", payload={("adj", 4): [1, 2]}, words=9),
            Message(sender="w2", receiver="w1", tag="probe", payload=None, words=1),
        ]
        back = unpack_inbox(decode_obj(encode_obj(pack_inbox(inbox))))
        assert [m.as_fields() for m in back] == [m.as_fields() for m in inbox]


# ------------------------------------------------------------------ shm ring
class TestShmRing:
    @settings(max_examples=50, deadline=None)
    @given(
        blobs=st.lists(st.binary(min_size=0, max_size=40), max_size=30),
        capacity=st.integers(64, 192),
    )
    def test_interleaved_writes_and_reads_preserve_order(self, blobs, capacity):
        """Drain-on-full interleaving: every frame comes back once, in order,
        across arbitrarily many wraps of a small ring."""
        ring = local_ring(capacity)
        seen: list[bytes] = []
        for blob in blobs:
            if not ring.write(blob):
                seen.extend(ring.read_all())
                if FRAME_HEADER + len(blob) <= capacity:
                    assert ring.write(blob), "an empty ring must accept a fitting frame"
                else:
                    continue  # oversized for any state of this ring
        seen.extend(ring.read_all())
        assert seen == [b for b in blobs if FRAME_HEADER + len(b) <= capacity]
        assert ring.backlog == 0

    def test_wrap_padding_is_invisible_to_the_reader(self):
        ring = local_ring(64)
        frames = [bytes([i]) * 20 for i in range(8)]  # 28 bytes framed: wraps often
        for frame in frames:
            assert ring.write(frame)
            assert ring.read_all() == [frame]

    def test_full_ring_refuses_instead_of_blocking(self):
        ring = local_ring(64)
        assert ring.write(b"x" * 56)  # fills the ring exactly
        assert not ring.write(b"y")
        assert ring.read_all() == [b"x" * 56]
        assert ring.write(b"y")

    def test_oversized_frame_is_always_refused(self):
        ring = local_ring(64)
        assert not ring.write(b"z" * 57)

    def test_torn_frame_raises(self):
        buf = bytearray(16 + 128)
        ring = ShmRing(buf)
        assert ring.write(b"payload")
        buf[16 + 4] ^= 0xFF  # corrupt the header checksum in place
        with pytest.raises(TornFrameError):
            ring.read_all()

    def test_shared_memory_attach_round_trip(self):
        writer = ShmRing.create(4096)
        try:
            reader = ShmRing.attach(writer.name)
            try:
                assert writer.write(encode_obj((1, 0, 0, "a", "b", "t", [1, 2], 3)))
                frames = [decode_obj(blob) for blob in reader.read_all()]
                assert frames == [(1, 0, 0, "a", "b", "t", [1, 2], 3)]
            finally:
                reader.close()
        finally:
            writer.close()
            writer.unlink()


# ------------------------------------------------------- routed round (unit)
class TestRoutedRound:
    def test_same_slot_frames_never_touch_a_ring(self):
        sessions = {}
        _session_open(sessions, "s")
        ring = local_ring(1024)
        sessions["s"].rings_out[1] = ring
        slots = {"a": (0, 0), "b": (1, 0), "c": (2, 1)}
        program = FanoutProgram({"a": [("b", "t", i) for i in range(3)]})
        reply = routed_round(sessions, "s", program, ["a", "b"], slots, 0, 0)
        local, ring_frames, ring_bytes, overflows = reply[3]
        assert (local, ring_frames, ring_bytes, overflows) == (3, 0, 0, 0)
        assert reply[4] == [] and reply[5] == []
        assert ring.backlog == 0, "same-slot traffic must not touch the ring"
        # held as the staged Messages themselves: one chunk for round 0, in staging order
        ((epoch, held),) = sessions["s"].local["b"]
        assert epoch == 0 and all(type(m) is Message for m in held)
        assert [m.payload for m in held] == [0, 1, 2]
        assert sessions["s"].pending == {}, "no keyed frame for a same-slot message"
        # the held frames are due next round, in staging order
        reply2 = routed_round(sessions, "s", FanoutProgram({}), ["a", "b"], slots, 0, 1)
        delivered = dict(reply2[1])["b"]
        assert delivered == [("a", "t", i, word_size("t") + word_size(i)) for i in range(3)]

    def test_same_slot_messages_arrive_in_registration_order_whatever_the_run_order(self):
        sessions = {}
        _session_open(sessions, "s")
        slots = {"a": (0, 0), "b": (1, 0), "c": (2, 0)}
        program = FanoutProgram({"b": [("c", "t", "from-b")], "a": [("c", "t", "from-a")]})
        routed_round(sessions, "s", program, ["c", "b", "a"], slots, 0, 0)
        reply = routed_round(sessions, "s", FanoutProgram({}), ["c"], slots, 0, 1)
        assert [payload for _, _, payload, _ in dict(reply[1])["c"]] == ["from-a", "from-b"]

    def test_cross_slot_frames_ride_the_ring_in_reference_order(self):
        """Two in-process 'workers' sharing one ring buffer: the destination
        slot ingests exactly the frames the source slot wrote, and serves
        them sorted by the global (epoch, sender_index, seq) key."""
        ring = local_ring(4096)
        src, dst = {}, {}
        _session_open(src, "s")
        _session_open(dst, "s")
        src["s"].rings_out[1] = ring
        dst["s"].rings_in[0] = ring
        slots = {"a": (0, 0), "b": (1, 0), "c": (2, 1)}
        program = FanoutProgram(
            {"b": [("c", "later", "from-b")], "a": [("c", "first", "from-a")]}
        )
        reply = routed_round(src, "s", program, ["a", "b"], slots, 0, 0)
        _, ring_frames, ring_bytes, overflows = reply[3]
        assert ring_frames == 2 and overflows == 0 and ring_bytes > 0
        reply2 = routed_round(dst, "s", FanoutProgram({}), ["c"], slots, 1, 1)
        # sender registration order (a before b), not batch order, wins
        assert dict(reply2[1])["c"] == [
            ("a", "first", "from-a", word_size("first") + word_size("from-a")),
            ("b", "later", "from-b", word_size("later") + word_size("from-b")),
        ]

    def test_ring_overflow_spills_to_the_driver_and_forward_delivers(self):
        sessions = {}
        _session_open(sessions, "s")
        sessions["s"].rings_out[1] = local_ring(64)
        slots = {"a": (0, 0), "c": (1, 1)}
        big = list(range(200))
        reply = routed_round(sessions, "s", FanoutProgram({"a": [("c", "big", big)]}), ["a"], slots, 0, 0)
        assert reply[3][3] == 1, "a frame that cannot fit must count as overflow"
        (dst_slot, frame), = reply[4]
        assert dst_slot == 1 and frame[4] == "c" and frame[6] == big
        # the driver forwards the spilled frame into the destination's round
        dst = {}
        _session_open(dst, "s")
        reply2 = routed_round(dst, "s", FanoutProgram({}), ["c"], slots, 1, 1, forward=[frame])
        assert dict(reply2[1])["c"] == [("a", "big", big, frame[7])]

    def test_same_epoch_ring_read_ahead_waits_one_round(self):
        """A fast peer may write *this* round's frames before we run: they
        must stay pending, exactly like any other message sent this round."""
        ring = local_ring(1024)
        sessions = {}
        _session_open(sessions, "s")
        sessions["s"].rings_in[0] = ring
        slots = {"a": (0, 0), "c": (1, 1)}
        early = (1, 0, 0, "a", "c", "t", "early", 2)
        assert ring.write(encode_obj(early))
        reply = routed_round(sessions, "s", FanoutProgram({}), ["c"], slots, 1, 1)
        assert dict(reply[1])["c"] == [], "epoch-1 frames are not due in round 1"
        assert sessions["s"].pending["c"] == [early]
        reply2 = routed_round(sessions, "s", FanoutProgram({}), ["c"], slots, 1, 2)
        assert dict(reply2[1])["c"] == [("a", "t", "early", 2)]

    @pytest.mark.parametrize("serve", ["due-inbox", "flush"])
    def test_held_local_messages_merge_with_ring_frames_by_key(self, serve):
        """``c`` sits out two rounds while ``a`` (same slot) and ``b`` (the other slot) write to it
        in both: its inbox — or a flush — interleaves them by (epoch, sender index), not by path."""
        ring = local_ring(1024)
        sessions = {}
        _session_open(sessions, "s")
        sessions["s"].rings_in[1] = ring
        slots = {"a": (0, 0), "b": (1, 1), "c": (2, 0)}
        for epoch in (0, 1):
            assert ring.write(encode_obj((epoch, 1, 0, "b", "c", "t", f"b{epoch}", 2)))
            routed_round(sessions, "s", FanoutProgram({"a": [("c", "t", f"a{epoch}")]}), ["a"], slots, 0, epoch)
        assert [epoch for epoch, _ in sessions["s"].local["c"]] == [0, 1]
        if serve == "flush":
            frames = sorted(_session_flush(sessions, "s"), key=lambda f: f[:3])
            assert (sessions["s"].local, sessions["s"].pending) == ({}, {})
            payloads = [frame[6] for frame in frames]
        else:
            reply = routed_round(sessions, "s", FanoutProgram({}), ["c"], slots, 0, 2)
            payloads = [payload for _, _, payload, _ in dict(reply[1])["c"]]
        assert payloads == ["a0", "b0", "a1", "b1"]

    def test_flush_surrenders_held_and_ring_frames(self):
        ring = local_ring(1024)
        sessions = {}
        _session_open(sessions, "s")
        sessions["s"].rings_in[0] = ring
        held = (0, 1, 0, "b", "c", "t", "held", 2)
        sessions["s"].pending["c"] = [held]
        in_ring = (0, 0, 0, "a", "c", "t", "ringed", 2)
        assert ring.write(encode_obj(in_ring))
        frames = _session_flush(sessions, "s")
        assert sorted(frames, key=lambda f: (f[0], f[1], f[2])) == [in_ring, held]
        assert sessions["s"].pending == {}


# ------------------------------------------------------------ word accounting
class TestSizerAccounting:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payloads=st.lists(_payloads, min_size=1, max_size=6))
    def test_each_message_is_sized_exactly_once_matching_reference(self, payloads):
        """Property: a routed round invokes the sizer exactly twice per
        message (tag + payload, at staging) and the round summary it
        reports equals the reference sizer's totals — the accounting the
        driver reconstructs is bit-for-bit the one every backend charges."""
        calls = []
        real = resident_mod.fast_word_size

        def counting(value):
            calls.append(value)
            return real(value)

        sends = [("c", f"t{i}", payload) for i, payload in enumerate(payloads)]
        sessions = {}
        _session_open(sessions, "s")
        slots = {"a": (0, 0), "c": (1, 0)}
        resident_mod.fast_word_size = counting
        try:
            reply = routed_round(sessions, "s", FanoutProgram({"a": sends}), ["a", "c"], slots, 0, 0)
        finally:
            resident_mod.fast_word_size = real
        assert len(calls) == 2 * len(sends)
        expected_total = sum(word_size(tag) + word_size(payload) for _, tag, payload in sends)
        words, count, max_words, senders, receivers, sent, received = reply[2]
        assert (senders, receivers, count) == (["a"], ["c"], len(sends))
        assert words == expected_total
        assert max_words == max(
            word_size(tag) + word_size(payload) for _, tag, payload in sends
        )
        assert (sent, received) == ({}, {})  # no I/O cap
        # and every individual held message carries its reference size
        ((_, held),) = sessions["s"].local["c"]
        for message, (_, tag, payload) in zip(held, sends, strict=True):
            assert message.words == word_size(tag) + word_size(payload)


class TestRoundSummary:
    def test_an_all_to_all_round_returns_machines_not_pairs(self):
        """Counts, not clocks: M machines each send one message to every other machine in
        one routed round.  The reply names at most 2·M machines (the senders and
        the receivers); a per-pair report would name M·(M − 1) pairs."""
        count = 24
        ids = [f"m{i}" for i in range(count)]
        program = FanoutProgram({s: [(r, "t", None) for r in ids if r != s] for s in ids})
        sessions = {}
        _session_open(sessions, "s")
        reply = routed_round(sessions, "s", program, ids, {m: (i, 0) for i, m in enumerate(ids)}, 0, 0)

        def named(value) -> int:
            if isinstance(value, str):
                return int(value in ids)
            if isinstance(value, dict):
                return named(list(value.items()))
            if isinstance(value, (tuple, list, set)):
                return sum(named(item) for item in value)
            return 0

        assert reply[3][0] == count * (count - 1)  # every message stayed on the slot
        assert named(reply[2:]) <= 2 * count


class FloodProgram(SuperstepProgram):
    """Worker-routed sends of explicit sizes: ``plan`` maps sender -> [(receiver, words)]."""

    driver_reads_sends = False

    def __init__(self, plan: dict[str, list[tuple[str, int]]]) -> None:
        self.plan = dict(plan)

    def run(self, ctx, inbox, shared):
        for receiver, words in self.plan.get(ctx.machine_id, ()):
            ctx.send(receiver, "flood", None, words=words)


def refusal(backend: str, plan, slots: int = 1) -> BaseException:
    """The exception one routed round of ``FloodProgram(plan)`` raises under the I/O cap."""
    config = DMPCConfig(capacity_n=32, capacity_m=64, backend=backend, resident_slots=slots)
    cluster = Cluster(config, enforce_io_cap=True)
    cluster.add_machines("m", 6)
    shared: dict = {}
    with pytest.raises(Exception) as raised:
        with cluster.session(shared):
            cluster.superstep(FloodProgram(plan), shared=shared)
    return raised.value


CAP = DMPCConfig(capacity_n=32, capacity_m=64).machine_memory


class TestRoutedRecordDetail:
    """Rounds the workers routed, capped ones included, stay exactly the rounds ``fast`` makes."""

    @pytest.mark.parametrize("slots", [1, 2])
    def test_routed_connected_components_match_fast_round_for_round(self, slots):
        graph = gnm_random_graph(48, 110, seed=41)

        def records(**kwargs):
            algorithm = StaticConnectedComponents(graph, **kwargs)
            algorithm.run()
            rounds = [r for update in algorithm.cluster.ledger.updates for r in update.rounds]
            fields = ("round_index", "active_machines", "total_words", "message_count", "max_message_words")
            return [(*(getattr(r, f) for f in fields), r.pair_words) for r in rounds], algorithm

        detailed, _ = records(backend="reference")
        expected, _ = records(backend="fast")
        routed, algorithm = records(backend="resident", resident_slots=slots)
        assert routed == expected
        # the two regimes: the same costs, with every pair on reference and none without it
        assert [row[:-1] for row in expected] == [row[:-1] for row in detailed]
        assert all(sum(row[-1].values()) == row[2] for row in detailed)
        assert not any(row[-1] for row in expected)
        assert algorithm.cluster.ledger.traffic_totals()["local_messages"] > 0  # the workers routed

    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize(
        "plan",
        [
            {"m2": [("m3", CAP // 2 + 1), ("m4", CAP // 2)], "m3": [("m1", CAP - 5)], "m4": [("m1", CAP - 5)]},
            {f"m{i}": [("m5", CAP // 3)] for i in range(1, 5)},
        ],
        ids=["over-cap-sender", "over-cap-receiver"],
    )
    def test_an_over_sending_round_is_refused_like_fast(self, plan, slots):
        expected = refusal("fast", plan)
        raised = refusal("resident", plan, slots)
        assert type(raised) is type(expected) is MessageSizeExceeded
        fields = ("machine_id", "direction", "words", "capacity")
        assert [getattr(raised, f) for f in fields] == [getattr(expected, f) for f in fields]

    @pytest.mark.parametrize("slots", [1, 2])
    def test_a_send_to_an_unknown_machine_is_refused_like_fast(self, slots):
        plan = {"m1": [("m2", 2)], "m3": [("ghost", 2), ("nowhere", 2)], "m4": [("ghost", 3)]}
        expected = refusal("fast", plan)
        raised = refusal("resident", plan, slots)
        assert type(raised) is type(expected) is UnknownMachineError
        assert str(raised) == str(expected) == "message from 'm3' addressed to unknown machine 'ghost'"


# ------------------------------------------------------------------ end to end
def run_matching(graph, seed=31, **kwargs):
    algorithm = StaticMaximalMatching(graph, seed=seed, **kwargs)
    algorithm.run()
    return algorithm


class TestEndToEndTraffic:
    def test_single_slot_session_routes_everything_locally(self):
        """With one worker slot every sender/receiver pair is same-slot:
        zero cross-slot frames, zero fallbacks, all messages worker-local —
        and the matching is still bit-identical to the fast backend."""
        graph = gnm_random_graph(48, 130, seed=17)
        fixed = run_matching(graph, backend="fast")
        routed = run_matching(graph, backend="resident", resident_slots=1)
        assert sorted(routed.matching) == sorted(fixed.matching)
        assert routed.rounds_used == fixed.rounds_used
        backend = routed.cluster.backend
        assert backend.last_session_shm_frames == 0
        traffic = backend.last_session_traffic
        assert traffic["local_messages"] > 0
        assert traffic["cross_slot_messages"] == 0
        assert traffic["pipe_fallbacks"] == 0
        assert traffic["shm_bytes"] == 0

    def test_tiny_rings_force_pipe_fallbacks_without_changing_a_bit(self):
        """Rings sized at the floor overflow on real rounds; the spilled
        frames take the driver pipe and the run stays bit-identical."""
        graph = gnm_random_graph(64, 220, seed=23)
        fixed = run_matching(graph, backend="fast")
        routed = run_matching(
            graph, backend="resident", resident_slots=2, resident_shm_ring_bytes=1024
        )
        assert sorted(routed.matching) == sorted(fixed.matching)
        assert routed.rounds_used == fixed.rounds_used
        traffic = routed.cluster.backend.last_session_traffic
        assert traffic["cross_slot_messages"] > 0
        assert traffic["pipe_fallbacks"] > 0, "1KiB rings must overflow on this workload"
        assert traffic["local_messages"] > 0


#: the three static baselines on inputs of the equivalence tests' size: make(**backend) -> solution
BASELINES = {
    "cc": (
        lambda **kw: StaticConnectedComponents(gnm_random_graph(48, 110, seed=41), **kw),
        lambda a: (sorted(a.labels.items()), sorted(a.spanning_forest())),
    ),
    "mm": (
        lambda **kw: StaticMaximalMatching(gnm_random_graph(44, 120, seed=43), seed=43, **kw),
        lambda a: sorted(a.matching),
    ),
    "mst": (
        lambda **kw: StaticBoruvkaMST(random_weighted_graph(40, 90, seed=47), **kw),
        lambda a: sorted(a.forest),
    ),
}


class TestSlotCounts:
    @pytest.mark.parametrize("slots", [1, 2, 3])
    @pytest.mark.parametrize("baseline", sorted(BASELINES))
    def test_every_slot_count_delivers_the_fast_rounds(self, baseline, slots):
        """Machine ``i`` runs on slot ``i % slots`` for any slot count — three slots included,
        which no shard plan ever produced on this workload — and the rounds, words and
        solution are the ones ``fast`` delivers; frames cross slots exactly when there are
        several slots and a phase sends to other machines at the workers."""
        make, solution = BASELINES[baseline]
        fixed = make(backend="fast")
        fixed.run()
        routed = make(backend="resident", resident_slots=slots)
        routed.run()
        def rows(algorithm):
            return [(u.label, u.num_rounds, u.total_words, u.max_words_per_round) for u in algorithm.cluster.ledger.updates]

        assert (rows(routed), solution(routed)) == (rows(fixed), solution(fixed))
        traffic = routed.cluster.backend.last_session_traffic
        # the driver reads every Borůvka phase's reports itself, so they return on the reply
        routes = baseline != "mst"
        assert (traffic["local_messages"] > 0) == routes
        assert (traffic["cross_slot_messages"] > 0) == (routes and slots > 1)


def routed_cluster(slots: int) -> Cluster:
    cluster = Cluster(DMPCConfig(capacity_n=32, capacity_m=64, backend="resident", resident_slots=slots))
    cluster.add_machines("m", 6)
    return cluster


class TestInboxRouter:
    @pytest.mark.parametrize("slots", [1, 2])
    def test_a_driver_drain_pulls_held_frames_in_order(self, slots):
        cluster = routed_cluster(slots)
        shared: dict = {}
        with cluster.session(shared) as session:
            cluster.superstep(ReportProgram(), shared=shared)
            assert session.local_messages + session.cross_slot_messages == 5
            assert cluster.machine("m0").inbox == []  # held at the workers
            assert [msg.payload for msg in cluster.machine("m0").drain()] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("slots", [1, 2])
    def test_a_driver_round_lands_behind_held_frames(self, slots):
        cluster = routed_cluster(slots)
        shared: dict = {}
        with cluster.session(shared):
            cluster.superstep(ReportProgram(), shared=shared)
            cluster.machine("m3").send("m0", "late", "from-the-driver")
            record = cluster.exchange()
            assert (record.message_count, record.active_machines) == (1, 2)
            assert [msg.payload for msg in cluster.machine("m0").drain()] == [1, 2, 3, 4, 5, "from-the-driver"]

    def test_discard_undelivered_drops_held_frames(self):
        cluster = routed_cluster(2)
        shared: dict = {"seen": {}}
        with cluster.session(shared):
            cluster.superstep(ReportProgram(), shared=shared)
            cluster.discard_undelivered()
            cluster.superstep(CollectProgram(), shared=shared)
        assert shared["seen"] == {f"m{i}": [] for i in range(6)}

