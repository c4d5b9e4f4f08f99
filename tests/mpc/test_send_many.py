"""``send_many`` is the ``send`` loop, staged in one step — on every context.

The fan-out primitive (:meth:`Machine.send_many` /
:meth:`MachineContext.send_many`) takes pre-sized ``(receiver, payload,
words)`` triples under one tag.  Its whole contract is equivalence: the
messages (or worker-side send records) it stages are exactly those of
``send(receiver, tag, payload, words=words)`` per triple — same fields,
same order, same charged words, same staging notification.  The property
below pins that on the live machine, on every context class that overrides
the batch form (and on the base-class loop), with sends staged *before*
the batch so record numbering and outbox order are covered too.

The :class:`~repro.mpc.message.Message` units pin what the slotted class
must keep from the frozen dataclass it replaced.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DMPCConfig
from repro.mpc import Cluster, Message
from repro.mpc.contract import ContractCheckContext, ContractObservation
from repro.mpc.program import LiveMachineContext, MachineContext, WorkerMachineContext
from repro.mpc.sizing import word_size
from repro.runtime.resident import _commit_frames, _RoutingMachineContext, _SessionState, _SizingMachineContext

RECEIVERS = ("b", "c", "d")
TAG = "fan-out"

payloads = st.one_of(st.none(), st.integers(-5, 5), st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=3))
triples = st.lists(st.tuples(st.sampled_from(RECEIVERS), payloads, st.integers(1, 40)), max_size=10)


def make_cluster(backend: str) -> Cluster:
    cluster = Cluster(DMPCConfig(capacity_n=32, capacity_m=64, backend=backend))
    for machine_id in ("a", *RECEIVERS):
        cluster.add_machine(machine_id)
    return cluster


class LoopOnlyContext(MachineContext):
    """A context that inherits the base-class ``send_many`` (the ``send`` loop)."""

    __slots__ = ("sent",)

    def __init__(self) -> None:
        self.sent: list = []

    @property
    def machine_id(self) -> str:
        return "a"

    def load(self, key, default=None):
        return default

    def send(self, receiver, tag, payload=None, *, words=None):
        self.sent.append((receiver, tag, payload, words))


def live(cluster: Cluster) -> LiveMachineContext:
    return LiveMachineContext(cluster.machine("a"))


def contract_checked(cluster: Cluster) -> ContractCheckContext:
    return ContractCheckContext(live(cluster), (), ContractObservation("FanOut"))


#: what stages on the live machine "a" of a cluster: name -> (cluster -> object with send / send_many)
LIVE_STAGERS = {
    "Machine": lambda cluster: cluster.machine("a"),
    "LiveMachineContext": live,
    "ContractCheckContext": contract_checked,
}
#: contexts that record sends instead of staging them: name -> factory; all expose ``sent``
RECORDING_CONTEXTS = {
    "MachineContext-base-loop": LoopOnlyContext,
    "WorkerMachineContext": lambda: WorkerMachineContext("a", {}),
    "resident-sizing": lambda: _SizingMachineContext("a", {}),
    "resident-routing": lambda: _RoutingMachineContext("a", {}),
}


def stage(stager, prefix, batch, *, batched: bool, lazy: bool = False) -> None:
    """``prefix`` through ``send``, then ``batch`` either way, then one trailing ``send``."""
    for receiver, payload, words in prefix:
        stager.send(receiver, "before", payload, words=words)
    if batched:
        stager.send_many(TAG, iter(batch) if lazy else batch)
    else:
        for receiver, payload, words in batch:
            stager.send(receiver, TAG, payload, words=words)
    stager.send("b", "after", None, words=1)


class TestSendManyEqualsSendLoop:
    @pytest.mark.parametrize("backend", ["reference", "fast", "resident"])
    @pytest.mark.parametrize("kind", sorted(LIVE_STAGERS))
    @given(prefix=triples, batch=triples, lazy=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_live_staging(self, backend, kind, prefix, batch, lazy):
        looped, batched = make_cluster(backend), make_cluster(backend)
        stage(LIVE_STAGERS[kind](looped), prefix, batch, batched=False)
        stage(LIVE_STAGERS[kind](batched), prefix, batch, batched=True, lazy=lazy)
        outbox = batched.machine("a").outbox
        assert all(type(message) is Message for message in outbox)
        assert [m.as_fields() for m in outbox] == [m.as_fields() for m in looped.machine("a").outbox]
        # the staging notification reached the transport: the exchange finds
        # the sender and delivers the identical round
        assert batched.exchange() == looped.exchange()
        for machine_id in RECEIVERS:
            assert batched.machine(machine_id).inbox == looped.machine(machine_id).inbox
        assert batched.machine("a").outbox == []

    @pytest.mark.parametrize("kind", sorted(LIVE_STAGERS))
    def test_a_batch_alone_marks_the_sender_staged(self, kind):
        # no send() before or after: send_many must notify the transport itself
        for backend in ("fast", "resident"):
            cluster = make_cluster(backend)
            LIVE_STAGERS[kind](cluster).send_many(TAG, [("b", None, 2), ("c", [(1, 2)], 5)])
            record = cluster.exchange()
            assert (record.message_count, record.total_words) == (2, 7)
            assert [m.as_fields() for m in cluster.machine("c").inbox] == [("a", "c", TAG, [(1, 2)], 5)]

    @pytest.mark.parametrize("kind", sorted(LIVE_STAGERS))
    def test_an_empty_batch_stages_nothing(self, kind):
        cluster = make_cluster("resident")
        LIVE_STAGERS[kind](cluster).send_many(TAG, [])
        assert cluster.machine("a").outbox == []
        assert not cluster.machine("a").transport.has_staged()

    @pytest.mark.parametrize("kind", sorted(LIVE_STAGERS))
    def test_words_below_one_is_refused_like_send(self, kind):
        cluster = make_cluster("resident")
        stager = LIVE_STAGERS[kind](cluster)
        with pytest.raises(ValueError, match="at least one word"):
            stager.send("b", TAG, None, words=0)
        with pytest.raises(ValueError, match="at least one word"):
            stager.send_many(TAG, [("b", None, 3), ("c", None, 0), ("d", None, 3)])
        # the refused batch staged nothing, not even the triples before the bad one
        assert cluster.machine("a").outbox == []
        assert not cluster.machine("a").transport.has_staged()

    @pytest.mark.parametrize("kind", sorted(RECORDING_CONTEXTS))
    @given(prefix=triples, batch=triples, lazy=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_recorded_sends(self, kind, prefix, batch, lazy):
        looped, batched = RECORDING_CONTEXTS[kind](), RECORDING_CONTEXTS[kind]()
        stage(looped, prefix, batch, batched=False)
        stage(batched, prefix, batch, batched=True, lazy=lazy)
        assert batched.sent == looped.sent
        assert len(batched.sent) == len(prefix) + len(batch) + 1

    def test_routing_frames_number_through_a_batch(self):
        # the routing context stages sized Messages; a message that leaves
        # the slot is keyed (epoch, sender_index, seq, sender, receiver, tag,
        # payload, words) at commit, and seq keeps counting across
        # send / send_many / send
        ctx = _RoutingMachineContext("a", {})
        ctx.send("b", "before", None, words=1)
        ctx.send_many(TAG, [("c", 1, 2), ("d", 2, 3)])
        ctx.send("b", "after", None, words=1)
        assert all(type(message) is Message for message in ctx.sent)
        assert [m.as_fields() for m in ctx.sent] == [
            ("a", "b", "before", None, 1), ("a", "c", TAG, 1, 2), ("a", "d", TAG, 2, 3), ("a", "b", "after", None, 1)
        ]  # fmt: skip
        state = _SessionState()
        state.machine_slots = {"a": (3, 0), "b": (4, 1), "c": (5, 1), "d": (6, 1)}
        _, _, overflow, _ = _commit_frames(state, [(3, ctx.sent)], 7, 0, False)  # no rings: all overflow
        frames = [frame for _, frame in overflow]
        assert [frame[:3] for frame in frames] == [(7, 3, 0), (7, 3, 1), (7, 3, 2), (7, 3, 3)]
        assert frames[1][3:] == ("a", "c", TAG, 1, 2)
        assert frames[2][3:] == ("a", "d", TAG, 2, 3)


class TestMessage:
    def test_sizes_itself_unless_told(self):
        assert Message("a", "b", "t", [1, 2]).words == word_size("t") + word_size([1, 2])
        assert Message("a", "b", "t", [1, 2], words=9).words == 9
        assert Message("a", "b", "t", [1, 2], words=-1).words == word_size("t") + word_size([1, 2])

    def test_zero_words_is_refused(self):
        with pytest.raises(ValueError, match="at least one word"):
            Message("a", "b", "t", None, words=0)

    def test_equality_and_hash_are_by_value(self):
        one = Message("a", "b", "t", (1, 2), words=4)
        same = Message(sender="a", receiver="b", tag="t", payload=(1, 2), words=4)
        assert one == same and hash(one) == hash(same) and one is not same
        assert len({one, same}) == 1
        for other in (
            Message("x", "b", "t", (1, 2), words=4),
            Message("a", "x", "t", (1, 2), words=4),
            Message("a", "b", "x", (1, 2), words=4),
            Message("a", "b", "t", (1, 3), words=4),
            Message("a", "b", "t", (1, 2), words=5),
        ):
            assert one != other
        assert one != one.as_fields()

    def test_fields_round_trip(self):
        message = Message("a", "b", "t", {"k": [1, 2]}, words=6)
        assert message.as_fields() == ("a", "b", "t", {"k": [1, 2]}, 6)
        assert Message.from_fields(message.as_fields()) == message

    def test_one_object_per_message(self):
        message = Message("a", "b", "t", None, words=1)
        assert not hasattr(message, "__dict__")
        with pytest.raises(AttributeError):
            message.extra = 1

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        message = Message("a", "b", "t", [(1, 2, 3)], words=7)
        back = pickle.loads(pickle.dumps(message, protocol=protocol))
        assert type(back) is Message and back == message and back.words == 7
