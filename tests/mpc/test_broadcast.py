"""``Cluster.broadcast`` files the round the send loop would file — and touches no mailbox.

The driver-side broadcast (one sender, one ``words``-word message per
receiver, nobody reads the packet) is a closed-form charge: the same
:class:`~repro.mpc.metrics.RoundRecord` and ledger row as staging one
message per receiver, exchanging and draining the tag, with the per-pair
map on ``reference``.  The equivalence is pinned on every backend, for a
sender among its receivers and for a duplicate receiver; so are the
refusals, each of which files nothing.
"""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.exceptions import MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster

BACKENDS = ("reference", "fast", "resident")
MACHINES = ("a", "b", "c", "d")
TAG = "scalars"

#: receiver lists of sender ``a``: plain, the sender among them, a duplicate, both, none
FAN_OUTS = {
    "plain": ["b", "c", "d"],
    "sender-included": ["a", "b", "c"],
    "duplicate": ["b", "c", "b"],
    "sender-twice": ["a", "d", "a"],
    "empty": [],
}


def make_cluster(backend: str, *, enforce_io_cap: bool = False) -> Cluster:
    cluster = Cluster(DMPCConfig(capacity_n=32, capacity_m=64, backend=backend), enforce_io_cap=enforce_io_cap)
    for machine_id in MACHINES:
        cluster.add_machine(machine_id)
    return cluster


def send_loop(cluster: Cluster, sender: str, receivers: list[str], words: int):
    """The sequence a broadcast replaces: a send per receiver, one exchange, every machine drains the tag."""
    for receiver in receivers:
        cluster.machine(sender).send(receiver, TAG, None, words=words)
    record = cluster.exchange()
    for machine in cluster.machines():
        machine.drain(TAG)
    return record


def costs(record) -> tuple:
    return (
        record.round_index,
        record.active_machines,
        record.total_words,
        record.message_count,
        record.max_message_words,
        dict(record.pair_words),
    )


def rows(cluster: Cluster) -> list[tuple]:
    """Every filed ledger row, pair map included."""
    return [costs(record) for update in cluster.ledger.updates for record in update.rounds]


def mailboxes(cluster: Cluster) -> dict:
    return {m.machine_id: ([x.as_fields() for x in m.inbox], [x.as_fields() for x in m.outbox]) for m in cluster.machines()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fan_out", sorted(FAN_OUTS))
def test_a_broadcast_files_the_send_loops_round(backend, fan_out):
    receivers = FAN_OUTS[fan_out]
    looped, broadcast = make_cluster(backend), make_cluster(backend)
    for cluster in (looped, broadcast):
        # a delivered message of another tag waits in b's inbox: neither path may touch it
        cluster.machine("c").send("b", "earlier", (1, 2), words=3)
        cluster.exchange()
    expected = send_loop(looped, "a", receivers, 7)
    before = mailboxes(broadcast)
    record = broadcast.broadcast(TAG, "a", receivers, 7)

    assert costs(record) == costs(expected)
    if backend == "reference" and receivers:
        assert record.pair_words  # the pair map is kept where the transport keeps one
    assert rows(broadcast) == rows(looped)
    assert broadcast.ledger.next_round_index == looped.ledger.next_round_index
    assert mailboxes(broadcast) == before == mailboxes(looped)
    assert mailboxes(broadcast)["b"][0] == [("c", "b", "earlier", (1, 2), 3)]


def refuses(cluster: Cluster, error: type, *args) -> None:
    filed, next_index = rows(cluster), cluster.ledger.next_round_index
    with pytest.raises(error):
        cluster.broadcast(*args)
    assert rows(cluster) == filed
    assert cluster.ledger.next_round_index == next_index


@pytest.mark.parametrize("backend", BACKENDS)
class TestRefusals:
    def test_an_unknown_receiver(self, backend):
        cluster = make_cluster(backend)
        refuses(cluster, UnknownMachineError, TAG, "a", ["b", "zz", "c"], 2)
        with pytest.raises(UnknownMachineError, match="'zz'"):
            cluster.broadcast(TAG, "a", ["b", "zz"], 2)

    def test_an_unknown_sender(self, backend):
        refuses(make_cluster(backend), UnknownMachineError, TAG, "zz", ["b"], 2)

    def test_a_message_of_no_words(self, backend):
        refuses(make_cluster(backend), ValueError, TAG, "a", ["b"], 0)

    def test_a_staged_message(self, backend):
        cluster = make_cluster(backend)
        cluster.machine("d").send("b", "other", None, words=1)
        refuses(cluster, ProtocolError, TAG, "a", ["b", "c"], 2)
        assert [m.tag for m in cluster.machine("d").outbox] == ["other"]

    def test_the_io_cap(self, backend):
        cluster = make_cluster(backend, enforce_io_cap=True)
        cap = cluster.config.machine_memory
        # at the cap the round goes through, one word over it is the sender's send overrun
        cluster.broadcast(TAG, "a", ["b", "b"], cap // 2)
        with pytest.raises(MessageSizeExceeded) as looped:
            send_loop(make_cluster(backend, enforce_io_cap=True), "a", ["b", "c"], cap // 2 + 1)
        filed, next_index = rows(cluster), cluster.ledger.next_round_index
        with pytest.raises(MessageSizeExceeded) as broadcast:
            cluster.broadcast(TAG, "a", ["b", "c"], cap // 2 + 1)
        assert (broadcast.value.machine_id, broadcast.value.direction, broadcast.value.words) == (
            looped.value.machine_id,
            looped.value.direction,
            looped.value.words,
        ) == ("a", "send", 2 * (cap // 2 + 1))
        assert (rows(cluster), cluster.ledger.next_round_index) == (filed, next_index)


def test_a_pending_worker_round_refuses_a_broadcast():
    """A resident session's deposited round is filed by the next exchange: a broadcast may not jump it."""
    cluster = make_cluster("resident")
    transport = cluster.machine("a").transport
    transport.deposit_worker_round({"summaries": [], "fallback": [], "traffic": {}})
    refuses(cluster, ProtocolError, TAG, "a", ["b"], 1)
    cluster.discard_undelivered()
    cluster.broadcast(TAG, "a", ["b"], 1)
