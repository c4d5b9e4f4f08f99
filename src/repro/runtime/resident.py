"""The resident execution backend — persistent workers, delta shipping.

The paper's DMPC economics are that machines *hold* their local state
across rounds; only messages move.  This backend restores that economics
for the simulator's own execution substrate, on top of the ``fast``
backend's storage, accounting and delivery pass:

* **long-lived workers own machine state** — each worker slot is a
  dedicated spawned process driven over a :func:`multiprocessing.Pipe` (an
  order of magnitude cheaper per round trip than executor submits, which
  matters when every superstep is one round trip per slot).  Every job for
  a slot lands in the same process, which keeps its machines' store
  snapshots and a copy of the session's shared state resident for the
  lifetime of a run;
* **the driver ships deltas** — per round a worker receives the drained
  inboxes of its machines plus (a) the *merged program deltas* of the
  previous barrier, which it replays through ``program.apply`` to bring
  its resident shared copy up to date, and (b) fresh values only for
  shared keys the driver explicitly invalidated
  (:meth:`~repro.runtime.base.ExecutionSession.touch`) and store snapshots
  whose :attr:`~repro.runtime.base.MachineStorage.version` epoch moved;
* **the barrier is the driver's** — deltas come back to the driver and
  are merged there in target order, then one exchange: bit-for-bit the
  round every other backend delivers.

* **messages route slot-locally** — workers *keep* each message frame
  instead of sending it through the driver: a frame whose receiver
  lives on the sending slot is staged worker-locally (it never crosses the
  pipe and is never re-encoded), a cross-slot frame rides a pre-sized
  :class:`~repro.runtime.wire.ShmRing` (one SPSC ring per ordered slot
  pair; overflow falls back to driver-forwarded pipe delivery), and only a
  round summary — word and message totals, the largest message, the
  sending and receiving machines — returns to the driver, where
  :meth:`ResidentTransport.deposit_worker_round` rebuilds the identical
  :class:`~repro.mpc.metrics.RoundRecord`.  The frame key ``(epoch,
  sender index, staging seq)`` totally orders frames, so any time the
  driver needs a message body (:meth:`Machine.receive` / ``drain``
  outside a worker round, a driver-side exchange, session close), the
  session's inbox-router hooks
  (:attr:`~repro.runtime.base.Transport.inbox_router`) flush every
  worker-held frame back into driver inboxes in exactly the reference
  delivery order.

* **every worker round is in a round block** — a span of supersteps
  ships as ``run_block`` requests of K ≥ 1 rounds each, one pipe round
  trip per block.  Consecutive supersteps whose contract declarations
  prove the driver has no work between them (sends never read
  driver-side, deltas ``owner``-scoped or no-op — see
  :func:`~repro.mpc.program.fusable_interior`) fuse into one block of
  K ≥ 2; a worker round that cannot fuse, and every lone
  :meth:`Cluster.superstep` the workers run, is a block of K = 1.
  Inside a block workers loop locally: each round they ingest rings, serve due frames, run their
  machines and commit their frames; after every routed round they
  *self-apply* their own machines' owner-scoped deltas, and between the
  rounds of a K ≥ 2 block they synchronize on a shared-memory cursor
  barrier (:class:`~repro.runtime.wire.ShmRoundBarrier`) instead of a
  driver round trip.  Per-round summaries come back once per block, and the
  driver replays them round by round — every RoundRecord is rebuilt
  bit-identically, in order.  A ring overflow mid-block stops every slot
  at the same round boundary (the barrier's stop bit); the overflowed
  frames take the pipe forward path with the next block.  A round whose
  sends the driver reads (``driver_reads_sends = True``, the default) and
  a round behind driver-staged sends run in the driver, as on ``fast``,
  their deltas queued for worker-side replay.

The worker-session protocol has five operations, all executed inside the
slot's worker process: :func:`_session_open` (create the resident state),
:func:`_session_attach_shm` (map the cross-slot rings and the round
barrier), :func:`_session_run_block` (replay deltas, refresh invalidated
keys and stale stores, then run K rounds of this slot's machines, routing
their frames), :func:`_session_flush` (surrender every held frame to the
driver) and :func:`_session_close` (release everything).  Sessions are
driven from :class:`ResidentSession`, which :meth:`Cluster.session` opens
around a superstep round loop; without an active session the backend is
``fast`` (supersteps run sequentially in the driver).  Machine ``i`` lives
on slot ``i % slots``.  The slot count is bounded by
``DMPCConfig.shard_count`` and the host's real CPU parallelism unless
``DMPCConfig.resident_slots`` pins it — a single resident slot is still
the full residency + locality win (every message is then slot-local), just
without fan-out.

Sound replay leans on the delta-replay contract of
:mod:`repro.mpc.program`: ``apply`` deterministic in its arguments, every
key it touches declared in ``shared_reads``/``shared_writes``, and
out-of-band driver mutations reported via ``session.touch``.  A session
that would need a key mid-run it has no resident copy of simply ships it
fresh at that point (and drops the now-redundant replay backlog for the
slot), so late-appearing programs are correct, just less incremental.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.exceptions import MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc.contract import checked_apply_view, contract_checking_enabled
from repro.mpc.message import Message
from repro.mpc.metrics import RoundRecord
from repro.mpc.program import (
    SuperstepProgram,
    WorkerMachineContext,
    fusable_interior,
    store_subset,
)
from repro.mpc.sizing import fast_word_size
from repro.runtime.base import ExecutionSession, register_backend, run_in_driver
from repro.runtime.fast import FastBackend, FastTransport, by_registration
from repro.runtime.wire import (
    FRAME_HEADER,
    ShmRing,
    ShmRoundBarrier,
    decode_obj,
    encode_obj,
    pack_inbox,
    unpack_inbox,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.mpc.cluster import Cluster
    from repro.mpc.machine import Machine

__all__ = ["ResidentBackend", "ResidentSession", "ResidentTransport", "ResidentWorkerError"]

_PICKLE = pickle.HIGHEST_PROTOCOL

#: slot cap when ``DMPCConfig.shard_count`` is unset
DEFAULT_SLOT_CAP = 4

class ResidentWorkerError(RuntimeError):
    """A resident worker process died mid-session (its state is lost)."""


# ---------------------------------------------------------------- worker side
class _SessionState:
    """What one worker process holds resident for one session."""

    __slots__ = (
        "programs",
        "shared",
        "stores",
        "store_versions",
        "local",
        "pending",
        "rings_in",
        "rings_out",
        "machine_slots",
        "barrier",
    )

    def __init__(self) -> None:
        #: program key -> unpickled program (shipped once per slot)
        self.programs: dict[int, SuperstepProgram] = {}
        #: resident copy of the session's shared slice, kept in sync by
        #: replaying merged deltas (plus explicit refreshes)
        self.shared: dict[str, Any] = {}
        #: (machine id, store_reads prefixes) -> resident store snapshot
        self.stores: dict[tuple[str, tuple[str, ...] | None], dict] = {}
        #: machine id -> storage version epoch its snapshots were taken at;
        #: a newer epoch evicts every prefix snapshot of the machine at once
        self.store_versions: dict[str, int] = {}
        #: receiver machine id -> same-slot messages held for its next run,
        #: one ``(epoch, [Message, ...])`` chunk per round that sent any, in
        #: arrival order — which within one slot is reference order
        self.local: dict[str, list[tuple[int, list[Message]]]] = {}
        #: receiver machine id -> cross-slot frames (ring or driver forward)
        #: held for its next run, each ``(epoch, sender_index, seq, sender,
        #: receiver, tag, payload, words)`` — the first three fields are the
        #: global sort key that restores the reference delivery order
        self.pending: dict[str, list[tuple]] = {}
        #: source slot -> ring this worker reads cross-slot frames from
        self.rings_in: dict[int, ShmRing] = {}
        #: destination slot -> ring this worker writes cross-slot frames to
        self.rings_out: dict[int, ShmRing] = {}
        #: machine id -> (registration index, worker slot): the routing map,
        #: re-shipped whenever the driver's map version moves
        self.machine_slots: dict[str, tuple[int, int]] = {}
        #: the fused-block round barrier this worker announces/waits on
        self.barrier: "ShmRoundBarrier | None" = None

    def release_rings(self) -> None:
        for ring in (*self.rings_in.values(), *self.rings_out.values()):
            ring.close()
        self.rings_in.clear()
        self.rings_out.clear()
        if self.barrier is not None:
            self.barrier.close()
            self.barrier = None


_EMPTY_STORE: dict = {}


#: a frame's reference delivery order: round epoch, sender registration, staging seq
_frame_sort_key = itemgetter(0, 1, 2)


def _frame_message(frame: tuple) -> Message:
    return Message(sender=frame[3], receiver=frame[4], tag=frame[5], payload=frame[6], words=frame[7])


def _local_frames(chunks: "list[tuple[int, list[Message]]]", machine_slots: dict) -> "list[tuple]":
    """Key held same-slot messages as frames, for a merge with cross-slot ones.

    A sender's messages all take one path to a receiver, so ``(epoch,
    sender_index)`` never ties across paths; the chunk position keeps a
    sender's staging order.
    """
    return [
        (epoch, machine_slots[m.sender][0], seq, m.sender, m.receiver, m.tag, m.payload, m.words)
        for epoch, messages in chunks
        for seq, m in enumerate(messages)
    ]


def _ingest_rings(state: _SessionState) -> None:
    """Drain every inbound ring into the pending map (deterministic order)."""
    for src_slot in sorted(state.rings_in):
        for blob in state.rings_in[src_slot].read_all():
            frame = decode_obj(blob)
            state.pending.setdefault(frame[4], []).append(frame)


def _due_inbox(state: _SessionState, machine_id: str, epoch: int, drop_inbox: bool, packed_inbox: Any) -> "list[Message]":
    """``machine_id``'s inbox for round ``epoch`` of a slot-routed run.

    The driver-shipped messages come first (they are from strictly earlier
    arrivals — the driver flushes worker-held frames before any driver-side
    delivery), then the held messages that are due: every same-slot one, in
    held (reference) order, and the cross-slot frames with ``epoch <`` the
    current round — a faster peer may already have written *this* round's
    frames into our ring, and those wait one round.  Only a receiver with
    due messages of both kinds sorts, by the global key.  A ``drop_inbox``
    program consumes its due messages unseen.
    """
    chunks = state.local.pop(machine_id, None)
    pending = state.pending
    held = pending.get(machine_id)
    ready: "list[tuple]" = []
    if held:
        ready = [f for f in held if f[0] < epoch]
        if ready:
            later = [f for f in held if f[0] >= epoch]
            if later:
                pending[machine_id] = later
            else:
                del pending[machine_id]
    if drop_inbox:
        return []
    inbox = unpack_inbox(packed_inbox)
    if ready:
        if chunks:
            ready += _local_frames(chunks, state.machine_slots)
        ready.sort(key=_frame_sort_key)
        inbox.extend(_frame_message(f) for f in ready)
    elif chunks:
        for _, messages in chunks:
            inbox += messages
    return inbox


def _commit_frames(
    state: _SessionState, staged: "list[tuple[int, list[Message]]]", epoch: int, my_slot: int, io_cap: bool
) -> tuple:
    """Route one round's staged messages and summarize the round for its record.

    ``staged`` holds ``(sender index, messages)`` per machine that ran.
    Same-slot messages join the held ``local`` chunks as they are; a
    cross-slot message becomes a keyed frame for its shm ring, or overflow
    for the driver's pipe forward path when it does not fit, or fallback
    when its receiver is outside the routing map.  Returns ``(summary,
    traffic, overflow, fallback)``: ``summary`` is ``(total_words,
    message_count, max_words, senders, receivers, sent_words,
    received_words)`` — O(machines): the per-machine words only under the
    I/O cap — and ``traffic`` is ``(local, ring frames, ring bytes,
    overflow count)``.
    """
    machine_slots = state.machine_slots
    rings_out = state.rings_out
    local: "dict[str, list[Message]]" = {}
    remote: "set[str]" = set()
    senders: "list[str]" = []
    total = count = largest = local_count = ring_frames = ring_bytes = 0
    sent_words: "dict[str, int]" = {}
    received_words: "dict[str, int]" = {}
    overflow: "list[tuple[int, tuple]]" = []
    fallback: "list[tuple]" = []
    # Senders in registration order: same-slot messages then arrive in
    # reference order, whatever order the targets ran in.
    staged.sort(key=itemgetter(0))
    for index, sent in staged:
        if not sent:
            continue
        sender = sent[0].sender
        senders.append(sender)
        count += len(sent)
        sent_total = 0
        for seq, msg in enumerate(sent):
            receiver = msg.receiver
            words = msg.words
            sent_total += words
            if words > largest:
                largest = words
            if io_cap:
                received_words[receiver] = received_words.get(receiver, 0) + words
            info = machine_slots.get(receiver)
            if info is not None and info[1] == my_slot:
                held = local.get(receiver)
                if held is None:
                    local[receiver] = [msg]
                else:
                    held.append(msg)
                continue
            remote.add(receiver)
            frame = (epoch, index, seq, sender, receiver, msg.tag, msg.payload, words)
            if info is None:
                fallback.append(frame)
                continue
            ring = rings_out.get(info[1])
            # Sizer-derived quick reject: words bound the marshalled bytes
            # to within a small constant, so a frame that cannot possibly
            # fit skips the encode entirely.
            if ring is not None and words * 8 + FRAME_HEADER <= ring.capacity + 64:
                blob = encode_obj(frame)
                if ring.write(blob):
                    ring_frames += 1
                    ring_bytes += len(blob) + FRAME_HEADER
                    continue
            overflow.append((info[1], frame))
        total += sent_total
        if io_cap:
            sent_words[sender] = sent_total
    for receiver, messages in local.items():
        local_count += len(messages)
        state.local.setdefault(receiver, []).append((epoch, messages))
    return (
        (total, count, largest, senders, [*local, *remote], sent_words, received_words),
        (local_count, ring_frames, ring_bytes, len(overflow)),
        overflow,
        fallback,
    )


class _RoutingMachineContext(WorkerMachineContext):
    """Worker view for slot-routed rounds: stages each send as a sized :class:`Message`.

    ``words`` is computed exactly once, here, by the same
    :func:`fast_word_size` the resident transport charges with, and reused
    by local delivery, ring-capacity checks and the round summary.  A
    same-slot message reaches its receiver's inbox as this very object;
    only a message leaving the slot is keyed into a frame, at commit.
    """

    __slots__ = ()

    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        if words is None:
            words = fast_word_size(tag) + fast_word_size(payload)
        self.sent.append(Message(self._machine_id, receiver, tag, payload, words))

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        sender = self._machine_id
        self.sent.extend([Message(sender, receiver, tag, payload, words) for receiver, payload, words in sends])


def _session_open(sessions: "dict[str, _SessionState]", session_id: str) -> bool:
    """Protocol op: create the resident state for a session (idempotent)."""
    if session_id not in sessions:
        sessions[session_id] = _SessionState()
    return True


def _session_attach_shm(
    sessions: "dict[str, _SessionState]",
    session_id: str,
    rings_in: "list[tuple[int, str]]",
    rings_out: "list[tuple[int, str]]",
    barrier: "tuple[str, int] | None" = None,
) -> int:
    """Protocol op: attach the cross-slot shared-memory rings by name.

    Best-effort by design: a ring that cannot be attached (shm unavailable,
    unlinked early) is simply absent from the worker's map, so every frame
    for that destination takes the pipe-fallback path — slower, never
    wrong.  ``barrier`` is the fused-block round barrier as ``(shm name,
    slot count)``; attaching it is best-effort too — a fused block arriving
    without one fails loudly instead of running unsynchronized.  Returns
    how many rings are attached afterwards.
    """
    state = sessions.get(session_id)
    if state is None:
        state = sessions[session_id] = _SessionState()
    for rings, specs in ((state.rings_in, rings_in), (state.rings_out, rings_out)):
        for peer_slot, name in specs:
            if peer_slot not in rings:
                try:
                    rings[peer_slot] = ShmRing.attach(name)
                except Exception:  # pragma: no cover - environment dependent
                    pass
    if barrier is not None and state.barrier is None:
        try:
            state.barrier = ShmRoundBarrier.attach(barrier[0], barrier[1])
        except Exception:  # pragma: no cover - environment dependent
            pass
    return len(state.rings_in) + len(state.rings_out)


def _session_flush(sessions: "dict[str, _SessionState]", session_id: str) -> "list[tuple]":
    """Protocol op: surrender every slot-routed frame held at this worker.

    Rings are ingested first, so frames a peer slot wrote that this worker
    has not looked at yet are included, and held same-slot messages are
    keyed into frames here.  Called behind the barrier (no round in
    flight), hence every held frame is deliverable; the driver merges the
    returned frames by their global sort key.
    """
    state = sessions.get(session_id)
    if state is None:
        return []
    _ingest_rings(state)
    frames: "list[tuple]" = []
    for held in state.pending.values():
        frames += held
    for chunks in state.local.values():
        frames += _local_frames(chunks, state.machine_slots)
    state.pending.clear()
    state.local.clear()
    return frames


def _sync_session_state(
    sessions: "dict[str, _SessionState]",
    session_id: str,
    new_programs: "dict[int, bytes]",
    replay: "list[tuple[int, list[tuple[str, Any]]]]",
    shared_init: "dict[str, Any]",
    store_updates: "list[tuple[str, tuple[str, ...] | None, int, bytes]]",
) -> _SessionState:
    """Bring one session's resident state up to date (the block op's first step).

    Ordering is the heart of the sync: (1) replay the previous barriers'
    merged deltas — the same ``(machine_id, delta)`` sequence, in the same
    target order, through the same ``program.apply`` the driver ran — then
    (2) overwrite with ``shared_init``, the fresh values of keys the driver
    invalidated (whose snapshots already contain every merged delta), then
    (3) refresh store snapshots whose version epoch moved.  Step 2 after
    step 1 makes refreshes idempotent with replay; a key is never left
    reflecting a delta the driver's copy has superseded.
    """
    state = sessions.get(session_id)
    if state is None:  # open lost to a worker restart — start clean
        state = sessions[session_id] = _SessionState()
    for key, blob in new_programs.items():
        state.programs[key] = pickle.loads(blob)
    shared = state.shared
    for pkey, entries in replay:
        program = state.programs[pkey]
        for machine_id, delta in entries:
            program.apply(shared, machine_id, delta)
    if shared_init:
        shared.update(shared_init)
    for machine_id, prefixes, version, blob in store_updates:
        if state.store_versions.get(machine_id) != version:
            for key in [k for k in state.stores if k[0] == machine_id]:
                del state.stores[key]
            state.store_versions[machine_id] = version
        state.stores[(machine_id, prefixes)] = pickle.loads(blob)
    return state


def _session_run_block(
    sessions: "dict[str, _SessionState]",
    session_id: str,
    new_programs: "dict[int, bytes]",
    replay: "list[tuple[int, list[tuple[str, Any]]]]",
    shared_init: "dict[str, Any]",
    store_updates: "list[tuple[str, tuple[str, ...] | None, int, bytes]]",
    batch: "list[tuple[str, Any]]",
    block: "dict[str, Any]",
) -> tuple:
    """Protocol op: sync resident state, then run ``len(block["rounds"])`` rounds.

    One sync (exactly :func:`_sync_session_state`), then K ≥ 1
    consecutive rounds executed entirely inside the worker; a K = 1 block
    is a plain superstep.  ``block`` keys: ``"epoch0"`` (the first round's
    index — frames are keyed by it), ``"slot"`` (this worker's slot),
    ``"map"`` (the full ``{machine id: (index, slot)}`` routing map when
    the driver's copy moved, else ``None``), ``"forward"`` (pipe-fallback
    frames of earlier rounds to merge into pending), ``"rounds"`` (one
    ``(program key, drop_inbox)`` spec per round) and
    ``"barrier"`` (``(base, participating slots)`` for a multi-slot block
    of K ≥ 2, else ``None``) and ``"io_cap"`` (the cluster's
    ``enforce_io_cap``: what a round summary carries).  Each round ``r``
    (global epoch ``epoch0 + r``):

    1. ingest the inbound rings and serve this round's *due* messages
       (:func:`_due_inbox`) — round 0 also serves the driver-shipped
       inboxes, later rounds have none by construction (the driver does no
       work between fused rounds).  A ``drop_inbox`` program consumes its
       due messages unseen;
    2. run the machines, each through a :class:`_RoutingMachineContext`;
    3. commit: same-slot messages to the held chunks, cross-slot frames to
       the shm rings; a frame without a ring (overflow, or no rings
       attached) sets the *stop* flag — it needs the driver's pipe forward
       path, so the block must end at this boundary;
    4. self-apply this slot's own machines' ``owner``-scoped deltas —
       final round included, so the driver never echoes them back (``global``-scoped interior programs have no-op applies;
       other scopes take the driver's barrier replay).  Under
       ``REPRO_CHECK_CONTRACTS`` the apply runs against the same
       :func:`~repro.mpc.contract.checked_apply_view` the driver uses;
    5. announce ``base + r + 1`` on the round barrier (stop bit included)
       and wait for every participating peer — a peer's stop at exactly
       this boundary ends our block too, so all slots commit the same
       number of rounds.  Blocks without a barrier wait on nothing.

    Returns ``("block", completed, per_round, stopped)`` where
    ``per_round[r]`` is ``("routed", deltas, summary, traffic, overflow,
    fallback)`` (see :func:`_commit_frames`), letting the driver rebuild
    every :class:`RoundRecord` round by round.
    """
    state = _sync_session_state(
        sessions, session_id, new_programs, replay, shared_init, store_updates
    )
    my_slot = block["slot"]
    epoch0 = block["epoch0"]
    new_map = block.get("map")
    if new_map is not None:
        state.machine_slots = new_map
    machine_slots = state.machine_slots
    pending = state.pending
    for frame in block["forward"]:
        pending.setdefault(frame[4], []).append(frame)
    rounds = block["rounds"]
    io_cap = block.get("io_cap", False)
    barrier: "ShmRoundBarrier | None" = None
    base = 0
    peers: "list[int]" = []
    barrier_spec = block.get("barrier")
    if barrier_spec is not None:
        base, participants = barrier_spec
        barrier = state.barrier
        if barrier is None:
            raise RuntimeError(
                f"resident worker slot {my_slot} has no round barrier attached "
                f"for a fused block"
            )
        peers = [slot for slot in participants if slot != my_slot]
    checking = contract_checking_enabled()
    shared = state.shared
    last_round = len(rounds) - 1
    per_round: "list[tuple]" = []
    stopped = False
    for r, (program_key, drop_inbox) in enumerate(rounds):
        epoch = epoch0 + r
        program = state.programs[program_key]
        prefixes = program.store_reads
        _ingest_rings(state)
        deltas: "list[tuple[str, Any]]" = []
        staged: "list[tuple[int, list[Message]]]" = []
        for machine_id, packed_inbox in batch:
            # Driver-shipped inboxes exist only for round 0; every later
            # round's messages are worker frames by construction.
            inbox = _due_inbox(state, machine_id, epoch, drop_inbox, packed_inbox if r == 0 else ())
            ctx = _RoutingMachineContext(machine_id, state.stores.get((machine_id, prefixes), _EMPTY_STORE))
            deltas.append((machine_id, program.run(ctx, inbox, shared)))
            staged.append((machine_slots[machine_id][0], ctx.sent))
        summary, traffic, overflow, fallback = _commit_frames(state, staged, epoch, my_slot, io_cap)
        per_round.append(("routed", deltas, summary, traffic, overflow, fallback))
        # Overflowed frames need the driver's pipe forward path before
        # their consuming round — the block ends at this boundary.
        stopped = bool(overflow)
        # Owner scope makes this slot's own application sufficient: the
        # next round reads current owned state, and the driver queues no
        # replay of these deltas (the rule is static, so both sides agree).
        if program.delta_scope == "owner" and type(program).apply is not SuperstepProgram.apply:
            view = checked_apply_view(program, shared) if checking else shared
            for machine_id, delta in deltas:
                program.apply(view, machine_id, delta)
        if barrier is not None:
            barrier.announce(my_slot, base + r + 1, stop=stopped)
            if not stopped and r < last_round:
                if barrier.wait(base + r + 1, peers, poll=lambda: _ingest_rings(state)):
                    stopped = True  # a peer ended the block at this boundary
        if stopped:
            break
    return ("block", len(per_round), per_round, stopped)


def _session_close(sessions: "dict[str, _SessionState]", session_id: str) -> bool:
    """Protocol op: release everything the session held in this worker."""
    state = sessions.pop(session_id, None)
    if state is None:
        return False
    state.release_rings()
    return True


def _worker_main(conn: "Connection") -> None:
    """The persistent worker loop: one pickled request in, one reply out.

    Every request gets exactly one reply (``("ok", value)`` or ``("err",
    exception)``), so the driver can pipeline requests and drain replies in
    send order.  The loop exits on EOF (driver gone) or an explicit
    ``stop``.  Session state lives in a local dict — nothing leaks across
    worker restarts, and the protocol functions stay directly unit-testable
    in-process.
    """
    sessions: dict[str, _SessionState] = {}
    ops = {
        "open": _session_open,
        "attach_shm": _session_attach_shm,
        "run_block": _session_run_block,
        "flush": _session_flush,
        "close": _session_close,
        "sessions": lambda sess: sorted(sess),
    }
    while True:
        try:
            request = decode_obj(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if request[0] == "stop":
            try:
                conn.send_bytes(encode_obj(("ok", True)))
            except (BrokenPipeError, OSError):
                pass  # driver already closed its end; exit cleanly anyway
            return
        try:
            result: Any = ("ok", ops[request[0]](sessions, *request[1:]))
        except BaseException as exc:  # noqa: BLE001 - shipped to the driver
            result = ("err", exc)
        try:
            blob = encode_obj(result)
        except Exception:  # unserializable result/exception: keep the
            # original diagnostic (its repr), not the encoder's complaint
            blob = encode_obj(("err", RuntimeError(f"unserializable worker {result[0]}: {result[1]!r}")))
        conn.send_bytes(blob)


# ---------------------------------------------------------------- driver side
#: monotone id stamped on every spawned worker, so sessions can detect that
#: a slot's process was respawned underneath them (their "already shipped"
#: bookkeeping describes the dead worker and must be reset).
_WORKER_GENERATIONS = itertools.count()


class _SlotWorker:
    """Driver-side handle for one persistent worker process.

    Slot workers are process-wide and the pipe protocol is strictly
    request/reply aligned, so concurrent drivers (two clusters on two
    threads) must not interleave on one pipe: :attr:`lock` serializes one
    driver's request→reply group against another's.  Multi-slot rounds
    acquire locks in slot order, so lock ordering is globally consistent.
    """

    __slots__ = ("index", "generation", "process", "conn", "lock")

    def __init__(self, index: int) -> None:
        from multiprocessing import get_context

        ctx = get_context("spawn")  # fork is unsafe under threads; match the pools
        parent, child = ctx.Pipe()
        self.index = index
        self.generation = next(_WORKER_GENERATIONS)
        self.lock = threading.Lock()
        self.process = ctx.Process(
            target=_worker_main, args=(child,), daemon=True, name=f"repro-resident-slot-{index}"
        )
        self.process.start()
        child.close()
        self.conn = parent

    def request(self, op: tuple) -> None:
        """Pipeline one protocol request (reply collected by :meth:`reply`)."""
        try:
            self.conn.send_bytes(encode_obj(op))
        except (BrokenPipeError, OSError) as exc:
            raise ResidentWorkerError(f"resident worker slot {self.index} died") from exc

    def reply(self) -> Any:
        try:
            status, value = decode_obj(self.conn.recv_bytes())
        except (EOFError, OSError) as exc:
            raise ResidentWorkerError(f"resident worker slot {self.index} died") from exc
        if status == "err":
            raise value
        return value

    def call(self, op: tuple) -> Any:
        with self.lock:
            self.request(op)
            return self.reply()

    def drain(self, outstanding: int, timeout: float = 5.0) -> bool:
        """Consume ``outstanding`` pending replies to realign the pipe.

        Used when a round is aborted after requests were pipelined: the
        worker will still produce one reply per request, and leaving them
        unread would permanently desync request/reply alignment for every
        later session sharing this worker.  Returns ``False`` when the
        worker cannot be realigned (dead, or still busy past ``timeout``) —
        the caller must evict it then.
        """
        for _ in range(outstanding):
            try:
                if not self.conn.poll(timeout):
                    return False
                self.conn.recv_bytes()
            except (EOFError, OSError):
                return False
        return True

    def stop(self) -> None:
        try:
            self.conn.send_bytes(encode_obj(("stop",)))
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()


#: process-wide worker slots, shared by every session in the interpreter
#: (state is namespaced per session id) so the spawn cost is paid once.
_SLOT_WORKERS: dict[int, _SlotWorker] = {}
_SLOT_LOCK = threading.Lock()

_SESSION_IDS = itertools.count()


def _slot_worker(index: int) -> _SlotWorker:
    worker = _SLOT_WORKERS.get(index)
    if worker is None or not worker.process.is_alive():
        with _SLOT_LOCK:
            worker = _SLOT_WORKERS.get(index)
            if worker is None or not worker.process.is_alive():
                worker = _SlotWorker(index)
                _SLOT_WORKERS[index] = worker
    return worker


def _peek_slot_worker(index: int) -> "_SlotWorker | None":
    """The live worker for a slot, or ``None`` — never spawns.

    For teardown paths (close, discard): a dead slot holds no session
    state, so spawning a fresh process just to tell it to forget nothing
    would be pure startup waste.
    """
    worker = _SLOT_WORKERS.get(index)
    if worker is None or not worker.process.is_alive():
        return None
    return worker


def _evict_slot_worker(index: int, observed: "_SlotWorker | None" = None) -> None:
    """Forget a dead slot worker so the next session spawns a fresh one.

    ``observed`` is the worker handle the caller actually failed against:
    eviction is a no-op when the registry already holds a different
    (replacement) worker, so one session's failure can never stop a healthy
    worker another driver respawned and is using.
    """
    with _SLOT_LOCK:
        current = _SLOT_WORKERS.get(index)
        if current is None or (observed is not None and current is not observed):
            return
        del _SLOT_WORKERS[index]
        worker = current
    if worker.process.is_alive():  # pragma: no cover - rarely still alive
        worker.stop()


class _SlotState:
    """Driver-side book-keeping for one worker slot of one session."""

    __slots__ = (
        "opened",
        "worker_generation",
        "resident_keys",
        "dirty",
        "pending",
        "shipped_programs",
        "store_versions",
        "map_version",
        "rings_attached",
        "barrier_attached",
    )

    def __init__(self) -> None:
        self.opened = False
        #: generation of the worker process this bookkeeping describes;
        #: a mismatch means the worker was respawned and nothing below holds
        self.worker_generation: int | None = None
        #: shared keys whose current value is resident at the worker
        self.resident_keys: set[str] = set()
        #: shared keys invalidated by out-of-band driver mutation (touch)
        self.dirty: set[str] = set()
        #: merged-delta backlog not yet replayed at this slot, in barrier
        #: order: (program key, [(machine id, delta), ...] in target order)
        self.pending: "list[tuple[int, list[tuple[str, Any]]]]" = []
        #: program keys whose pickled blob the worker already holds
        self.shipped_programs: set[int] = set()
        #: (machine id, prefixes) -> storage version epoch last shipped
        self.store_versions: dict[tuple[str, tuple[str, ...] | None], int] = {}
        #: version of the routing map last shipped to this slot (-1 = never)
        self.map_version = -1
        #: whether the cross-slot rings were attached at this worker
        self.rings_attached = False
        #: whether the fused-block round barrier was attached at this worker
        self.barrier_attached = False

    def reset_for(self, generation: int) -> None:
        """Forget everything shipped to a previous (dead) worker process.

        With the bookkeeping empty, the next request re-ships programs,
        shared keys and store snapshots wholesale — the fresh worker starts
        exactly like a first participation.  The replay backlog is dropped
        because the fresh snapshots already contain those merged deltas.
        """
        self.__init__()
        self.worker_generation = generation


class ResidentSession(ExecutionSession):
    """One run's residency contract between a cluster and its worker slots."""

    resident = True

    def __init__(self, backend: "ResidentBackend", cluster: "Cluster", shared: "dict[str, Any]", slots: int) -> None:
        super().__init__(cluster, shared)
        self.backend = backend
        self.transport = cluster._transport
        self.session_id = f"resident-{os.getpid()}-{next(_SESSION_IDS)}"
        self.slot_count = slots
        self._slots = [_SlotState() for _ in range(slots)]
        #: id(program) -> program key (programs are frozen; identity is
        #: stable because _programs also keeps a strong reference)
        self._program_keys: dict[int, int] = {}
        #: program key -> (program, pickled blob)
        self._programs: dict[int, tuple[SuperstepProgram, bytes]] = {}
        #: resident rounds that actually crossed the process boundary
        #: (rounds the driver runs itself do not count)
        self.worker_rounds = 0
        self._broken = False
        # ---- slot-local routing state -------------------------------------
        #: machine id -> (registration index, worker slot), the routing map
        #: shipped to workers whenever :attr:`_map_version` moves
        self._machine_info: dict[str, tuple[int, int]] = {}
        self._map_count = -1
        self._map_version = 0
        #: per slot: receivers with frames held at (or in flight to) that
        #: slot's worker — who to ask when the driver needs an inbox whole
        self._remote_pending: "list[set[str]]" = [set() for _ in range(slots)]
        #: per slot: pipe-fallback frames the driver forwards with that
        #: slot's next block request (ring overflow takes this path)
        self._forward: "list[list[tuple]]" = [[] for _ in range(slots)]
        #: union of receivers with any worker- or driver-held routed frame
        self._pending_ids: set[str] = set()
        #: True while block requests are being built under the slot locks —
        #: the drain() hook must not re-enter the workers then
        self._suppress_sync = False
        #: cross-slot shm rings as a [src][dst] matrix; ``None`` = not
        #: created yet, ``[]`` = shm unavailable (pipe fallback for all)
        self._rings: "list[list[ShmRing | None]] | None" = None
        # ---- fused round blocks -------------------------------------------
        #: the shm round barrier multi-slot fused blocks synchronize on;
        #: created lazily by the first one
        self._barrier: "ShmRoundBarrier | None" = None
        #: barrier creation failed (shm unavailable) — every block is K = 1
        self._barrier_failed = False
        #: monotone barrier count base across this session's fused blocks —
        #: a cell left stopped by one block then reads as *behind* every
        #: threshold of the next
        self._barrier_base = 0
        #: session-total wire-path counters (per-round numbers go to the
        #: metrics ledger through the transport deposit)
        self.local_messages = 0
        self.cross_slot_messages = 0
        self.shm_bytes = 0
        self.pipe_fallbacks = 0
        self.shm_frames = 0
        if self.transport.inbox_router is None:
            self.transport.inbox_router = self

    # ------------------------------------------------------------- invalidation
    def touch(self, *keys: str) -> None:
        for slot in self._slots:
            slot.dirty.update(keys)

    # ----------------------------------------------------------------- programs
    def _program_key(self, program: SuperstepProgram) -> int:
        key = self._program_keys.get(id(program))
        if key is None:
            key = len(self._programs)
            blob = pickle.dumps(program, protocol=_PICKLE)
            self._program_keys[id(program)] = key
            self._programs[key] = (program, blob)
        return key

    # -------------------------------------------------------------------- round
    def _slot_of(self, machine: "Machine") -> int:
        return machine.index % self.slot_count

    def _sync_payload(
        self,
        slot: _SlotState,
        programs: "list[SuperstepProgram]",
        program_keys: "list[int]",
        machines: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> tuple:
        """What one slot needs before it runs ``programs``: only what is new or stale.

        Returns ``(new_programs, replay, shared_init, store_updates,
        batch)`` — the sync arguments of the ``run_block`` op.  Programs, shared keys and store snapshots are the union over
        ``programs``; the inbox batch belongs to the first of them.
        """
        backend = self.backend
        # Programs the slot needs: the ones running, plus any whose backlog
        # deltas will be replayed.
        needed_programs = set(program_keys)
        needed_programs.update(pkey for pkey, _ in slot.pending)
        new_programs = {
            key: self._programs[key][1] for key in sorted(needed_programs - slot.shipped_programs)
        }

        # Shared keys those programs read or merge into.
        needed: "set[str]" = set()
        for program in programs:
            needed.update(program.session_keys())
        for pkey, _ in slot.pending:
            needed.update(self._programs[pkey][0].session_keys())
        new_keys = needed - slot.resident_keys
        if slot.pending and new_keys:
            # The backlog references keys with no resident copy (first
            # participation, or a program appeared mid-session): replay
            # would KeyError or double-apply against a fresh snapshot.
            # Ship every needed key fresh instead — the snapshots already
            # contain the backlog's merged effects.
            replay: "list[tuple[int, list[tuple[str, Any]]]]" = []
            init_keys = set(needed)
        else:
            replay = slot.pending
            init_keys = new_keys | (slot.dirty & needed)
        slot.pending = []
        try:
            shared_init = {key: shared[key] for key in sorted(init_keys)}
        except KeyError as exc:
            raise KeyError(
                f"{type(programs[0]).__name__} session needs shared key {exc.args[0]!r} "
                f"but the session's shared state only has {sorted(shared)!r}"
            ) from None
        slot.resident_keys |= init_keys
        slot.dirty -= init_keys

        # Store snapshots whose version epoch moved (or never shipped).
        store_updates = []
        seen_prefixes: "set[tuple[str, ...] | None]" = set()
        for program in programs:
            prefixes = program.store_reads
            if (prefixes is None or prefixes) and prefixes not in seen_prefixes:
                seen_prefixes.add(prefixes)
                for machine in machines:
                    version = machine.storage.version
                    store_key = (machine.machine_id, prefixes)
                    if slot.store_versions.get(store_key) != version:
                        store_updates.append(
                            (machine.machine_id, prefixes, version, backend._store_blob(machine, prefixes))
                        )
                        slot.store_versions[store_key] = version

        if programs[0].reads_inbox:
            batch = [(machine.machine_id, pack_inbox(machine.drain())) for machine in machines]
        else:
            # The program never looks at its inbox: drain driver-side (the
            # consumed-inbox semantics stand) and ship empty ones.
            batch = []
            for machine in machines:
                machine.drain()
                batch.append((machine.machine_id, ()))
        slot.shipped_programs.update(new_programs)
        return new_programs, replay, shared_init, store_updates, batch

    def _queue_replay(
        self, program: SuperstepProgram, program_key: int, pairs: "list[tuple[Machine, Any]]"
    ) -> None:
        """Queue one barrier's merged deltas for worker-side replay.

        Routing follows the program's declared ``delta_scope``: ``global``
        deltas go to every slot (including the originators — workers do not
        apply their own global deltas; the barrier is driver-owned),
        ``owner`` deltas only to the slot hosting the machine that produced
        them, and ``driver`` deltas nowhere (no ``run`` ever reads their
        effects).  Rounds the workers routed never get here with ``owner``
        deltas: the owning slot already self-applied them.
        """
        if type(program).apply is SuperstepProgram.apply:
            return
        scope = program.delta_scope
        if scope == "driver":
            return
        if scope == "owner":
            per_slot: "dict[int, list[tuple[str, Any]]]" = {}
            for machine, delta in pairs:
                per_slot.setdefault(self._slot_of(machine), []).append((machine.machine_id, delta))
            for slot_index, entries in per_slot.items():
                self._slots[slot_index].pending.append((program_key, entries))
            return
        if scope != "global":
            raise ValueError(f"{type(program).__name__} declares unknown delta_scope {scope!r}")
        entries = [(machine.machine_id, delta) for machine, delta in pairs]
        for slot in self._slots:
            slot.pending.append((program_key, entries))

    # ------------------------------------------------------------------ blocks
    def run_round(
        self,
        cluster: "Cluster",
        program: SuperstepProgram,
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "RoundRecord":
        """One resident superstep: a block of K = 1."""
        return self._run_span(cluster, [program], targets, shared)[0]

    def run_block(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        """Run a program span as consecutive round blocks (see :meth:`_run_span`)."""
        return self._run_span(cluster, programs, targets, shared)

    def _run_span(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        """Segment a span into blocks and run them, one driver round trip each.

        Segmentation is static — from the programs' contract declarations
        (:meth:`_fusable_span`) — and greedy: the longest fusable prefix at
        each position ships as one block, a position that cannot fuse as a
        block of K = 1, and a block stopped early by a ring overflow resumes
        with the next block at the first round it did not run.  A round
        whose sends the driver reads (``driver_reads_sends``), or one behind
        driver-staged sends, runs in the driver (:meth:`_run_in_driver`); a
        broken session falls back to ``fast``'s sequential superstep.
        """
        records: "list[RoundRecord]" = []
        i = 0
        while i < len(programs):
            if self._broken:
                records.append(FastBackend.run_superstep(self.backend, cluster, programs[i], targets, shared))
                i += 1
            elif programs[i].driver_reads_sends or self.transport.has_staged():
                records.append(self._run_in_driver(cluster, programs[i], targets, shared))
                i += 1
            else:
                block = self._run_block(cluster, programs[i : i + self._fusable_span(programs, i)], targets, shared)
                records.extend(block)
                i += len(block)
        return records

    def _fusable_span(self, programs: "list[SuperstepProgram]", start: int) -> int:
        """Length of the block starting at ``start``: its worker-drivable rounds, at least 1.

        A round is worker-drivable by declaration (:func:`fusable_interior`).
        """
        count = len(programs)
        end = start
        while end < count and fusable_interior(programs[end]):
            end += 1
        return max(1, end - start)

    def _run_in_driver(
        self,
        cluster: "Cluster",
        program: SuperstepProgram,
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "RoundRecord":
        """One round the workers do not route, run where the driver's inboxes live.

        The driver reads the round's sends, or driver-staged sends must not
        interleave with worker-routed frames mid-round — so every
        worker-held frame comes home first, then the round runs in the
        driver with the usual barrier.  The deltas still queue for
        worker-side replay, so the resident shared copies stay in sync for
        the next block.
        """
        self._flush_all()
        deltas = run_in_driver(program, targets, shared)
        self._queue_replay(program, self._program_key(program), list(zip(targets, deltas)))
        self.rounds_run += 1
        return cluster.exchange()

    def _block_request(
        self,
        slot_index: int,
        programs: "list[SuperstepProgram]",
        program_keys: "list[int]",
        machines: "list[Machine]",
        shared: "dict[str, Any]",
        block: "dict[str, Any]",
    ) -> tuple:
        """Assemble one slot's ``run_block`` request.

        The sync payload covers the whole block (:meth:`_sync_payload`):
        the inbox batch belongs to round 0 because later rounds have worker
        frames only — the driver does no work in between.  ``block`` holds
        the slot-independent keys (first epoch, per-round specs, barrier);
        this slot's routing update and forwarded frames join them.
        """
        slot = self._slots[slot_index]
        sync = self._sync_payload(slot, programs, program_keys, machines, shared)
        map_update = None
        if slot.map_version != self._map_version:
            map_update = self._machine_info
            slot.map_version = self._map_version
        forward = self._forward[slot_index]
        if forward:
            self._forward[slot_index] = []
            rp = self._remote_pending[slot_index]
            for frame in forward:
                rp.add(frame[4])
        return (
            "run_block",
            self.session_id,
            *sync,
            {**block, "slot": slot_index, "map": map_update, "forward": forward},
        )

    def _run_block(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        """One block: one pipe round trip for up to ``len(programs)`` rounds.

        Returns the delivered records — fewer than requested when a ring
        overflow stopped the block early, and only the first when a
        multi-slot block has no shm rings or barrier to synchronize on.
        The finish loop replays each completed round, in order, so records,
        deltas and traffic are bit-identical to every other backend's
        rounds.
        """
        ledger = cluster.ledger
        by_slot: "dict[int, list[Machine]]" = {}
        for machine in targets:
            by_slot.setdefault(self._slot_of(machine), []).append(machine)
        participating = sorted(by_slot)
        self._refresh_machine_info()
        if self.slot_count > 1:
            self._ensure_rings()
        barrier_spec: "tuple[int, list[int]] | None" = None
        if len(programs) > 1 and len(participating) > 1:
            if self._rings and self._barrier is None and not self._barrier_failed:
                try:
                    self._barrier = ShmRoundBarrier.create(self.slot_count)
                except Exception:  # pragma: no cover - shm unavailable
                    self._barrier_failed = True
            if self._rings and self._barrier is not None:
                barrier_spec = (self._barrier_base, participating)
            else:
                programs = programs[:1]  # nothing to synchronize on: K = 1

        program_keys = [self._program_key(program) for program in programs]
        # Per-round worker specs: (program key, drop_inbox).
        specs = [(key, not program.reads_inbox) for key, program in zip(program_keys, programs)]
        block = {"epoch0": ledger.next_round_index, "rounds": specs, "barrier": barrier_spec}
        block.update(io_cap=cluster.enforce_io_cap)

        # Lock the participating slot workers (in slot order — globally
        # consistent, so concurrent drivers cannot deadlock) for the whole
        # request→reply group: workers are process-wide and their pipes are
        # strictly request/reply aligned, so another thread's traffic must
        # not interleave with this block's.
        slot_workers = [(slot_index, _slot_worker(slot_index)) for slot_index in participating]
        for _, worker in slot_workers:
            worker.lock.acquire()
        self._suppress_sync = True
        block_replies: "dict[int, tuple]" = {}
        try:
            # Pipeline phase: every slot gets its requests before any reply
            # is awaited, so worker execution overlaps across slots.  Any
            # failure in here aborts the block: every already-pipelined
            # request is drained and the session stops claiming residency.
            # Entries join ``active`` before their first send, so the abort
            # path sees every request that could have reached a pipe.
            active: "list[list]" = []  # [slot_index, worker, sent count]
            slot_index, worker = -1, None
            try:
                for slot_index, worker in slot_workers:
                    slot = self._slots[slot_index]
                    if slot.worker_generation != worker.generation:
                        rp = self._remote_pending[slot_index]
                        if rp:
                            # The old process held undelivered routed frames.
                            # Recoverable only when this block's first round
                            # would have *discarded* every one of them anyway:
                            # the program drops its inbox and every pending
                            # receiver participates (held frames are always
                            # due by the receiver's next round).
                            participants = {m.machine_id for m in by_slot[slot_index]}
                            if not programs[0].reads_inbox and rp <= participants:
                                rp.clear()
                            else:
                                raise ResidentWorkerError(
                                    f"resident worker slot {slot_index} was respawned "
                                    f"while holding undelivered slot-routed messages"
                                )
                        # the slot's process was (re)spawned underneath
                        # this session: nothing previously shipped survives
                        slot.reset_for(worker.generation)
                    request = self._block_request(
                        slot_index, programs, program_keys, by_slot[slot_index], shared, block
                    )
                    entry = [slot_index, worker, 0]
                    active.append(entry)
                    for op in (*self._setup_ops(slot, slot_index, barrier_spec is not None), request):
                        worker.request(op)
                        entry[2] += 1
            except BaseException as exc:
                if isinstance(exc, ResidentWorkerError) and worker is not None:
                    _evict_slot_worker(slot_index, worker)
                self._abort_round(active)
                raise

            # Join every slot (lowest slot's error wins), draining every
            # reply so the pipes stay request/reply aligned.
            error: "BaseException | None" = None
            for slot_index, worker, expected in active:
                value: Any = None
                failed = False
                for _ in range(expected):
                    try:
                        value = worker.reply()
                    except ResidentWorkerError as exc:
                        self._mark_broken(slot_index, worker)
                        if error is None:
                            error = exc
                        failed = True
                        break
                    except BaseException as exc:  # noqa: BLE001 - worker raised
                        if error is None:
                            error = exc
                        failed = True
                if not failed:
                    block_replies[slot_index] = value
            if error is not None:
                # slots that did run already committed their rounds;
                # driver and worker views have diverged
                self._broken = True
                raise error
        finally:
            self._suppress_sync = False
            for _, worker in slot_workers:
                worker.lock.release()

        # Validate: every slot speaks the block protocol, round by round,
        # and committed the same number of rounds (the barrier's stop-bit
        # guarantee).
        completed: "int | None" = None
        for slot_index, value in sorted(block_replies.items()):
            if not (
                isinstance(value, tuple)
                and len(value) == 4
                and value[0] == "block"
                and value[1] == len(value[2]) <= len(specs)
                and all(entry[0] == "routed" for entry in value[2])
            ):
                self._broken = True
                raise ResidentWorkerError(
                    f"resident worker slot {slot_index} replied out of protocol to a block request"
                )
            if completed is None:
                completed = value[1]
            elif value[1] != completed:
                self._broken = True
                raise ResidentWorkerError(
                    f"resident worker slots disagree on block rounds completed "
                    f"({completed} vs {value[1]} at slot {slot_index})"
                )
        assert completed is not None and completed >= 1
        if barrier_spec is not None:
            self._barrier_base += completed

        # Finish loop: each completed round, in order — deposit-then-
        # exchange per round rebuilds every RoundRecord bit-identically.
        per_slot_rounds = {si: value[2] for si, value in block_replies.items()}
        records: "list[RoundRecord]" = []
        for r in range(completed):
            # This round's batch consumed the due frames each slot held
            # for its participating machines.
            for si in participating:
                rp = self._remote_pending[si]
                if rp:
                    for machine in by_slot[si]:
                        rp.discard(machine.machine_id)
            entries = [per_slot_rounds[si][r] for si in participating]
            records.append(
                self._finish_routed_round(cluster, programs[r], program_keys[r], targets, shared, entries)
            )
        if len(specs) > 1:
            ledger.fused_rounds += completed
        ledger.driver_round_trips += 1
        return records

    # ------------------------------------------------------------ slot routing
    def _refresh_machine_info(self) -> None:
        """(Re)build the machine → (index, slot) routing map when stale."""
        machines = self.cluster.machines_by_id
        if self._map_count == len(machines):
            return
        self._machine_info = {
            machine_id: (machine.index, self._slot_of(machine))
            for machine_id, machine in machines.items()
        }
        self._map_count = len(machines)
        self._map_version += 1

    def _ring_capacity(self) -> int:
        """Bytes per cross-slot ring, sized from ``S``.

        A slot's per-round egress is bounded by its machines' I/O budgets —
        ``S`` words per sender — so rings are pre-sized from the same
        quantity the ``fast_word_size`` sizer charges against: ``S`` times
        the machines per slot, at a generous bytes-per-word multiple,
        clamped to [64 KiB, 4 MiB].  Overflow falls back to the pipe, so
        this is purely a performance choice.
        """
        config = self.cluster.config
        machines = max(1, len(self.cluster.machines_by_id))
        per_slot = (machines + self.slot_count - 1) // self.slot_count
        sized = 16 * config.machine_memory * per_slot
        return max(1 << 16, min(1 << 22, sized))

    def _ensure_rings(self) -> None:
        """Create the cross-slot shm ring matrix (once; failure ⇒ pipe)."""
        if self._rings is not None:
            return
        capacity = self._ring_capacity()
        count = self.slot_count
        rings: "list[list[ShmRing | None]]" = [[None] * count for _ in range(count)]
        try:
            for src in range(count):
                for dst in range(count):
                    if src != dst:
                        rings[src][dst] = ShmRing.create(capacity)
        except Exception:  # pragma: no cover - shm unavailable on this host
            for row in rings:
                for ring in row:
                    if ring is not None:
                        ring.close()
                        ring.unlink()
            self._rings = []
            return
        self._rings = rings

    def _ring_specs(self, slot_index: int, direction: str) -> "list[tuple[int, str]]":
        """``(peer slot, shm name)`` pairs for one slot's attach request."""
        rings = self._rings
        specs: "list[tuple[int, str]]" = []
        if not rings:
            return specs
        for other in range(self.slot_count):
            if other == slot_index:
                continue
            ring = rings[other][slot_index] if direction == "in" else rings[slot_index][other]
            if ring is not None:
                specs.append((other, ring.name))
        return specs

    def _finish_routed_round(
        self,
        cluster: "Cluster",
        program: SuperstepProgram,
        program_key: int,
        targets: "list[Machine]",
        shared: "dict[str, Any]",
        slot_replies: "list[tuple]",
    ) -> "RoundRecord":
        """Merge routed-round replies and deposit the round at the transport.

        Message *bodies* stayed in the workers (or their rings); only each
        slot's round summary crosses the pipe, and the transport rebuilds
        the identical :class:`RoundRecord` from the summaries.  The owning
        workers already self-applied ``owner``-scoped deltas, so only other
        scopes queue for replay.
        """
        info = self._machine_info
        local_count = ring_frames = ring_bytes = overflow_count = 0
        summaries: "list[tuple]" = []
        fallback: "list[tuple]" = []
        deltas: "dict[str, Any]" = {}
        for _, slot_deltas, summary, traffic, overflow, slot_fallback in slot_replies:
            deltas.update(slot_deltas)
            summaries.append(summary)
            for receiver in summary[4]:  # the slot's receivers
                slot_info = info.get(receiver)
                if slot_info is not None:
                    self._remote_pending[slot_info[1]].add(receiver)
            local_count += traffic[0]
            ring_frames += traffic[1]
            ring_bytes += traffic[2]
            overflow_count += traffic[3]
            fallback += slot_fallback
            for dst_slot, frame in overflow:
                self._forward[dst_slot].append(frame)
        fallback.sort(key=_frame_sort_key)
        self._recompute_pending_ids()

        # The same barrier as every backend: all runs happened, now all
        # applies in target order, then one exchange.
        for machine in targets:
            program.apply(shared, machine.machine_id, deltas[machine.machine_id])
        if program.delta_scope != "owner":
            self._queue_replay(program, program_key, [(m, deltas[m.machine_id]) for m in targets])
        self.rounds_run += 1
        self.worker_rounds += 1
        self.local_messages += local_count
        self.cross_slot_messages += ring_frames + overflow_count
        self.shm_bytes += ring_bytes
        self.pipe_fallbacks += overflow_count
        self.shm_frames += ring_frames
        self.transport.deposit_worker_round(
            {
                "summaries": summaries,
                "fallback": fallback,
                "traffic": {
                    "local_messages": local_count,
                    "cross_slot_messages": ring_frames + overflow_count,
                    "shm_bytes": ring_bytes,
                    "pipe_fallbacks": overflow_count,
                },
            }
        )
        try:
            return cluster.exchange()
        except BaseException:
            # the workers already committed this round's frames; a failed
            # exchange leaves driver and worker pending views divergent
            self._broken = True
            raise

    def _recompute_pending_ids(self) -> None:
        ids: set[str] = set()
        for slot_index in range(self.slot_count):
            ids |= self._remote_pending[slot_index]
            for frame in self._forward[slot_index]:
                ids.add(frame[4])
        self._pending_ids = ids

    def _flush_slot(self, slot_index: int) -> "list[tuple]":
        """Fetch (and clear) every frame held at or en route to one slot."""
        slot = self._slots[slot_index]
        worker = _slot_worker(slot_index)
        if slot.worker_generation != worker.generation:
            if slot.worker_generation is not None:
                # undelivered frames died with the old process
                self._broken = True
                _evict_slot_worker(slot_index, None)
                raise ResidentWorkerError(
                    f"resident worker slot {slot_index} was respawned while "
                    f"holding undelivered slot-routed messages"
                )
            # first contact: the slot never ran a round, but peer slots may
            # have written ring frames destined for it
            slot.reset_for(worker.generation)
        try:
            with worker.lock:
                for op in self._setup_ops(slot, slot_index, False):
                    worker.request(op)
                    worker.reply()
                worker.request(("flush", self.session_id))
                return worker.reply()
        except ResidentWorkerError:
            self._mark_broken(slot_index, worker)
            raise

    def _setup_ops(self, slot: _SlotState, slot_index: int, barrier: bool) -> "list[tuple]":
        """The ``open`` / ``attach_shm`` requests ``slot`` needs before its next op.

        Marks them shipped: a request that never lands breaks the session
        anyway.  ``barrier`` asks for the fused-block round barrier too.
        """
        ops: "list[tuple]" = []
        if not slot.opened:
            ops.append(("open", self.session_id))
            slot.opened = True
        barrier = barrier and not slot.barrier_attached
        if (self._rings and not slot.rings_attached) or barrier:
            ops.append(
                (
                    "attach_shm",
                    self.session_id,
                    self._ring_specs(slot_index, "in"),
                    self._ring_specs(slot_index, "out"),
                    (self._barrier.name, self.slot_count) if barrier else None,
                )
            )
            slot.rings_attached = slot.rings_attached or bool(self._rings)
            slot.barrier_attached = slot.barrier_attached or barrier
        return ops

    def _flush_all(self) -> None:
        """Pull every routed frame back into the driver inboxes.

        The global sort key ``(epoch, sender index, staging seq)`` restores
        the reference delivery order across worker-held, ring-held and
        driver-forwarded frames alike; because a flush always empties *all*
        slots, driver inboxes never hold a message younger than one still
        at a worker — so appending keeps inboxes reference-ordered.
        """
        frames: "list[tuple]" = []
        for slot_index in range(self.slot_count):
            forwarded = self._forward[slot_index]
            if forwarded:
                frames.extend(forwarded)
                self._forward[slot_index] = []
            if self._remote_pending[slot_index]:
                frames.extend(self._flush_slot(slot_index))
                self._remote_pending[slot_index] = set()
        self._pending_ids = set()
        if not frames:
            return
        frames.sort(key=_frame_sort_key)
        machines = self.cluster.machines_by_id
        for frame in frames:
            machine = machines.get(frame[4])
            if machine is not None:
                machine.inbox.append(_frame_message(frame))

    def ensure_local(self, machine: "Machine") -> None:
        """Inbox-router hook: make ``machine``'s driver inbox complete."""
        if self._suppress_sync or self._broken:
            return
        if machine.machine_id in self._pending_ids:
            self._flush_all()

    def flush_for_exchange(self) -> None:
        """Inbox-router hook: a driver-side delivery wants complete inboxes."""
        if self._broken:
            return
        if self._pending_ids or any(self._forward):
            self._flush_all()

    def discard_pending(self) -> None:
        """Inbox-router hook for ``discard_undelivered``: drop routed frames."""
        pending = self._remote_pending
        self._remote_pending = [set() for _ in range(self.slot_count)]
        self._forward = [[] for _ in range(self.slot_count)]
        self._pending_ids = set()
        if self._broken:
            return
        for slot_index in range(self.slot_count):
            if not pending[slot_index]:
                continue
            slot = self._slots[slot_index]
            worker = _peek_slot_worker(slot_index)
            if worker is None or slot.worker_generation != worker.generation:
                continue  # dead or respawned: the frames are already gone
            try:
                worker.call(("flush", self.session_id))  # results dropped
            except ResidentWorkerError:  # pragma: no cover - worker died
                self._mark_broken(slot_index, worker)

    def _mark_broken(self, slot_index: int, worker: "_SlotWorker | None" = None) -> None:
        """A worker died: its resident state is gone.  Stop claiming residency
        (later supersteps fall back to the sequential path) and evict
        the dead worker so the next session gets a fresh one."""
        self._broken = True
        _evict_slot_worker(slot_index, worker)

    def _abort_round(self, active: "list[list]") -> None:
        """Abort a partially-pipelined round without poisoning the slots.

        Slot workers are process-wide and strictly request/reply aligned,
        so every pipelined request must have its reply consumed even though
        the round's results are being discarded; a worker that cannot be
        realigned is evicted (the next session spawns a fresh one).  The
        session itself is marked broken either way — bookkeeping committed
        while building requests no longer matches the workers.
        """
        self._broken = True
        for slot_index, worker, outstanding in active:
            if not worker.drain(outstanding):
                _evict_slot_worker(slot_index, worker)

    # ------------------------------------------------------------------ closing
    def close(self) -> None:
        backend = self.backend
        backend.last_session_worker_rounds = self.worker_rounds
        backend.last_session_shm_frames = self.shm_frames
        backend.last_session_traffic = {
            "local_messages": self.local_messages,
            "cross_slot_messages": self.cross_slot_messages,
            "shm_bytes": self.shm_bytes,
            "pipe_fallbacks": self.pipe_fallbacks,
        }
        if not self._broken:
            # Undelivered routed frames must outlive the session — drivers
            # legitimately drain inboxes after the round loop closes it.
            try:
                self._flush_all()
            except ResidentWorkerError:  # pragma: no cover - worker died
                pass
        transport = self.transport
        if transport.inbox_router is self:
            transport.inbox_router = None
        for slot_index, slot in enumerate(self._slots):
            # A slot that holds *any* per-session worker state — opened, or
            # merely attached to the session's shm rings/barrier — must see
            # the close op, or its ring mappings leak until worker shutdown
            # (shm segments cannot be reclaimed while a mapping survives).
            if not (slot.opened or slot.rings_attached or slot.barrier_attached):
                continue
            slot.opened = False
            slot.rings_attached = False
            slot.barrier_attached = False
            worker = _peek_slot_worker(slot_index)
            if worker is None or slot.worker_generation != worker.generation:
                continue  # dead or respawned: nothing of ours to release
            try:
                worker.call(("close", self.session_id))
            except ResidentWorkerError:  # pragma: no cover - worker died
                _evict_slot_worker(slot_index, worker)
        if self._rings:
            for row in self._rings:
                for ring in row:
                    if ring is not None:
                        ring.close()
                        ring.unlink()
        self._rings = None
        if self._barrier is not None:
            self._barrier.close()
            self._barrier.unlink()
            self._barrier = None


class ResidentTransport(FastTransport):
    """The ``fast`` transport plus the two seams a resident session needs.

    Staged senders and the delivery pass are ``fast``'s; messages are
    charged with :func:`~repro.mpc.sizing.fast_word_size` (the sizer the
    workers charge with, property-tested equal to the reference one).  On
    top of that, a live session installs itself as :attr:`inbox_router`,
    and rounds whose messages stayed at the workers arrive as deposits
    (:meth:`deposit_worker_round`) instead of staged outboxes.
    """

    __slots__ = ("inbox_router", "_worker_rounds")

    message_sizer = staticmethod(fast_word_size)

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__(cluster)
        #: slot-routing hook (see :attr:`Transport.inbox_router`); shadowed
        #: into a slot because resident sessions flip it per session.
        self.inbox_router = None
        #: pre-aggregated rounds deposited by slot-routed worker supersteps,
        #: consumed FIFO by subsequent :meth:`exchange` calls (see
        #: :meth:`deposit_worker_round`).  A plain routed round deposits
        #: one entry and exchanges immediately; a fused round block
        #: deposits one entry per worker-driven round, then the driver
        #: replays one exchange per round to rebuild the identical records.
        self._worker_rounds: "deque[dict]" = deque()

    def deposit_worker_round(self, stats: dict) -> None:
        """Hand the next :meth:`exchange` a slot-routed round's summaries.

        A resident session that routed all of a superstep's messages at the
        workers cannot pass them through the driver's staged-sender path —
        the whole point is that most never reached the driver.  Instead each
        worker slot returns what the round's record needs of its messages
        (sized once by the reference-equal ``fast_word_size`` at staging),
        plus the few frames that must be driver-delivered (receivers outside
        the worker map).  ``stats`` keys:

        ``"summaries"``
            one :func:`_commit_frames` round summary per slot;
        ``"fallback"``
            frames to deliver into driver inboxes, already in reference
            delivery order;
        ``"traffic"``
            the wire-path counters for :meth:`MetricsLedger.record_traffic`.

        Deposits queue FIFO: a fused round block deposits every
        worker-driven round at once and the driver then calls
        :meth:`exchange` once per round, oldest first, so the record
        stream is indistinguishable from per-round deposits.
        """
        self._worker_rounds.append(stats)

    def exchange(self) -> RoundRecord:
        if self._worker_rounds:
            return self._deliver_deposit(self._worker_rounds.popleft())
        staged = self._staged
        router = self.inbox_router
        if router is not None and staged:
            # Driver code staged real messages while workers may still hold
            # routed ones for the same receivers: pull every worker-held
            # message into the driver inboxes first, so this exchange
            # appends behind them in arrival order (worker-held messages
            # are always from strictly earlier rounds).
            router.flush_for_exchange()
        # FastTransport.exchange inlined: calling it would make every round
        # two exchange calls to anything that wraps the method
        record = self.deliver(sorted(staged, key=by_registration))
        staged.clear()
        return record

    def _deliver_deposit(self, deposit: dict) -> RoundRecord:
        """Record a slot-routed round from worker summaries; deliver fallbacks.

        Not a delivery of staged messages — the bodies of worker-held
        messages never crossed into the driver — but the same round as
        :meth:`Transport.deliver` would have made of them: identical record
        (words were sized by the same ``fast_word_size`` at staging),
        identical validation and cap semantics.
        """
        cluster = self.cluster
        machines = cluster.machines_by_id
        ledger = cluster.ledger
        if self._staged:
            raise ProtocolError("slot-routed round deposited while driver-side messages are staged")
        # Refusal order as Transport.deliver: unknown receiver (the first
        # in reference order — fallback frames are sorted), send cap,
        # receive cap.
        fallback = deposit["fallback"]
        for frame in fallback:
            if frame[4] not in machines:
                raise UnknownMachineError(f"message from {frame[3]!r} addressed to unknown machine {frame[4]!r}")
        active: set[str] = set()
        total = count = largest = 0
        sent_words: dict[str, int] = {}
        received_words: dict[str, int] = {}
        for words, messages, max_words, senders, receivers, sent, received in deposit["summaries"]:
            total += words
            count += messages
            if max_words > largest:
                largest = max_words
            active.update(senders)
            active.update(receivers)
            sent_words.update(sent)
            for machine_id, received_by in received.items():
                received_words[machine_id] = received_words.get(machine_id, 0) + received_by

        if cluster.enforce_io_cap:
            cap = cluster.config.machine_memory
            for direction, loads in (("send", sent_words), ("receive", received_words)):
                for machine_id in sorted(loads, key=lambda m: machines[m].index):
                    if loads[machine_id] > cap:
                        raise MessageSizeExceeded(machine_id, direction, loads[machine_id], cap)

        for frame in fallback:
            machines[frame[4]].inbox.append(_frame_message(frame))

        record = ledger.file_round(len(active), total, count, largest)
        ledger.record_traffic(**deposit["traffic"])
        return record

    def discard_undelivered(self) -> None:
        super().discard_undelivered()
        self._worker_rounds.clear()


@register_backend
class ResidentBackend(FastBackend):
    """``fast`` + session-scoped resident worker state.

    Inherits ``fast``'s cached storage and aggregate accounting (no per-pair
    detail); its transport is :class:`ResidentTransport`, and it adds
    the session seam.  Outside an active session (driver-style dynamic
    workloads) supersteps run sequentially in the driver, exactly as on
    ``fast``.
    """

    name = "resident"

    #: worker-crossing round count of the most recently closed session — an
    #: observability/testing aid (proves residency was exercised), never
    #: consulted by the simulation.
    last_session_worker_rounds: int | None = None
    #: cross-slot frames the most recently closed session moved over
    #: shared-memory rings — proves the shm wire path was exercised.
    last_session_shm_frames: int | None = None
    #: wire-path counter totals of the most recently closed session
    #: (``local_messages`` / ``cross_slot_messages`` / ``shm_bytes`` /
    #: ``pipe_fallbacks``) — observability only, never simulation input.
    last_session_traffic: "dict[str, int] | None" = None

    def __init__(self, config) -> None:
        super().__init__(config)
        #: driver-side store-slice pickle cache:
        #: machine -> {store_reads: (storage version, blob)}
        self._store_blobs: dict["Machine", dict[tuple[str, ...] | None, tuple[int, bytes]]] = {}

    def create_transport(self, cluster: "Cluster") -> ResidentTransport:
        return ResidentTransport(cluster)

    @property
    def worker_slots(self) -> int:
        """How many resident worker slots a session on this backend uses.

        ``config.resident_slots`` pins the count explicitly, clamped to the
        slot cap ``config.shard_count`` (default 4).  The default is bounded
        by that cap *and the real CPU parallelism of the host*: every
        resident slot costs two context switches per superstep, so slots
        beyond the hardware's parallelism are pure overhead.  One slot is
        perfectly meaningful — residency is about state locality (stores
        shipped once, deltas replayed), not about the width of the fan-out.
        """
        cap = self.config.shard_count or DEFAULT_SLOT_CAP
        override = self.config.resident_slots
        if override is not None:
            return max(1, min(override, cap))
        return max(1, min(cap, os.cpu_count() or 1))

    def _store_blob(self, machine: "Machine", prefixes: "tuple[str, ...] | None") -> bytes:
        """``machine``'s declared store slice, pickled once per store version."""
        versions = self._store_blobs.setdefault(machine, {})
        version = machine.storage.version
        cached = versions.get(prefixes)
        if cached is not None and cached[0] == version:
            return cached[1]
        subset = store_subset(machine.storage.items(), prefixes)
        blob = pickle.dumps(subset, protocol=_PICKLE)
        versions[prefixes] = (version, blob)
        return blob

    def open_session(self, cluster: "Cluster", shared: "dict[str, Any]") -> ExecutionSession:
        return ResidentSession(self, cluster, shared, self.worker_slots)

    def _live_session(self, cluster: "Cluster", shared: "dict[str, Any]") -> "ResidentSession | None":
        """The cluster's session when it is this backend's, healthy, and over ``shared``."""
        session = cluster._active_session
        if (
            isinstance(session, ResidentSession)
            and not session._broken
            and session.backend is self
            and shared is session.shared
        ):
            return session
        return None

    def run_superstep(
        self,
        cluster: "Cluster",
        program: SuperstepProgram,
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> RoundRecord:
        session = self._live_session(cluster, shared)
        if session is not None:
            return session.run_round(cluster, program, targets, shared)
        return super().run_superstep(cluster, program, targets, shared)

    def run_superstep_block(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        session = self._live_session(cluster, shared)
        if session is not None:
            return session.run_block(cluster, list(programs), targets, shared)
        return super().run_superstep_block(cluster, programs, targets, shared)
