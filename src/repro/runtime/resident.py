"""The resident execution backend — persistent workers, delta shipping.

The ``process`` backend made superstep programs cross the process boundary,
but it ships the world every round: each superstep re-pickles the declared
``shared_reads`` slice and sends every machine's store snapshot bytes down
the pipe, even when neither changed.  That is exactly backwards from the
paper's DMPC economics — machines *hold* their local state across rounds;
only messages move.  This backend restores that economics for the
simulator's own execution substrate:

* **long-lived workers own shard state** — each worker slot is a dedicated
  spawned process driven over a :func:`multiprocessing.Pipe` (an order of
  magnitude cheaper per round trip than executor submits, which matters
  when every superstep is one round trip per slot).  Every job for a slot
  lands in the same process, which keeps the shard's machine-store
  snapshots and a copy of the session's shared state resident for the
  lifetime of a run;
* **the driver ships deltas** — per round a worker receives the drained
  inboxes of its machines plus (a) the *merged program deltas* of the
  previous barrier, which it replays through ``program.apply`` to bring
  its resident shared copy up to date, and (b) fresh values only for
  shared keys the driver explicitly invalidated
  (:meth:`~repro.runtime.base.ExecutionSession.touch`) and store snapshots
  whose :attr:`~repro.runtime.base.MachineStorage.version` epoch moved;
* **everything else is the process backend** — sends are recorded in the
  worker, replayed driver-side in target order, deltas merged at the same
  deterministic barrier, then one exchange: bit-for-bit the round every
  other backend delivers.

* **messages route slot-locally** — the historical resident path still
  funnelled every message through the driver: worker-recorded sends were
  replayed into driver outboxes, exchanged centrally, then shipped back
  down as next round's inboxes — two pipe crossings per message.  With a
  backend accounting policy governing the ledger, workers now *keep* each
  message frame: a frame whose receiver lives on the sending slot is
  staged worker-locally (it never crosses the pipe and is never
  re-encoded), a cross-slot frame rides a pre-sized
  :class:`~repro.runtime.wire.ShmRing` (one SPSC ring per ordered slot
  pair; overflow falls back to driver-forwarded pipe delivery), and only
  per-(sender, receiver) word aggregates return to the driver, where
  :meth:`~repro.runtime.sharding.ShardedTransport.deposit_worker_round`
  rebuilds the identical :class:`~repro.mpc.metrics.RoundRecord`.  The
  frame key ``(epoch, sender index, staging seq)`` totally orders frames,
  so any time the driver genuinely needs a message body (a
  ``driver_local`` program, :meth:`Machine.receive`/``drain`` outside a
  worker round, session close, a live re-plan), the session's inbox-router
  hooks (:attr:`~repro.runtime.base.Transport.inbox_router`) flush every
  worker-held frame back into driver inboxes in exactly the reference
  delivery order.

* **fused round blocks elide the per-round driver barrier** — a span of
  consecutive supersteps whose contract declarations prove the driver has
  no work between them (no ``driver_local`` aggregation, sends never read
  driver-side before their consuming round, deltas ``owner``-scoped or
  no-op — see :func:`~repro.mpc.program.fusable_interior`) ships as ONE
  ``run_block`` request.  Workers then loop locally: each round they
  ingest rings, serve due frames, run their machines, *self-apply* their
  own machines' owner-scoped deltas, and synchronize on a lightweight
  shared-memory cursor barrier
  (:class:`~repro.runtime.wire.ShmRoundBarrier`) instead of a driver
  round trip.  Per-round aggregates come back once per block, and the
  driver replays them through the exact unfused finish path — every
  :class:`~repro.mpc.metrics.RoundRecord` is rebuilt bit-identically, in
  order.  A ring overflow mid-block stops every slot at the same round
  boundary (the barrier's stop bit); the overflowed frames take the pipe
  forward path and the remaining supersteps run unfused.

The worker-session protocol has seven operations, all executed inside the
slot's worker process: :func:`_session_open` (create the resident state),
:func:`_session_attach_shm` (map the cross-slot rings and the round
barrier), :func:`_session_run_round` (replay deltas, refresh invalidated
keys and stale stores, run the machines, route their frames),
:func:`_session_run_block` (the fused multi-round worker loop),
:func:`_session_flush` (surrender every held frame to the driver),
:func:`_session_migrate` (drop shard state that a live re-plan moved to
another worker) and :func:`_session_close` (release everything).
Sessions are driven from :class:`ResidentSession`, which
:meth:`Cluster.session` opens around a superstep round loop; without an
active session (or with a legacy closure handler) the backend behaves
exactly like ``process``.  The slot count is bounded by the host's real
CPU parallelism unless ``DMPCConfig.resident_slots`` pins it — a single
resident slot is still the full residency + locality win (every message
is then slot-local), just without fan-out.

Live re-planning composes with residency: :meth:`Cluster.replan` adopts a
:meth:`~repro.runtime.sharding.ShardPlan.rebalance` proposal behind the
merge barrier, and the session migrates only the machines whose worker
slot actually changed — their snapshots are dropped at the old worker and
re-shipped (from the driver's authoritative stores) to the new one on next
use.  With ``DMPCConfig.replan_every`` set, ``machine_load() →
rebalance() → replan()`` closes into an autotuning loop.

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
from typing import TYPE_CHECKING, Any, Iterable

from repro.config import resolve_fuse_rounds
from repro.exceptions import ProtocolError
from repro.mpc.contract import checked_apply_view, contract_checking_enabled
from repro.mpc.message import Message
from repro.mpc.program import (
    LiveMachineContext,
    SuperstepProgram,
    WorkerMachineContext,
    fusable_interior,
    fusable_terminal,
)
from repro.mpc.sizing import fast_word_size
from repro.runtime.base import ExecutionSession, register_backend
from repro.runtime.process import ProcessBackend
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
    from repro.mpc.message import Message
    from repro.mpc.metrics import RoundRecord
    from repro.runtime.base import SuperstepHandler
    from repro.runtime.sharding import ShardPlan

__all__ = ["ResidentBackend", "ResidentSession", "ResidentWorkerError"]

_PICKLE = pickle.HIGHEST_PROTOCOL

# The pipe codec and inbox flattening live in repro.runtime.wire now (the
# process backend shares them); the historical private names remain the
# idiom inside this module.
_encode = encode_obj
_decode = decode_obj
_pack_inbox = pack_inbox
_unpack_inbox = unpack_inbox


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
        #: receiver machine id -> slot-routed frames held for its next run,
        #: each ``(epoch, sender_index, seq, sender, receiver, tag, payload,
        #: words)`` — the first three fields are the global sort key that
        #: restores the reference delivery order when frames from several
        #: source slots merge into one inbox
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


def _frame_sort_key(frame: tuple) -> tuple:
    """Reference delivery order: round epoch, sender registration, staging seq."""
    return (frame[0], frame[1], frame[2])


def _frame_message(frame: tuple) -> Message:
    return Message(sender=frame[3], receiver=frame[4], tag=frame[5], payload=frame[6], words=frame[7])


def _ingest_rings(state: _SessionState) -> None:
    """Drain every inbound ring into the pending map (deterministic order)."""
    for src_slot in sorted(state.rings_in):
        for blob in state.rings_in[src_slot].read_all():
            frame = decode_obj(blob)
            state.pending.setdefault(frame[4], []).append(frame)


class _SizingMachineContext(WorkerMachineContext):
    """Worker view that also sizes staged sends with the transport's sizer.

    Records ``(receiver, tag, payload, words)`` with ``words`` computed by
    :func:`~repro.mpc.sizing.fast_word_size` — the exact sizer the sharded
    transport charges with — so the driver's replay can construct the
    staged :class:`Message` objects directly instead of re-sizing every
    payload a second time.  ``send_many`` triples arrive sized, so the
    inherited bulk record already has this shape.
    """

    __slots__ = ()

    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        if words is None:
            words = fast_word_size(tag) + fast_word_size(payload)
        self.sent.append((receiver, tag, payload, words))


class _RoutingMachineContext(WorkerMachineContext):
    """Worker view for slot-routed rounds: sizes *and* addresses each send.

    Every send becomes one keyed frame ``(epoch, sender_index, seq, sender,
    receiver, tag, payload, words)``.  ``words`` is computed exactly once,
    here, by the same :func:`fast_word_size` the sharded transport charges
    with; local delivery, ring-capacity fit checks and the driver's round
    accounting all reuse that one number — the send path never re-sizes a
    payload.  The key triple ``(epoch, sender_index, seq)`` totally orders
    all frames of a session, reproducing the reference delivery order
    (senders by registration index, sends in staging order) no matter which
    physical path — worker-local, shm ring or pipe — a frame takes.
    """

    __slots__ = ("_epoch", "_index")

    def __init__(self, machine_id: str, store: Any, epoch: int, index: int) -> None:
        super().__init__(machine_id, store)
        self._epoch = epoch
        self._index = index

    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        if words is None:
            words = fast_word_size(tag) + fast_word_size(payload)
        sent = self.sent
        sent.append(
            (
                self._epoch,
                self._index,
                len(sent),
                self._machine_id,
                receiver,
                tag,
                payload,
                words,
            )
        )

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        epoch, index, sender, sent = self._epoch, self._index, self._machine_id, self.sent
        sent.extend(
            [
                (epoch, index, seq, sender, receiver, tag, payload, words)
                for seq, (receiver, payload, words) in enumerate(sends, len(sent))
            ]
        )


def _session_open(sessions: "dict[str, _SessionState]", session_id: str) -> bool:
    """Protocol op 1: create the resident state for a session (idempotent)."""
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
    for src_slot, name in rings_in:
        if src_slot not in state.rings_in:
            try:
                state.rings_in[src_slot] = ShmRing.attach(name)
            except Exception:  # pragma: no cover - environment dependent
                pass
    for dst_slot, name in rings_out:
        if dst_slot not in state.rings_out:
            try:
                state.rings_out[dst_slot] = ShmRing.attach(name)
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
    has not looked at yet are included.  Called behind the barrier (no
    round in flight), hence every held frame is deliverable; the driver
    merges the returned frames by their global sort key.
    """
    state = sessions.get(session_id)
    if state is None:
        return []
    _ingest_rings(state)
    frames: "list[tuple]" = []
    for receiver in list(state.pending):
        frames.extend(state.pending.pop(receiver))
    return frames


def _sync_session_state(
    sessions: "dict[str, _SessionState]",
    session_id: str,
    new_programs: "dict[int, bytes]",
    replay: "list[tuple[int, list[tuple[str, Any]]]]",
    shared_init: "dict[str, Any]",
    store_updates: "list[tuple[str, tuple[str, ...] | None, int, bytes]]",
) -> _SessionState:
    """Bring one session's resident state up to date (round and block ops).

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


def _session_run_round(
    sessions: "dict[str, _SessionState]",
    session_id: str,
    new_programs: "dict[int, bytes]",
    program_key: int,
    replay: "list[tuple[int, list[tuple[str, Any]]]]",
    shared_init: "dict[str, Any]",
    store_updates: "list[tuple[str, tuple[str, ...] | None, int, bytes]]",
    batch: "list[tuple[str, list[Message]]]",
    routing: "dict[str, Any] | None" = None,
) -> Any:
    """Protocol op 2: sync resident state, then run this slot's machines.

    Ordering is the heart of the sync: (1) replay the previous barriers'
    merged deltas — the same ``(machine_id, delta)`` sequence, in the same
    target order, through the same ``program.apply`` the driver ran — then
    (2) overwrite with ``shared_init``, the fresh values of keys the driver
    invalidated (whose snapshots already contain every merged delta), then
    (3) refresh store snapshots whose version epoch moved.  Step 2 after
    step 1 makes refreshes idempotent with replay; a key is never left
    reflecting a delta the driver's copy has superseded.

    Without ``routing`` (the legacy shape) every send is recorded and
    returned for driver-side replay.  With ``routing`` the *worker* routes:
    same-slot sends land straight in this worker's pending map, cross-slot
    sends ride the shm ring to the destination slot (pipe fallback on
    overflow), and only per-pair word aggregates — plus the few frames that
    could not be routed — return to the driver.  ``routing`` keys:

    ``"epoch"``   the round index being executed (frames are keyed by it);
    ``"slot"``    this worker's slot index;
    ``"map"``     full ``{machine id: (index, slot)}`` routing map when the
                  driver's map version moved, else ``None`` (keep current);
    ``"forward"`` frames the driver is forwarding to this slot (pipe
                  fallbacks of earlier rounds) to merge into pending;
    ``"drop_inbox"`` the program declared ``reads_inbox=False`` — pending
                  frames due this round are consumed *and discarded*,
                  mirroring the driver-side drain of the shipped inboxes;
    ``"funnel"``  hybrid mode for programs whose *sends* the driver reads
                  (see ``ResidentSession._route_programs``): held frames
                  are still served worker-locally into the inboxes, but
                  the staged sends return on the reply in the legacy shape
                  for driver-side replay instead of being routed.

    Serving order restores the reference semantics exactly: the shipped
    driver-side inbox first (those messages are from strictly earlier
    arrivals — the driver flushes worker-held frames before any driver-side
    delivery), then this worker's due pending frames sorted by their global
    ``(epoch, sender_index, seq)`` key.  Only frames with ``epoch <`` the
    current round are due: a faster peer slot may already have written
    *this* round's frames into our ring, and those must wait one round,
    exactly like every other message sent in round ``epoch``.
    """
    state = _sync_session_state(
        sessions, session_id, new_programs, replay, shared_init, store_updates
    )
    program = state.programs[program_key]
    prefixes = program.store_reads
    if routing is None:
        results: "list[tuple[str, list[tuple[str, str, Any, int]], Any]]" = []
        for machine_id, packed_inbox in batch:
            store = state.stores.get((machine_id, prefixes), _EMPTY_STORE)
            ctx = _SizingMachineContext(machine_id, store)
            delta = program.run(ctx, _unpack_inbox(packed_inbox), state.shared)
            results.append((machine_id, ctx.sent, delta))
        return results
    return _run_routed(state, program, prefixes, batch, routing)


def _run_routed(
    state: _SessionState,
    program: SuperstepProgram,
    prefixes: "tuple[str, ...] | None",
    batch: "list[tuple[str, Any]]",
    routing: "dict[str, Any]",
) -> tuple:
    """The slot-routed half of :func:`_session_run_round` (see its docstring)."""
    epoch = routing["epoch"]
    new_map = routing.get("map")
    if new_map is not None:
        state.machine_slots = new_map
    machine_slots = state.machine_slots
    _ingest_rings(state)
    pending = state.pending
    for frame in routing["forward"]:
        pending.setdefault(frame[4], []).append(frame)
    drop_inbox = routing["drop_inbox"]
    funnel = routing.get("funnel", False)

    # Phase 1 — run every machine; nothing is routed until all succeed, so
    # a program exception leaves no half-routed round behind.
    deltas: "list[tuple[str, Any]]" = []
    staged: "list[list[tuple]]" = []
    funneled: "list[tuple[str, list[tuple[str, str, Any, int]], Any]]" = []
    for machine_id, packed_inbox in batch:
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
            inbox: "list[Message]" = []
        else:
            inbox = _unpack_inbox(packed_inbox)
            if ready:
                ready.sort(key=_frame_sort_key)
                inbox.extend(_frame_message(f) for f in ready)
        store = state.stores.get((machine_id, prefixes), _EMPTY_STORE)
        if funnel:
            # Hybrid: the held frames above were served locally, but this
            # program's sends go back to the driver in the legacy shape —
            # the driver reads them before the next worker round could.
            sctx = _SizingMachineContext(machine_id, store)
            funneled.append((machine_id, sctx.sent, program.run(sctx, inbox, state.shared)))
            continue
        ctx = _RoutingMachineContext(machine_id, store, epoch, machine_slots[machine_id][0])
        deltas.append((machine_id, program.run(ctx, inbox, state.shared)))
        staged.append(ctx.sent)
    if funnel:
        return ("funneled", funneled)

    # Phase 2 — commit: route every staged frame and aggregate the round
    # accounting the driver's exchange needs (per-pair words/count/max).
    my_slot = routing["slot"]
    rings_out = state.rings_out
    pairs: "dict[tuple[str, str], list[int]]" = {}
    local_count = 0
    ring_frames = 0
    ring_bytes = 0
    overflow: "list[tuple[int, tuple]]" = []
    fallback: "list[tuple]" = []
    for frames in staged:
        for frame in frames:
            receiver = frame[4]
            words = frame[7]
            key = (frame[3], receiver)
            stats = pairs.get(key)
            if stats is None:
                pairs[key] = [words, 1, words]
            else:
                stats[0] += words
                stats[1] += 1
                if words > stats[2]:
                    stats[2] = words
            info = machine_slots.get(receiver)
            if info is None:
                fallback.append(frame)
            elif info[1] == my_slot:
                pending.setdefault(receiver, []).append(frame)
                local_count += 1
            else:
                ring = rings_out.get(info[1])
                # Sizer-derived quick reject: words bound the marshalled
                # bytes to within a small constant, so a frame that cannot
                # possibly fit skips the encode entirely.
                if ring is not None and words * 8 + FRAME_HEADER <= ring.capacity + 64:
                    blob = encode_obj(frame)
                    if ring.write(blob):
                        ring_frames += 1
                        ring_bytes += len(blob) + FRAME_HEADER
                        continue
                overflow.append((info[1], frame))
    return (
        "routed",
        deltas,
        [(s, r, v[0], v[1], v[2]) for (s, r), v in pairs.items()],
        (local_count, ring_frames, ring_bytes, len(overflow)),
        overflow,
        fallback,
    )


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
    """Protocol op: run a fused span of rounds without driver round trips.

    One sync (exactly :func:`_sync_session_state`), then up to
    ``len(block["rounds"])`` consecutive rounds executed entirely inside
    the worker.  Each round ``r`` (global epoch ``epoch0 + r``):

    1. ingest the inbound rings and serve this round's *due* frames
       (``epoch < epoch0 + r``) in global sort order — round 0 also serves
       the driver-shipped inboxes, later rounds have none by construction
       (the driver does no work between fused rounds);
    2. run the machines — :class:`_RoutingMachineContext` for routed
       rounds, :class:`_SizingMachineContext` for a terminal *funnel*
       round whose sends the driver reads;
    3. commit: same-slot frames to pending, cross-slot frames to the shm
       rings; a ring overflow sets the *stop* flag — those frames need the
       driver's pipe forward path, so the block must end at this boundary;
    4. self-apply this slot's own machines' deltas (``owner`` scope makes
       that sufficient; ``global``-scoped interior programs have no-op
       applies) — except on the span's final round, whose deltas the
       driver replays through the normal barrier instead.  Under
       ``REPRO_CHECK_CONTRACTS`` the apply runs against the same
       :func:`~repro.mpc.contract.checked_apply_view` the driver uses;
    5. announce ``base + r + 1`` on the round barrier (stop bit included)
       and wait for every participating peer — a peer's stop at exactly
       this boundary ends our block too, so all slots commit the same
       number of rounds.  Single-slot sessions skip the barrier entirely.

    Returns ``("block", completed, per_round, stopped)`` where
    ``per_round[r]`` is the exact per-round reply shape of
    :func:`_session_run_round` (``("routed", ...)`` or
    ``("funneled", ...)``), letting the driver rebuild every
    :class:`RoundRecord` through the unfused finish paths.
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
    rings_out = state.rings_out
    last_round = len(rounds) - 1
    per_round: "list[tuple]" = []
    completed = 0
    stopped = False
    for r, (program_key, drop_inbox, funnel) in enumerate(rounds):
        epoch = epoch0 + r
        program = state.programs[program_key]
        prefixes = program.store_reads
        _ingest_rings(state)
        deltas: "list[tuple[str, Any]]" = []
        staged: "list[list[tuple]]" = []
        funneled: "list[tuple[str, list[tuple[str, str, Any, int]], Any]]" = []
        for machine_id, packed_inbox in batch:
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
                inbox: "list[Message]" = []
            else:
                # Driver-shipped inboxes exist only for round 0; every
                # later round's messages are worker frames by construction.
                inbox = _unpack_inbox(packed_inbox) if r == 0 else []
                if ready:
                    ready.sort(key=_frame_sort_key)
                    inbox.extend(_frame_message(f) for f in ready)
            store = state.stores.get((machine_id, prefixes), _EMPTY_STORE)
            if funnel:
                sctx = _SizingMachineContext(machine_id, store)
                funneled.append((machine_id, sctx.sent, program.run(sctx, inbox, shared)))
                continue
            ctx = _RoutingMachineContext(machine_id, store, epoch, machine_slots[machine_id][0])
            deltas.append((machine_id, program.run(ctx, inbox, shared)))
            staged.append(ctx.sent)
        if funnel:
            # A funnel round is always the span's terminal round: it stages
            # nothing worker-side, so there is no commit and no stop risk.
            per_round.append(("funneled", funneled))
            completed = r + 1
            if barrier is not None:
                barrier.announce(my_slot, base + r + 1)
            break
        # Commit — identical accounting to _run_routed's phase 2.
        pairs: "dict[tuple[str, str], list[int]]" = {}
        local_count = 0
        ring_frames = 0
        ring_bytes = 0
        overflow: "list[tuple[int, tuple]]" = []
        fallback: "list[tuple]" = []
        for frames in staged:
            for frame in frames:
                receiver = frame[4]
                words = frame[7]
                key = (frame[3], receiver)
                stats = pairs.get(key)
                if stats is None:
                    pairs[key] = [words, 1, words]
                else:
                    stats[0] += words
                    stats[1] += 1
                    if words > stats[2]:
                        stats[2] = words
                info = machine_slots.get(receiver)
                if info is None:
                    fallback.append(frame)
                elif info[1] == my_slot:
                    pending.setdefault(receiver, []).append(frame)
                    local_count += 1
                else:
                    ring = rings_out.get(info[1])
                    if ring is not None and words * 8 + FRAME_HEADER <= ring.capacity + 64:
                        blob = encode_obj(frame)
                        if ring.write(blob):
                            ring_frames += 1
                            ring_bytes += len(blob) + FRAME_HEADER
                            continue
                    overflow.append((info[1], frame))
        per_round.append(
            (
                "routed",
                deltas,
                [(s, rcv, v[0], v[1], v[2]) for (s, rcv), v in pairs.items()],
                (local_count, ring_frames, ring_bytes, len(overflow)),
                overflow,
                fallback,
            )
        )
        completed = r + 1
        if overflow:
            # Overflowed frames need the driver's pipe forward path before
            # their consuming round — the block ends at this boundary.
            stopped = True
        if r < last_round:
            # Interior rounds self-apply this slot's own deltas so the next
            # round's runs read current owned state; the final round leaves
            # its deltas to the driver's normal barrier replay (the formula
            # is deterministic, so the driver knows which rounds to queue).
            if type(program).apply is not SuperstepProgram.apply and program.delta_scope != "driver":
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
    return ("block", completed, per_round, stopped)


def _session_migrate(
    sessions: "dict[str, _SessionState]", session_id: str, machine_ids: "list[str]"
) -> int:
    """Protocol op 3: drop resident state of machines re-planned elsewhere."""
    state = sessions.get(session_id)
    if state is None:
        return 0
    dropped = 0
    wanted = set(machine_ids)
    for key in [k for k in state.stores if k[0] in wanted]:
        del state.stores[key]
        dropped += 1
    for machine_id in wanted:
        state.store_versions.pop(machine_id, None)
    return dropped


def _session_close(sessions: "dict[str, _SessionState]", session_id: str) -> bool:
    """Protocol op 4: release everything the session held in this worker."""
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
        "round": _session_run_round,
        "run_block": _session_run_block,
        "flush": _session_flush,
        "migrate": _session_migrate,
        "close": _session_close,
        "sessions": lambda sess: sorted(sess),
    }
    while True:
        try:
            request = _decode(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if request[0] == "stop":
            try:
                conn.send_bytes(_encode(("ok", True)))
            except (BrokenPipeError, OSError):
                pass  # driver already closed its end; exit cleanly anyway
            return
        try:
            result: Any = ("ok", ops[request[0]](sessions, *request[1:]))
        except BaseException as exc:  # noqa: BLE001 - shipped to the driver
            result = ("err", exc)
        try:
            blob = _encode(result)
        except Exception:  # unserializable result/exception: keep the
            # original diagnostic (its repr), not the encoder's complaint
            blob = _encode(("err", RuntimeError(f"unserializable worker {result[0]}: {result[1]!r}")))
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
            self.conn.send_bytes(_encode(op))
        except (BrokenPipeError, OSError) as exc:
            raise ResidentWorkerError(f"resident worker slot {self.index} died") from exc

    def reply(self) -> Any:
        try:
            status, value = _decode(self.conn.recv_bytes())
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
            self.conn.send_bytes(_encode(("stop",)))
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

    For teardown paths (close, migrate-away): a dead slot holds no session
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
        self.opened = False
        self.worker_generation = generation
        self.resident_keys.clear()
        self.dirty.clear()
        self.pending.clear()
        self.shipped_programs.clear()
        self.store_versions.clear()
        self.map_version = -1
        self.rings_attached = False
        self.barrier_attached = False


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
        #: resident rounds that actually crossed the process boundary (the
        #: ``driver_local`` aggregation steps run inline and do not count)
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
        #: slot's next round request (ring overflow takes this path)
        self._forward: "list[list[tuple]]" = [[] for _ in range(slots)]
        #: union of receivers with any worker- or driver-held routed frame
        self._pending_ids: set[str] = set()
        #: program keys whose frames are currently held away from the driver
        #: — the blame set when a driver-side read forces a flush
        self._pending_keys: set[int] = set()
        #: program key -> False once its routed frames were flushed back for
        #: a driver-side read.  Routing such a program's sends away from the
        #: driver is pure loss — the bodies cross the pipe *twice* (stage at
        #: the worker, then the flush round trip) instead of riding the
        #: round reply once — so the session adapts: the first wasted round
        #: pays the lesson and every later round of that program takes the
        #: legacy funnel.  Worker-consumed programs (the common superstep
        #: shape) are never flushed and stay routed for the whole session.
        self._route_programs: dict[int, bool] = {}
        #: True while round requests are being built under the slot locks —
        #: the drain() hook must not re-enter the workers then
        self._suppress_sync = False
        #: cross-slot shm rings as a [src][dst] matrix; ``None`` = not
        #: created yet, ``[]`` = shm unavailable (pipe fallback for all)
        self._rings: "list[list[ShmRing | None]] | None" = None
        # ---- fused round blocks -------------------------------------------
        #: the shm round barrier multi-slot fused blocks synchronize on;
        #: created lazily on the first fused attempt
        self._barrier: "ShmRoundBarrier | None" = None
        #: barrier creation failed (shm unavailable) — stop trying to fuse
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
        try:
            if self.transport.inbox_router is None:
                self.transport.inbox_router = self
        except AttributeError:  # pragma: no cover - transport without routing
            pass

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
        return self.transport.shard_of(machine) % self.slot_count

    def _round_request(
        self,
        slot: _SlotState,
        program: SuperstepProgram,
        program_key: int,
        machines: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> tuple:
        """Assemble one slot's ``round`` request: only what is new or stale."""
        backend = self.backend
        # Programs this round needs at the slot: the one running, plus any
        # whose backlog deltas will be replayed.
        needed_programs = {program_key}
        needed_programs.update(pkey for pkey, _ in slot.pending)
        new_programs = {
            key: self._programs[key][1] for key in sorted(needed_programs - slot.shipped_programs)
        }

        # Shared keys those programs read or merge into.
        needed = set(program.session_keys())
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
                f"{type(program).__name__} session needs shared key {exc.args[0]!r} "
                f"but the session's shared state only has {sorted(shared)!r}"
            ) from None
        slot.resident_keys |= init_keys
        slot.dirty -= init_keys

        # Store snapshots whose version epoch moved (or never shipped).
        prefixes = program.store_reads
        store_updates = []
        if prefixes is None or prefixes:
            for machine in machines:
                version = machine.storage.version
                store_key = (machine.machine_id, prefixes)
                if slot.store_versions.get(store_key) != version:
                    store_updates.append(
                        (machine.machine_id, prefixes, version, backend._store_blob(machine, prefixes))
                    )
                    slot.store_versions[store_key] = version

        if program.reads_inbox:
            batch = [(machine.machine_id, _pack_inbox(machine.drain())) for machine in machines]
        else:
            # The program never looks at its inbox: drain driver-side (the
            # consumed-inbox semantics stand) and ship empty ones.
            batch = []
            for machine in machines:
                machine.drain()
                batch.append((machine.machine_id, ()))
        slot.shipped_programs.update(new_programs)
        return (
            "round",
            self.session_id,
            new_programs,
            program_key,
            replay,
            shared_init,
            store_updates,
            batch,
        )

    def _queue_replay(
        self, program: SuperstepProgram, program_key: int, pairs: "list[tuple[Machine, Any]]"
    ) -> None:
        """Queue one barrier's merged deltas for worker-side replay.

        Routing follows the program's declared ``delta_scope``: ``global``
        deltas go to every slot (including the originators — workers do not
        apply their own deltas; the barrier is driver-owned), ``owner``
        deltas only to the slot hosting the machine that produced them, and
        ``driver`` deltas nowhere (no ``run`` ever reads their effects).
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

    def run_round(
        self,
        cluster: "Cluster",
        program: SuperstepProgram,
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "RoundRecord":
        """One resident superstep: deltas in, sends/deltas out, same barrier."""
        program_key = self._program_key(program)

        if program.driver_local:
            # Declared-cheap aggregation step: run it where the inboxes
            # already live instead of shipping them over the pipe.  Same
            # sequential strategy, same barrier; the deltas still queue for
            # worker-side replay so resident shared copies stay in sync.
            deltas = []
            for machine in targets:
                deltas.append(program.run(LiveMachineContext(machine), machine.drain(), shared))
            for machine, delta in zip(targets, deltas):
                program.apply(shared, machine.machine_id, delta)
            self._queue_replay(program, program_key, list(zip(targets, deltas)))
            self.rounds_run += 1
            self.backend.last_superstep_mode = "resident-inline"
            return cluster.exchange()

        ledger = cluster.ledger
        # Slot-local routing needs the transport's fused (factory-bypassing)
        # delivery path — a hand-customised record factory must see real
        # Message streams, and driver-staged sends must not interleave with
        # worker-routed frames mid-round.  Programs whose sends a driver-side
        # read previously pulled back (see _route_programs) funnel their
        # *sends*; frames other programs left at the workers are still served
        # worker-locally (hybrid "funnel" rounds) when this batch covers
        # every pending receiver — otherwise exchange delivery behind the
        # round could slip younger messages into driver inboxes ahead of
        # older worker-held frames, and we must flush first instead.
        can_route = ledger.record_policy is not None and not self.transport.has_staged()
        # The adaptive lesson (_route_programs) wins when learned; otherwise
        # a declared ``driver_reads_sends=True`` skips the wasted
        # route-then-flush first round and funnels immediately.
        route_sends = can_route and self._route_programs.get(
            program_key, program.driver_reads_sends is not True
        )
        funnel = (
            can_route
            and not route_sends
            and bool(self._pending_ids)
            and self._pending_ids <= {m.machine_id for m in targets}
        )
        routed = route_sends or funnel
        if not routed and (self._pending_ids or any(self._forward)):
            # Downgrading to the legacy path this round: every worker-held
            # frame must reach its driver inbox before the batch drains it.
            self._flush_all()

        by_slot: "dict[int, list[Machine]]" = {}
        for machine in targets:
            by_slot.setdefault(self._slot_of(machine), []).append(machine)

        epoch = ledger.next_round_index
        if routed:
            self._refresh_machine_info()
            if route_sends and self.slot_count > 1 and self._rings is None:
                self._ensure_rings()

        # Lock the participating slot workers (in slot order — globally
        # consistent, so concurrent drivers cannot deadlock) for the whole
        # request→reply group: workers are process-wide and their pipes are
        # strictly request/reply aligned, so another thread's traffic must
        # not interleave with this round's.
        slot_workers = [(slot_index, _slot_worker(slot_index)) for slot_index in sorted(by_slot)]
        for _, worker in slot_workers:
            worker.lock.acquire()
        self._suppress_sync = True
        try:
            # Pipeline phase: every slot gets its request before any reply
            # is awaited, so worker execution overlaps across slots.  Any
            # failure in here aborts the round: every already-pipelined
            # request is drained (its worker still replies once per
            # request) and the session stops claiming residency — its
            # bookkeeping may no longer match what the workers hold.
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
                            # Recoverable only when this very round would
                            # have *discarded* every one of them anyway:
                            # the program drops its inbox and every pending
                            # receiver participates (held frames are always
                            # due by the receiver's next round).
                            participants = {m.machine_id for m in by_slot[slot_index]}
                            if not program.reads_inbox and rp <= participants:
                                rp.clear()
                            else:
                                raise ResidentWorkerError(
                                    f"resident worker slot {slot_index} was respawned "
                                    f"while holding undelivered slot-routed messages"
                                )
                        # the slot's process was (re)spawned underneath
                        # this session: nothing previously shipped survives
                        slot.reset_for(worker.generation)
                    request = self._round_request(slot, program, program_key, by_slot[slot_index], shared)
                    if routed:
                        request = request + (
                            self._routing_payload(slot_index, slot, epoch, program, funnel),
                        )
                        rp = self._remote_pending[slot_index]
                        if rp:
                            # this round's batch consumes the due frames the
                            # slot holds for its participating machines
                            for machine in by_slot[slot_index]:
                                rp.discard(machine.machine_id)
                    entry = [slot_index, worker, 0]
                    active.append(entry)
                    if not slot.opened:
                        worker.request(("open", self.session_id))
                        entry[2] += 1
                        slot.opened = True
                    if routed and self._rings and not slot.rings_attached:
                        worker.request(
                            (
                                "attach_shm",
                                self.session_id,
                                self._ring_specs(slot_index, "in"),
                                self._ring_specs(slot_index, "out"),
                            )
                        )
                        entry[2] += 1
                        slot.rings_attached = True
                    worker.request(request)
                    entry[2] += 1
            except BaseException as exc:
                if isinstance(exc, ResidentWorkerError) and worker is not None:
                    _evict_slot_worker(slot_index, worker)
                self._abort_round(active)
                raise

            # Deterministic merge barrier: join every slot (lowest slot's
            # error wins), then merge in target order — as every backend.
            results: "dict[str, tuple[list[tuple[str, str, Any]], Any]]" = {}
            slot_replies: "list[tuple[int, tuple]]" = []
            error: BaseException | None = None
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
                        # keep draining the remaining replies so the pipe
                        # stays request/reply aligned for the next superstep
                if not failed:
                    if routed:
                        slot_replies.append((slot_index, value))
                    else:
                        for machine_id, sent, delta in value:
                            results[machine_id] = (sent, delta)
            if error is not None:
                if routed:
                    # slots that did run already committed their frames;
                    # driver and worker pending views may now diverge
                    self._broken = True
                raise error
        finally:
            self._suppress_sync = False
            for _, worker in slot_workers:
                worker.lock.release()

        # One pipe round trip happened for this superstep (fused blocks pay
        # one per whole block instead — the counter the fusion win shows up in).
        ledger.driver_round_trips += 1
        if route_sends:
            return self._finish_routed_round(
                cluster, program, program_key, targets, shared, slot_replies
            )
        if funnel:
            # Hybrid round: every worker-held frame was consumed in place
            # (the gate required pending ⊆ targets), and the sends come
            # back in the legacy shape for driver-side replay below.
            for _slot_index, value in slot_replies:
                if not (isinstance(value, tuple) and len(value) == 2 and value[0] == "funneled"):
                    self._broken = True
                    raise ResidentWorkerError(
                        "resident worker returned a malformed funneled-round reply"
                    )
                for machine_id, sent, delta in value[1]:
                    results[machine_id] = (sent, delta)
            self._recompute_pending_ids()
            if not self._pending_ids:
                self._pending_keys = set()
        return self._finish_replayed_round(cluster, program, program_key, targets, shared, results)

    def _finish_replayed_round(
        self,
        cluster: "Cluster",
        program: SuperstepProgram,
        program_key: int,
        targets: "list[Machine]",
        shared: "dict[str, Any]",
        results: "dict[str, tuple[list[tuple[str, str, Any, int]], Any]]",
    ) -> "RoundRecord":
        """Finish a legacy/funnel round: driver-side replay, apply, exchange.

        Bulk replay: workers already sized every send with the exact sizer
        the transport charges (fast_word_size), so the staged messages are
        constructed directly — content, order and charged words identical
        to Machine.send staging them one by one.
        """
        transport = self.transport
        for machine in targets:
            sent = results[machine.machine_id][0]
            if sent:
                sender = machine.machine_id
                outbox = machine.outbox
                for receiver, tag, payload, words in sent:
                    outbox.append(
                        Message(sender=sender, receiver=receiver, tag=tag, payload=payload, words=words)
                    )
                transport.note_staged(machine)
        for machine in targets:
            program.apply(shared, machine.machine_id, results[machine.machine_id][1])
        self._queue_replay(
            program, program_key, [(m, results[m.machine_id][1]) for m in targets]
        )
        self.rounds_run += 1
        self.worker_rounds += 1
        self.backend.last_superstep_mode = "resident"
        return cluster.exchange()

    # ------------------------------------------------------------ fused blocks
    def run_block(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        """Run a program span, fusing maximal worker-drivable sub-spans.

        Segmentation is static — from the programs' contract declarations
        (:func:`fusable_interior` / :func:`fusable_terminal`) capped by
        ``DMPCConfig.fuse_rounds`` — and greedy: the longest eligible
        prefix at each position ships as one ``run_block``; everything
        else (including a mid-block stop's remainder) runs unfused through
        :meth:`run_round`, so the delivered rounds are bit-identical either
        way.
        """
        records: "list[RoundRecord]" = []
        i = 0
        count = len(programs)
        while i < count:
            span = 0 if self._broken else self._fusable_span(programs, i)
            if span >= 2:
                fused = self._run_fused(cluster, programs[i : i + span], targets, shared)
                if fused:
                    records.extend(fused)
                    i += len(fused)
                    continue
            # Not fusable here (or fusion unavailable): one unfused round.
            # Going through the backend re-checks the session gate, so a
            # mid-block breakage falls back to the process path cleanly.
            records.append(self.backend.run_superstep(cluster, programs[i], targets, shared))
            i += 1
        return records

    def _fusable_span(self, programs: "list[SuperstepProgram]", start: int) -> int:
        """Length of the longest fusable span at ``start`` (0 = don't fuse).

        A span is ``interior* terminal?``: interior rounds are worker-
        drivable by declaration *and* not runtime-demoted to the funnel
        path; one driver-read (or demoted) phase may end the span as its
        terminal round.
        """
        limit = resolve_fuse_rounds(self.cluster.config.fuse_rounds)
        if limit == 0:
            return 0
        cap = len(programs) - start
        if limit is not None:
            cap = min(cap, limit)
        span = 0
        while span < cap:
            program = programs[start + span]
            if not isinstance(program, SuperstepProgram):
                break
            routed = self._route_programs.get(
                self._program_key(program), program.driver_reads_sends is not True
            )
            if fusable_interior(program) and routed:
                span += 1
                continue
            if fusable_terminal(program) and (program.driver_reads_sends is True or routed):
                span += 1  # a driver-read phase can end the block
            break
        return span

    def _block_request(
        self,
        slot: _SlotState,
        slot_index: int,
        programs: "list[SuperstepProgram]",
        program_keys: "list[int]",
        specs: "list[tuple[int, bool, bool]]",
        machines: "list[Machine]",
        shared: "dict[str, Any]",
        epoch0: int,
        barrier_spec: "tuple[int, list[int]] | None",
    ) -> tuple:
        """Assemble one slot's ``run_block`` request (cf. :meth:`_round_request`).

        The sync payload covers the whole span: programs, shared keys and
        store snapshots are the union over every round's declarations, the
        inbox batch belongs to round 0 (later rounds have worker frames
        only — the driver does no work in between), and the block payload
        carries the per-round specs plus the barrier base.
        """
        backend = self.backend
        needed_programs = set(program_keys)
        needed_programs.update(pkey for pkey, _ in slot.pending)
        new_programs = {
            key: self._programs[key][1] for key in sorted(needed_programs - slot.shipped_programs)
        }
        needed: "set[str]" = set()
        for program in programs:
            needed.update(program.session_keys())
        for pkey, _ in slot.pending:
            needed.update(self._programs[pkey][0].session_keys())
        new_keys = needed - slot.resident_keys
        if slot.pending and new_keys:
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
            batch = [(machine.machine_id, _pack_inbox(machine.drain())) for machine in machines]
        else:
            batch = []
            for machine in machines:
                machine.drain()
                batch.append((machine.machine_id, ()))
        slot.shipped_programs.update(new_programs)

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
        block = {
            "epoch0": epoch0,
            "slot": slot_index,
            "map": map_update,
            "forward": forward,
            "rounds": specs,
            "barrier": barrier_spec,
        }
        return (
            "run_block",
            self.session_id,
            new_programs,
            replay,
            shared_init,
            store_updates,
            batch,
            block,
        )

    def _run_fused(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord] | None":
        """One fused block: one pipe round trip for up to ``len(programs)`` rounds.

        Returns the delivered records (possibly fewer than requested when a
        ring overflow stopped the block early), or ``None`` when fusion is
        unavailable right now (staged driver sends, no accounting policy,
        shm rings/barrier unavailable) — the caller then runs the span
        unfused.  The finish loop replays each completed round through the
        exact unfused merge paths, so records, deltas and traffic are
        bit-identical to per-round execution.
        """
        ledger = cluster.ledger
        if ledger.record_policy is None or self.transport.has_staged():
            return None
        by_slot: "dict[int, list[Machine]]" = {}
        for machine in targets:
            by_slot.setdefault(self._slot_of(machine), []).append(machine)
        participating = sorted(by_slot)
        multi = len(participating) > 1
        self._refresh_machine_info()
        if multi:
            if self._rings is None:
                self._ensure_rings()
            if not self._rings:
                return None  # no shm: every round would need the pipe anyway
            if self._barrier is None and not self._barrier_failed:
                try:
                    self._barrier = ShmRoundBarrier.create(self.slot_count)
                except Exception:  # pragma: no cover - shm unavailable
                    self._barrier_failed = True
            if self._barrier is None:
                return None

        program_keys = [self._program_key(program) for program in programs]
        # Per-round worker specs: (program key, drop_inbox, funnel).  Only a
        # declared driver-read terminal funnels; demoted-but-declared-False
        # programs never enter a span (see _fusable_span).
        specs = [
            (key, not program.reads_inbox, program.driver_reads_sends is True)
            for key, program in zip(program_keys, programs)
        ]
        epoch0 = ledger.next_round_index
        base = self._barrier_base

        slot_workers = [(slot_index, _slot_worker(slot_index)) for slot_index in participating]
        for _, worker in slot_workers:
            worker.lock.acquire()
        self._suppress_sync = True
        self.in_fused_block = True
        block_replies: "dict[int, tuple]" = {}
        try:
            try:
                active: "list[list]" = []
                slot_index, worker = -1, None
                try:
                    for slot_index, worker in slot_workers:
                        slot = self._slots[slot_index]
                        if slot.worker_generation != worker.generation:
                            if self._remote_pending[slot_index]:
                                raise ResidentWorkerError(
                                    f"resident worker slot {slot_index} was respawned "
                                    f"while holding undelivered slot-routed messages"
                                )
                            slot.reset_for(worker.generation)
                        request = self._block_request(
                            slot,
                            slot_index,
                            programs,
                            program_keys,
                            specs,
                            by_slot[slot_index],
                            shared,
                            epoch0,
                            (base, participating) if multi else None,
                        )
                        entry = [slot_index, worker, 0]
                        active.append(entry)
                        if not slot.opened:
                            worker.request(("open", self.session_id))
                            entry[2] += 1
                            slot.opened = True
                        if multi and (
                            (self._rings and not slot.rings_attached) or not slot.barrier_attached
                        ):
                            worker.request(
                                (
                                    "attach_shm",
                                    self.session_id,
                                    self._ring_specs(slot_index, "in"),
                                    self._ring_specs(slot_index, "out"),
                                    (self._barrier.name, self.slot_count),
                                )
                            )
                            entry[2] += 1
                            slot.rings_attached = True
                            slot.barrier_attached = True
                        worker.request(request)
                        entry[2] += 1
                except BaseException as exc:
                    if isinstance(exc, ResidentWorkerError) and worker is not None:
                        _evict_slot_worker(slot_index, worker)
                    self._abort_round(active)
                    raise

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
                    # slots that did run already committed fused rounds;
                    # driver and worker views have diverged
                    self._broken = True
                    raise error
            finally:
                self._suppress_sync = False
                for _, worker in slot_workers:
                    worker.lock.release()

            # Validate: every slot speaks the block protocol and committed
            # the same number of rounds (the barrier's stop-bit guarantee).
            completed: "int | None" = None
            for slot_index, value in sorted(block_replies.items()):
                if not (isinstance(value, tuple) and len(value) == 4 and value[0] == "block"):
                    self._broken = True
                    raise ResidentWorkerError(
                        f"resident worker slot {slot_index} replied out of protocol "
                        f"to a fused block request"
                    )
                if completed is None:
                    completed = value[1]
                elif value[1] != completed:
                    self._broken = True
                    raise ResidentWorkerError(
                        f"resident worker slots disagree on fused rounds completed "
                        f"({completed} vs {value[1]} at slot {slot_index})"
                    )
            assert completed is not None and completed >= 1
            if multi:
                self._barrier_base = base + completed

            # Finish loop: replay each completed round through the exact
            # unfused merge paths, in order — deposit-then-exchange per
            # round rebuilds every RoundRecord bit-identically.
            per_slot_rounds = {si: value[2] for si, value in block_replies.items()}
            records: "list[RoundRecord]" = []
            for r in range(completed):
                program = programs[r]
                program_key = program_keys[r]
                funnel = specs[r][2]
                # This round's batch consumed the due frames each slot held
                # for its participating machines (same bookkeeping run_round
                # does at request-build time, replayed here per round).
                for si in participating:
                    rp = self._remote_pending[si]
                    if rp:
                        for machine in by_slot[si]:
                            rp.discard(machine.machine_id)
                entries = [(si, per_slot_rounds[si][r]) for si in participating]
                if funnel:
                    results: "dict[str, tuple[list, Any]]" = {}
                    for si, entry in entries:
                        if not (isinstance(entry, tuple) and len(entry) == 2 and entry[0] == "funneled"):
                            self._broken = True
                            raise ResidentWorkerError(
                                "resident worker returned a malformed funneled round "
                                "inside a fused block"
                            )
                        for machine_id, sent, delta in entry[1]:
                            results[machine_id] = (sent, delta)
                    self._recompute_pending_ids()
                    if not self._pending_ids:
                        self._pending_keys = set()
                    records.append(
                        self._finish_replayed_round(cluster, program, program_key, targets, shared, results)
                    )
                else:
                    # Workers self-applied every round but the span's final
                    # one (same deterministic formula both sides) — queueing
                    # those for replay would double-apply at the owner slot.
                    records.append(
                        self._finish_routed_round(
                            cluster,
                            program,
                            program_key,
                            targets,
                            shared,
                            entries,
                            queue_replay=(r == len(specs) - 1),
                        )
                    )
            ledger.fused_rounds += completed
            ledger.driver_round_trips += 1
            self.backend.last_superstep_mode = "resident-fused"
        finally:
            self.in_fused_block = False
        if self.pending_autotune:
            # replan_every fired during the finish loop's exchanges — the
            # deferred tick lands here, on the block boundary.
            self.pending_autotune = False
            if not self._broken:
                cluster.autotune_replan()
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

    def _routing_payload(
        self,
        slot_index: int,
        slot: _SlotState,
        epoch: int,
        program: SuperstepProgram,
        funnel: bool = False,
    ) -> "dict[str, Any]":
        """The ``routing`` element of one slot's round request."""
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
        return {
            "epoch": epoch,
            "slot": slot_index,
            "map": map_update,
            "forward": forward,
            "drop_inbox": not program.reads_inbox,
            "funnel": funnel,
        }

    def _ring_capacity(self) -> int:
        """Bytes per cross-slot ring: explicit override or sized from ``S``.

        A slot's per-round egress is bounded by its machines' I/O budgets —
        ``S`` words per sender — so rings are pre-sized from the same
        quantity the ``fast_word_size`` sizer charges against: ``S`` times
        the machines per slot, at a generous bytes-per-word multiple,
        clamped to [64 KiB, 4 MiB].  Overflow falls back to the pipe, so
        this is purely a performance choice.
        """
        config = self.cluster.config
        override = config.resident_shm_ring_bytes
        if override is not None:
            return override
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
        slot_replies: "list[tuple[int, tuple]]",
        queue_replay: bool = True,
    ) -> "RoundRecord":
        """Merge routed-round replies and deposit the round at the transport.

        Message *bodies* stayed in the workers (or their rings); only the
        per-(sender, receiver) word aggregates cross the pipe, and the
        transport rebuilds the identical :class:`RoundRecord` from them.
        ``queue_replay=False`` is the fused-block interior case: the owning
        workers already self-applied these deltas, so queueing them for
        replay would double-apply.
        """
        info = self._machine_info
        pair_totals: "dict[tuple[str, str], list[int]]" = {}
        local_count = ring_frames = ring_bytes = overflow_count = 0
        fallback: "list[tuple]" = []
        deltas: "dict[str, Any]" = {}
        for slot_index, reply in slot_replies:
            if not (isinstance(reply, tuple) and reply and reply[0] == "routed"):
                self._broken = True
                raise ResidentWorkerError(
                    f"resident worker slot {slot_index} replied out of protocol "
                    f"to a routed round request"
                )
            _, slot_deltas, pair_list, traffic, overflow, slot_fallback = reply
            for machine_id, delta in slot_deltas:
                deltas[machine_id] = delta
            for sender, receiver, words, count, max_words in pair_list:
                stats = pair_totals.get((sender, receiver))
                if stats is None:
                    pair_totals[(sender, receiver)] = [words, count, max_words]
                else:
                    stats[0] += words
                    stats[1] += count
                    if max_words > stats[2]:
                        stats[2] = max_words
            local_count += traffic[0]
            ring_frames += traffic[1]
            ring_bytes += traffic[2]
            overflow_count += traffic[3]
            fallback.extend(slot_fallback)
            for dst_slot, frame in overflow:
                self._forward[dst_slot].append(frame)
        fallback.sort(key=_frame_sort_key)
        for _, receiver in pair_totals:
            slot_info = info.get(receiver)
            if slot_info is not None:
                self._remote_pending[slot_info[1]].add(receiver)
        self._recompute_pending_ids()
        if local_count or ring_frames or overflow_count:
            # this round's frames are held away from the driver; if a
            # driver-side read flushes them back, this key takes the blame
            self._pending_keys.add(program_key)

        # The same barrier as every backend: all runs happened, now all
        # applies in target order, then one exchange.
        for machine in targets:
            program.apply(shared, machine.machine_id, deltas[machine.machine_id])
        if queue_replay:
            self._queue_replay(program, program_key, [(m, deltas[m.machine_id]) for m in targets])
        self.rounds_run += 1
        self.worker_rounds += 1
        self.local_messages += local_count
        self.cross_slot_messages += ring_frames + overflow_count
        self.shm_bytes += ring_bytes
        self.pipe_fallbacks += overflow_count
        self.shm_frames += ring_frames
        self.backend.last_superstep_mode = "resident-routed"
        self.transport.deposit_worker_round(
            {
                "pairs": pair_totals,
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
                if not slot.opened:
                    worker.request(("open", self.session_id))
                    worker.reply()
                    slot.opened = True
                if self._rings and not slot.rings_attached:
                    worker.request(
                        (
                            "attach_shm",
                            self.session_id,
                            self._ring_specs(slot_index, "in"),
                            self._ring_specs(slot_index, "out"),
                        )
                    )
                    worker.reply()
                    slot.rings_attached = True
                worker.request(("flush", self.session_id))
                return worker.reply()
        except ResidentWorkerError:
            self._mark_broken(slot_index, worker)
            raise

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
        self._pending_keys = set()
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
            # the driver wants these bodies: routing their producers away
            # from it was wasted motion — funnel them from now on
            for key in self._pending_keys:
                self._route_programs[key] = False
            self._flush_all()

    def flush_for_exchange(self) -> None:
        """Inbox-router hook: a driver-side delivery wants complete inboxes."""
        if self._broken:
            return
        if self._pending_ids or any(self._forward):
            for key in self._pending_keys:
                self._route_programs[key] = False
            self._flush_all()

    def discard_pending(self) -> None:
        """Inbox-router hook for ``discard_undelivered``: drop routed frames."""
        pending = self._remote_pending
        self._remote_pending = [set() for _ in range(self.slot_count)]
        self._forward = [[] for _ in range(self.slot_count)]
        self._pending_ids = set()
        self._pending_keys = set()
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
        (later supersteps fall back to the stateless process path) and evict
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

    # ---------------------------------------------------------------- migration
    def migrate(self, plan: "ShardPlan") -> None:
        """Drop resident snapshots of machines whose worker slot changed.

        Called behind the merge barrier after the transport adopted the new
        plan (its memoised shard map is already rebuilt).  Only machines
        the re-plan actually moved are touched: their snapshots are dropped
        at the old slot and re-shipped from the driver's authoritative
        stores on next use at the new slot.  The shared slice is symmetric
        at every slot and needs no migration.
        """
        # Worker-held routed frames are addressed by the *old* locality:
        # pull them all back into driver inboxes before the map changes
        # (they re-ship with the next round's batches).  Physical slot
        # indices identify the workers, so flushing after the transport
        # switched plans is safe.
        self._flush_all()
        self._map_count = -1  # force a routing-map rebuild + re-ship
        cluster = self.cluster
        moved: set[str] = set()
        drops: "dict[int, set[str]]" = {}
        for slot_index, slot in enumerate(self._slots):
            stale: set[str] = set()
            for store_key in list(slot.store_versions):
                machine_id = store_key[0]
                if self._slot_of(cluster.machine(machine_id)) != slot_index:
                    del slot.store_versions[store_key]
                    stale.add(machine_id)
            if stale:
                moved.update(stale)
                if slot.opened:
                    drops[slot_index] = stale
        for slot_index, stale in sorted(drops.items()):
            worker = _peek_slot_worker(slot_index)
            if worker is None or self._slots[slot_index].worker_generation != worker.generation:
                # Dead or respawned: the old worker's state is already gone
                # and the next round's generation check re-ships wholesale —
                # nothing to drop, and nothing worth spawning a process for.
                continue
            # Sequential request/reply (re-plans are rare): a failure can
            # never leave unread replies behind on the shared workers.
            try:
                worker.call(("migrate", self.session_id, sorted(stale)))
            except ResidentWorkerError:
                self._mark_broken(slot_index, worker)
        # Owner-scoped deltas only ever replayed at a machine's old slot
        # make the *new* slot's resident shared copy stale for that
        # machine's slice — and machine→slot moves are invisible here when
        # the program ships no stores (store_versions empty).  A re-plan is
        # rare, so invalidate every resident key unconditionally: one fresh
        # ship per slot on next use buys unconditional correctness.
        for slot in self._slots:
            slot.dirty |= slot.resident_keys
        self.last_migration = sorted(moved)

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
        if getattr(transport, "inbox_router", None) is self:
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


@register_backend
class ResidentBackend(ProcessBackend):
    """Process backend + session-scoped resident worker state.

    Inherits the sharded transport, the version-memoised store pickling and
    the process-pool program path from :class:`ProcessBackend`; adds the
    session seam.  Outside an active session (driver-style dynamic
    workloads, closure handlers, fewer than two worker slots) it *is* the
    process backend.
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

    @property
    def worker_slots(self) -> int:
        """How many resident worker slots a session on this backend uses.

        ``config.resident_slots`` pins the count explicitly (still clamped
        to the shard count — a slot with no shards would idle).  The
        default is bounded by ``max_workers``, the shard count *and the
        real CPU parallelism of the host*: unlike a pool size (where
        oversubscribed processes merely timeshare), every extra resident
        slot costs two context switches per superstep, so slots beyond the
        hardware's parallelism are pure overhead.  One slot is perfectly
        meaningful — residency is about state locality (stores shipped
        once, deltas replayed), not about the width of the fan-out.
        """
        override = self.config.resident_slots
        if override is not None:
            return max(1, min(override, self.plan.shard_count))
        return max(1, min(self.max_workers, self.plan.shard_count, os.cpu_count() or 1))

    def open_session(self, cluster: "Cluster", shared: "dict[str, Any]") -> ExecutionSession:
        return ResidentSession(self, cluster, shared, self.worker_slots)

    def run_superstep(
        self,
        cluster: "Cluster",
        program: "SuperstepHandler",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "RoundRecord":
        session = cluster._active_session
        if (
            isinstance(session, ResidentSession)
            and not session._broken
            and session.backend is self
            and shared is session.shared
            and isinstance(program, SuperstepProgram)
        ):
            return session.run_round(cluster, program, targets, shared)
        return super().run_superstep(cluster, program, targets, shared)

    def run_superstep_block(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepHandler]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        session = cluster._active_session
        if (
            isinstance(session, ResidentSession)
            and not session._broken
            and session.backend is self
            and shared is session.shared
            and all(isinstance(program, SuperstepProgram) for program in programs)
        ):
            return session.run_block(cluster, list(programs), targets, shared)
        return super().run_superstep_block(cluster, programs, targets, shared)

    def replan(self, cluster: "Cluster", plan: "ShardPlan") -> bool:
        session = cluster._active_session
        if session is not None and session.in_fused_block:
            raise ProtocolError(
                "live re-plan inside a fused round block: workers are mid-loop "
                "and hold the old locality; replans must land on block boundaries "
                "(replan_every ticks are deferred there automatically)"
            )
        applied = super().replan(cluster, plan)
        if applied and isinstance(session, ResidentSession) and not session._broken:
            session.migrate(plan)
        return applied
