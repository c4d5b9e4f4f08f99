"""Declarative, picklable superstep programs.

A BSP superstep is a :class:`SuperstepProgram`: a declarative object that
makes every data dependency explicit, so one program definition runs
bit-for-bit identically under every execution strategy — sequentially in
the driver, or shipped to a long-lived worker process by the ``resident``
backend.  (Ad-hoc closures over driver state cannot be pickled, so
:meth:`Cluster.superstep <repro.mpc.cluster.Cluster.superstep>` refuses
them.)

* **program state** — whatever the per-machine code needs that is constant
  over the run (owner maps, worker ids, seeds) lives on the program
  instance as plain picklable attributes, set in ``__init__`` at module
  level.  No cluster, machine, graph or closure references.
* **shared driver state in** — mutable driver-side state the code *reads*
  (label maps, matched sets, ...) is passed to :meth:`run` as a mapping;
  :attr:`shared_reads` declares which keys must be shipped to a worker
  process.  ``run`` must treat the mapping as read-only — the in-process
  strategy hands it the live driver dicts.
* **machine-local state in** — the machine's key/value store is reachable
  only through :meth:`MachineContext.load`; :attr:`store_reads` declares
  which key prefixes a worker needs.  Loaded values must not be mutated.
* **state out** — all mutations of shared driver state leave ``run`` as a
  picklable *delta* (the return value).  Deltas are merged by
  :meth:`apply`, which the execution strategy calls **driver-side at the
  round barrier, in target order, for every machine** — after all ``run``
  calls, before the exchange.  Because the superstep contract already
  requires per-machine code to mutate only machine-owned state, deltas of
  different machines are disjoint and barrier-merging is unobservable.
* **messages out** — staged through :meth:`MachineContext.send`, or, for a
  fan-out of pre-sized messages under one tag, :meth:`MachineContext.send_many`
  (the same messages in the same order as the ``send`` loop, staged in one
  step).  A worker records ``(receiver, tag, payload, words)`` tuples and
  the driver replays them through :meth:`Machine.send` in the same order,
  so sizing, staging order and delivery are identical to in-process
  execution.

The one sanctioned exception to the read-only rule for ``shared``: a
mutation that is *semantically invisible* — e.g. union-find path
compression, where every compressed pointer is a valid ancestor — may
touch the live mapping in-process; in a worker it merely touches the
shipped copy and is discarded.  Anything observable must travel through
the delta.

Programs must also be **frozen once the first superstep runs**: a
resident session pickles the program once, and the in-process strategy
uses the live object, so post-construction mutation would make the
strategies diverge.  Per-round scalars (round numbers, phase flags)
belong in the shared state, not on the program.

The delta-replay contract
-------------------------

The ``resident`` backend (:mod:`repro.runtime.resident`) keeps a copy of
the shared state inside long-lived worker processes and keeps that copy in
sync by **replaying the very deltas the driver merges at the barrier** —
instead of re-shipping the shared slice every round.  That replay is only
sound when :meth:`apply` honours two further rules, which together form
the *delta-replay contract*:

* **determinism** — ``apply(shared, machine_id, delta)`` must be a pure
  function of its three arguments: replaying the same deltas in the same
  (target) order against an identical copy of the shared state must
  reproduce the driver's merged state exactly.  No reads of driver-only
  globals, no randomness, no dependence on *when* it runs.
* **declared writes** — every shared key ``apply`` writes (or reads while
  merging) that is not already in :attr:`shared_reads` must be declared in
  :attr:`shared_writes`, so a resident session knows to ship those keys to
  the worker copy before the first replay touches them.

Driver code that mutates shared state *outside* ``apply`` between
supersteps (a coordinator decision, a round-number bump) must tell its
resident session via ``session.touch(key, ...)`` so the stale keys are
re-shipped — see :meth:`repro.runtime.base.ExecutionSession.touch`.

Checking the contract
---------------------

The declarations above are *load-bearing*: a program that reads an
undeclared key works in-process and silently diverges in a resident
worker.  Two tools keep them honest:

* ``python -m repro.lint`` (:mod:`repro.lint`) statically checks every
  program class in the tree against its declarations — rule codes RP101
  (undeclared shared read) through RP108, run in CI next to ruff;
* ``REPRO_CHECK_CONTRACTS=1`` (:mod:`repro.mpc.contract`) makes the
  sequential strategy execute programs against recording views with
  worker-parity semantics, so the same undeclared read raises
  in-process exactly where a worker would raise, and tests can assert
  the static findings match the runtime-observed reads and writes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, MutableMapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.machine import Machine
    from repro.mpc.message import Message

__all__ = [
    "SuperstepProgram",
    "MachineContext",
    "LiveMachineContext",
    "WorkerMachineContext",
    "store_subset",
    "fusable_interior",
    "fusable_terminal",
]


class MachineContext(abc.ABC):
    """What a program's per-machine code may touch: id, store reads, sends.

    This deliberately narrow surface (no ``store``, no mailbox access, no
    cluster) is what makes one program definition executable both against a
    live :class:`~repro.mpc.machine.Machine` and against a shipped store
    snapshot inside a worker process.
    """

    __slots__ = ()

    @property
    @abc.abstractmethod
    def machine_id(self) -> str:
        """Identifier of the machine this run executes on."""

    @abc.abstractmethod
    def load(self, key: Any, default: Any = None) -> Any:
        """Read the machine's local store.  The value must not be mutated."""

    @abc.abstractmethod
    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        """Stage a message for the next round.

        ``words`` pre-sizes the message explicitly; ``None`` defers to the
        transport's sizing policy.  Programs whose payloads have a closed-form
        size (the CSR kernels: ``k`` proposal tuples cost ``3 + 4k`` words)
        pass it to skip the per-element sizing walk — the value must equal
        what the sizer would have charged, which the closed-form tests in
        ``tests/static_mpc/test_layout_ab.py`` pin down.
        """

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        """Stage one ``tag`` message per pre-sized ``(receiver, payload, words)`` triple.

        The fan-out form of :meth:`send` — the same messages, in the same
        order, as ``send(receiver, tag, payload, words=words)`` per triple.
        There is no unsized batch form: a kernel that fans out knows its
        closed-form sizes.  Contexts that build their own send records
        override this loop with a single bulk append.
        """
        for receiver, payload, words in sends:
            self.send(receiver, tag, payload, words=words)


class LiveMachineContext(MachineContext):
    """In-process view: delegates straight to the live machine."""

    __slots__ = ("_machine",)

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine

    @property
    def machine_id(self) -> str:
        return self._machine.machine_id

    def load(self, key: Any, default: Any = None) -> Any:
        return self._machine.load(key, default)

    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        self._machine.send(receiver, tag, payload, words=words)

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        self._machine.send_many(tag, sends)


class WorkerMachineContext(MachineContext):
    """Worker-process view: loads from a shipped store snapshot, records sends.

    The recorded ``(receiver, tag, payload, words)`` tuples are replayed
    through :meth:`Machine.send` driver-side, in recording order, so the
    staged messages — content, order, charged words — are identical to the
    ones a :class:`LiveMachineContext` would have staged directly (``words``
    is ``None`` unless the program pre-sized the send explicitly).
    """

    __slots__ = ("_machine_id", "_store", "sent")

    def __init__(self, machine_id: str, store: Mapping[Any, Any]) -> None:
        self._machine_id = machine_id
        self._store = store
        #: recorded sends, in staging order
        self.sent: list[tuple[str, str, Any, int | None]] = []

    @property
    def machine_id(self) -> str:
        return self._machine_id

    def load(self, key: Any, default: Any = None) -> Any:
        return self._store.get(key, default)

    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        self.sent.append((receiver, tag, payload, words))

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        self.sent.extend([(receiver, tag, payload, words) for receiver, payload, words in sends])


class SuperstepProgram(abc.ABC):
    """One superstep's per-machine code as a picklable object.

    Subclasses are defined at module level, hold only picklable constants,
    and implement :meth:`run` (per machine, possibly in a worker process)
    plus — when they produce shared-state deltas — :meth:`apply` (driver
    side, at the barrier).  See the module docstring for the full
    serialization contract.
    """

    #: shared-state keys :meth:`run` reads — the subset of the ``shared``
    #: mapping shipped to worker processes.  Reading an undeclared key works
    #: in-process but raises in a worker; declare everything you read.
    shared_reads: tuple[str, ...] = ()

    #: machine-store key prefixes :meth:`run` loads.  A stored key matches
    #: when it equals a prefix, or is a tuple whose first element equals a
    #: prefix (the ``("adj", v)`` convention).  ``None`` ships the whole
    #: store; the default ``()`` ships nothing.
    store_reads: tuple[str, ...] | None = ()

    #: shared-state keys :meth:`apply` writes (or reads while merging)
    #: beyond :attr:`shared_reads`.  Part of the delta-replay contract (see
    #: the module docstring): a resident worker session replays merged
    #: deltas against its copy of the shared state, so every key the replay
    #: touches must be resident — the session ships
    #: ``shared_reads + shared_writes`` before the program's first round.
    shared_writes: tuple[str, ...] = ()

    #: whether :meth:`run` reads its ``inbox`` argument at all.  Phase
    #: programs that only *produce* messages (propose/scan phases whose
    #: inbox holds nothing but stale flags from the previous phase) declare
    #: ``False`` so resident sessions drain the inboxes driver-side (the
    #: consumed-inbox semantics are unchanged) and ship the workers empty
    #: ones instead of serializing messages nobody will look at.
    reads_inbox: bool = True

    #: execution hint for resident sessions: ``True`` marks this program's
    #: per-machine work as cheap aggregation (scan the inbox, fold into a
    #: delta) that is not worth a worker round trip — the session runs it
    #: driver-side instead of shipping the drained inboxes to the workers.
    #: Purely an execution-strategy choice, like slot counts: the
    #: barrier, the deltas, the worker-side replay and the delivered round
    #: are identical either way.
    driver_local: bool = False

    #: how far one machine's merged delta must travel for replay — the
    #: second half of the delta-replay contract:
    #:
    #: ``"global"``
    #:     (default, always safe) the delta may influence shared state any
    #:     machine's ``run`` reads; resident sessions replay it at every
    #:     worker.
    #: ``"owner"``
    #:     machine ``m``'s delta only writes shared state that future
    #:     ``run`` calls *of machine m itself* read (the vertex-partitioned
    #:     pattern: owners merge facts about their own vertices); sessions
    #:     replay it only at the worker hosting ``m``.
    #: ``"driver"``
    #:     the delta feeds driver-side decisions only (termination flags,
    #:     candidate counts) — no ``run`` ever reads what ``apply`` writes;
    #:     sessions skip worker replay entirely.
    #:
    #: Declaring a narrower scope than the writes warrant is a correctness
    #: bug (a worker would read a stale copy); declaring wider is merely
    #: slower.  When in doubt, leave the default.
    delta_scope: str = "global"

    #: whether the *driver* reads the messages this program sends — i.e.
    #: whether any machine's inbox is drained driver-side
    #: (:meth:`Machine.drain` / :meth:`Machine.receive`) between this
    #: program's round and the next superstep that would consume them.
    #: The third fusability input (next to :attr:`driver_local` and
    #: :attr:`delta_scope`): a phase whose sends only feed the *next
    #: phase's* inboxes (``False``) can run entirely inside the resident
    #: workers across several rounds without the driver ever seeing a
    #: message body, so the resident backend may fuse it into a
    #: worker-driven round block (see :func:`fusable_interior`).  ``True``
    #: marks a phase whose sends the driver aggregates (proposal
    #: accept/reject scans); such a phase can only ever *end* a fused
    #: block, with its sends funneled back on the block reply.  ``None``
    #: (the default) means unknown/dynamic — never fused, and resident
    #: sessions keep the adaptive flush-then-demote behaviour.
    driver_reads_sends: bool | None = None

    def session_keys(self) -> tuple[str, ...]:
        """All shared keys a resident session must keep in sync for this program.

        The declared reads plus the declared ``apply`` writes, de-duplicated
        with declaration order preserved (deterministic, so driver and
        worker agree on what ships).
        """
        return tuple(dict.fromkeys(self.shared_reads + self.shared_writes))

    @abc.abstractmethod
    def run(self, ctx: MachineContext, inbox: "list[Message]", shared: Mapping[str, Any]) -> Any:
        """Execute this machine's share of the superstep.

        ``inbox`` is the machine's fully drained inbox.  ``shared`` is the
        driver's shared state (read-only; only :attr:`shared_reads` keys are
        available in a worker).  Returns a picklable delta handed to
        :meth:`apply` at the barrier — return ``None`` when there is
        nothing to merge.
        """

    def apply(self, shared: MutableMapping[str, Any], machine_id: str, delta: Any) -> None:
        """Merge one machine's delta into the shared driver state.

        Called driver-side at the round barrier for **every** target
        machine, in target order, with whatever :meth:`run` returned
        (including ``None``) — so programs that must record per-machine
        facts every round (termination flags) can rely on being called.
        The default ignores the delta.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shared_reads={self.shared_reads!r}, store_reads={self.store_reads!r})"


def _key_matches(key: Any, prefixes: tuple[str, ...]) -> bool:
    if isinstance(key, tuple) and key:
        return key[0] in prefixes
    return key in prefixes


def store_subset(items: "Iterator[tuple[Any, Any]]", prefixes: tuple[str, ...] | None) -> dict[Any, Any]:
    """The slice of a machine store a program declared via ``store_reads``."""
    if prefixes is None:
        return dict(items)
    if not prefixes:
        return {}
    return {key: value for key, value in items if _key_matches(key, prefixes)}


# ----------------------------------------------------------------- fusability
def fusable_interior(program: "SuperstepProgram") -> bool:
    """Whether a fused round block may run ``program`` *without* returning.

    Worker-drivability, derived purely from the declared contract: the
    driver must have nothing to do between this round and the next —

    * no :attr:`~SuperstepProgram.driver_local` aggregation (that is
      driver-side work by definition);
    * the driver provably never reads this round's sends
      (``driver_reads_sends is False``) — the messages only feed the next
      round's inboxes, which live at the workers during a block;
    * the barrier's delta merge is worker-reproducible: ``owner``-scoped
      deltas are applied by the owning slot itself (owned shared slices
      are disjoint across machines, so slot-local application in target
      order equals the driver's global merge), and ``global``-scoped
      programs qualify only with the default no-op ``apply`` (a real
      global merge would have to reach *every* slot mid-block).
    """
    if program.driver_local or program.driver_reads_sends is not False:
        return False
    scope = program.delta_scope
    if scope == "owner":
        return True
    return scope == "global" and type(program).apply is SuperstepProgram.apply


def fusable_terminal(program: "SuperstepProgram") -> bool:
    """Whether ``program`` may run as the *last* round of a fused block.

    The terminal round still executes inside the workers (its inbox is
    worker-held frames from the block's earlier rounds), but its sends may
    return to the driver on the block reply — so ``driver_reads_sends``
    may be ``True`` (declared driver-read phases funnel their sends), it
    just must not be ``None`` (unknown means the adaptive driver-side
    machinery must stay in charge).  Deltas are merged driver-side after
    the block, exactly like an unfused round, so any worker-replayable
    ``delta_scope`` qualifies.
    """
    return (
        not program.driver_local
        and program.driver_reads_sends is not None
        and program.delta_scope in ("owner", "global")
    )
