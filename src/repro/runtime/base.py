"""Execution-backend protocol: *what* a round means vs *how* it runs.

The DMPC simulator separates two concerns that used to be welded together
in :mod:`repro.mpc.cluster` / :mod:`repro.mpc.machine`:

* **simulation semantics** — which messages exist, what they cost in words,
  which rounds happen, what the maintained solution is.  These are fixed by
  the algorithms and must be identical under every backend.
* **execution strategy** — how machine-local storage is sized and charged,
  how staged messages are collected and delivered, and how much per-round
  detail the metrics ledger retains.  These are pluggable.

An :class:`ExecutionBackend` bundles one choice of execution strategy as
two cooperating policies:

``MachineStorage``
    the key/value store backing one :class:`~repro.mpc.machine.Machine`,
    including the word-size accounting and (when ``strict``) the
    ``MachineMemoryExceeded`` enforcement;
``Transport``
    the mailbox fabric.  A concrete transport chooses *which* machines a
    round visits; what a round does to them is one pass shared by all,
    :meth:`Transport.deliver` — validate receivers, enforce the per-round
    I/O cap, condense the round into its
    :class:`~repro.mpc.metrics.RoundRecord` and move the outboxes into the
    inboxes.  Whether a round keeps its per-(sender, receiver) breakdown is
    a class constant of the transport, :attr:`Transport.pair_detail`: every
    round on ``reference``, none on ``fast`` / ``resident``.  A round that
    only charges a packet nobody reads — one sender, the same words to
    every receiver — is :meth:`Transport.broadcast`, which files the row
    ``deliver`` would file without building or moving a message.

Backends are selected per :class:`~repro.mpc.cluster.Cluster`, normally via
``DMPCConfig(backend="reference" | "fast")`` so algorithm code never needs
to know which backend it runs on.  The contract every backend must honour:
**identical decisions** — ``used_words`` / ``free_words`` reads, message
delivery order and round counts must be bit-for-bit equal to the reference
backend, because algorithms branch on them.  What a backend may trade away
is eagerness (when sizes are computed) and metrics detail (what the ledger
keeps), never the observable simulation.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.exceptions import MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc.metrics import RoundRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.config import DMPCConfig
    from repro.mpc.cluster import Cluster
    from repro.mpc.machine import Machine
    from repro.mpc.program import SuperstepProgram

__all__ = [
    "MachineStorage",
    "Transport",
    "ExecutionSession",
    "ExecutionBackend",
    "BACKENDS",
    "register_backend",
    "resolve_backend",
    "BACKEND_ENV_VAR",
]

#: environment variable consulted when neither the cluster nor the config
#: names a backend — lets CI run the whole suite under an alternate backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class MachineStorage(abc.ABC):
    """Storage policy backing one machine's local key/value store.

    Implementations own the word-size accounting.  ``used_words`` must
    always equal ``sum(word_size(k) + word_size(v))`` over the current
    contents — backends may compute that sum lazily or from caches, but the
    value returned at any read point is part of the simulation semantics
    (allocation decisions branch on it) and must match the reference.

    :attr:`version` is a monotone mutation counter: concrete
    implementations bump it on every ``store``/``delete``/``clear``.  It is
    never part of the simulation — the resident backend uses it to know when
    a serialized store snapshot shipped to worker processes has gone stale.
    """

    __slots__ = ("machine_id", "capacity", "strict", "version")

    def __init__(self, machine_id: str, capacity: int, *, strict: bool) -> None:
        self.machine_id = machine_id
        self.capacity = capacity
        self.strict = strict
        self.version = 0

    @abc.abstractmethod
    def store(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key``; raise ``MachineMemoryExceeded`` when strict."""

    @abc.abstractmethod
    def load(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under ``key`` (or ``default``)."""

    @abc.abstractmethod
    def __contains__(self, key: Any) -> bool: ...

    @abc.abstractmethod
    def delete(self, key: Any) -> None:
        """Remove ``key`` (no-op if absent)."""

    @abc.abstractmethod
    def keys(self) -> Iterator[Any]:
        """Snapshot iterator over the stored keys."""

    @abc.abstractmethod
    def items(self) -> Iterator[tuple[Any, Any]]:
        """Snapshot iterator over the stored ``(key, value)`` pairs."""

    @property
    @abc.abstractmethod
    def used_words(self) -> int:
        """Words currently charged against the machine's memory."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Empty the store and reset the accounting."""

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class Transport(abc.ABC):
    """Mailbox fabric delivering one synchronous round for a cluster."""

    __slots__ = ("cluster",)

    #: whether every delivered round keeps its per-(sender, receiver) word
    #: breakdown (the input of the Section 8 entropy) — a constant of the
    #: concrete transport, never varied at run time
    pair_detail: bool

    #: optional ``payload -> words`` sizer :meth:`Machine.send` uses to charge
    #: messages staged through this transport.  ``None`` keeps the historical
    #: behaviour (the message sizes itself eagerly with ``word_size`` at
    #: construction).  A transport installing a sizer must charge the *exact
    #: same* number of words for every payload — message sizes are simulation
    #: semantics (the I/O cap and every Table 1 column read them), so the
    #: resident transport uses ``fast_word_size``, which is property-tested
    #: equal to ``word_size`` on every input.
    message_sizer: "Callable[[Any], int] | None" = None

    #: optional slot-routing hook (the resident backend's session installs
    #: itself here while live).  When set, some delivered messages may be
    #: held *inside* worker processes instead of driver inboxes; the router
    #: owes two guarantees that keep the routing observably invisible:
    #: ``ensure_local(machine)`` — called by :meth:`Machine.receive` /
    #: :meth:`Machine.drain` — must pull every worker-held message for that
    #: machine into its driver inbox (preserving the reference delivery
    #: order) before the read proceeds, and ``discard_pending()`` — called
    #: by :meth:`discard_undelivered` — must drop all worker-held messages.
    inbox_router: "Any | None" = None

    #: rounds a resident session deposited and no :meth:`exchange` has filed
    #: yet (the resident transport shadows this with its queue); a
    #: :meth:`broadcast` refuses to jump ahead of them
    _worker_rounds: "Any" = ()

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def note_staged(self, machine: "Machine") -> None:
        """Hook called by :meth:`Machine.send` after staging a message.

        The reference transport ignores it (it rescans every machine each
        round); faster transports use it to visit only machines that
        actually staged messages.
        """

    @abc.abstractmethod
    def exchange(self) -> "RoundRecord":
        """Deliver all staged messages as one synchronous round.

        Must validate receivers (``UnknownMachineError``), enforce the
        per-round I/O cap when ``cluster.enforce_io_cap`` is set
        (``MessageSizeExceeded``), append to the receivers' inboxes in the
        reference delivery order (senders by machine registration order,
        messages within a sender in staging order) and record the round in
        the cluster's ledger.  A refused round is all-or-nothing: when
        either error is raised every staged message is still staged, so the
        caller can correct the round and exchange again.  Concrete
        transports implement this by choosing a sender iteration and calling
        :meth:`deliver` — the one place staged messages move.
        """

    def deliver(self, senders: Iterable["Machine"]) -> "RoundRecord":
        """The round engine: validate, cap-check, condense and deliver ``senders``' outboxes.

        ``senders`` must be in machine registration order — the delivery
        order the simulation semantics fix.  One pass over the staged
        messages checks every receiver, sums the words each machine sends
        (and, under the I/O cap, receives) and accumulates the round's
        record; only when the whole round has passed — unknown receiver,
        then send cap, then receive cap — do the outboxes move into the
        inboxes, so a refused round leaves every outbox as staged and
        nothing recorded.  The five costs go to ``ledger.file_round`` in one
        call, with the pair breakdown when :attr:`pair_detail` is set (the
        per-pair map, like the per-receiver one the I/O cap reads, is only
        built by a transport that keeps it).
        """
        cluster = self.cluster
        machines = cluster.machines_by_id
        # the per-pair map exists only on a transport that keeps it, the per-receiver one under the I/O cap
        pair_words: "dict[tuple[str, str], int] | None" = {} if self.pair_detail else None
        received: "dict[str, int] | None" = {} if cluster.enforce_io_cap else None

        loads: list[tuple["Machine", int]] = []
        active: set[str] = set()
        total = 0
        count = 0
        largest = 0
        for machine in senders:
            outbox = machine.outbox
            if not outbox:
                continue
            # a staged message's sender is the machine whose outbox holds it
            sender = machine.machine_id
            sent = 0
            for msg in outbox:
                receiver = msg.receiver
                if receiver not in machines:
                    raise UnknownMachineError(
                        f"message from {msg.sender!r} addressed to unknown machine {receiver!r}"
                    )
                words = msg.words
                sent += words
                active.add(receiver)
                if words > largest:
                    largest = words
                if pair_words is not None:
                    pair = (sender, receiver)
                    pair_words[pair] = pair_words.get(pair, 0) + words
                if received is not None:
                    received[receiver] = received.get(receiver, 0) + words
            active.add(sender)
            total += sent
            count += len(outbox)
            loads.append((machine, sent))

        if received is not None:
            cap = cluster.config.machine_memory
            for machine, words in loads:
                if words > cap:
                    raise MessageSizeExceeded(machine.machine_id, "send", words, cap)
            for machine_id, words in received.items():
                if words > cap:
                    raise MessageSizeExceeded(machine_id, "receive", words, cap)

        for machine, _ in loads:
            outbox = machine.outbox
            machine.outbox = []
            for msg in outbox:
                machines[msg.receiver].inbox.append(msg)
        return cluster.ledger.file_round(None, len(active), total, count, largest, pair_words)

    def has_staged(self) -> bool:
        """Whether any machine holds a message staged since the last round (a scan of every outbox)."""
        return any(machine.outbox for machine in self.cluster.machines_by_id.values())

    def broadcast(self, tag: str, sender_id: str, receiver_ids: "Sequence[str]", words: int) -> "RoundRecord":
        """One round in which ``sender_id`` sends a ``words``-word ``tag`` message to each of ``receiver_ids``.

        The closed form of "stage one message per receiver, exchange, each
        receiver drains ``tag``": the round is filed as :meth:`deliver`
        would file it — ``len(receiver_ids)`` messages of ``words`` words,
        the receivers and the sender active (a sender among its receivers
        counts once, a duplicate receiver once), the per-pair map on a
        transport with :attr:`pair_detail` — but no message is built and no
        inbox or outbox is touched: the receivers read the packet at the
        barrier.  Refusals are :meth:`deliver`'s, raised before anything is
        filed: an unknown machine, then the I/O cap (the sender's load bounds
        every receiver's, so its send cap is the one that trips).  A
        broadcast is a round of its own: one while a message is staged or a
        deposited worker round awaits its exchange is a ``ProtocolError``.
        """
        cluster = self.cluster
        machines = cluster.machines_by_id
        if self._worker_rounds or self.has_staged():
            raise ProtocolError(f"{tag!r} broadcast while another round is staged")
        if words < 1:
            raise ValueError("a message always costs at least one word")
        if sender_id not in machines:
            raise UnknownMachineError(f"no machine named {sender_id!r}")
        receivers = set(receiver_ids)
        unknown = receivers.difference(machines)
        if unknown:
            receiver = next(r for r in receiver_ids if r in unknown)
            raise UnknownMachineError(f"message from {sender_id!r} addressed to unknown machine {receiver!r}")
        count = len(receiver_ids)
        total = words * count
        if cluster.enforce_io_cap and total > cluster.config.machine_memory:
            raise MessageSizeExceeded(sender_id, "send", total, cluster.config.machine_memory)
        pair_words: "dict[tuple[str, str], int] | None" = None
        if self.pair_detail:
            pair_words = {}
            for receiver in receiver_ids:
                pair = (sender_id, receiver)
                pair_words[pair] = pair_words.get(pair, 0) + words
        if not count:
            return cluster.ledger.file_round(None, 0, 0, 0, 0, pair_words)
        active = len(receivers) if sender_id in receivers else len(receivers) + 1
        return cluster.ledger.file_round(None, active, total, count, words, pair_words)

    def discard_undelivered(self) -> None:
        """Drop all staged (outbox) and pending (inbox) messages."""
        router = self.inbox_router
        if router is not None:
            router.discard_pending()
        for machine in self.cluster.machines():
            machine.outbox.clear()
            machine.inbox.clear()


class ExecutionSession:
    """A run-scoped execution session: the seam for resident worker state.

    Superstep-style drivers open a session around their round loop
    (:meth:`~repro.mpc.cluster.Cluster.session`) to tell the backend that
    one ``shared`` state dict will govern a whole sequence of supersteps.
    Backends that keep state *resident* in long-lived workers (the
    ``resident`` backend) use the session to ship that state once and keep
    it in sync by replaying merged deltas; every other backend returns this
    base class, whose hooks are all no-ops — so drivers wire sessions
    unconditionally and stay backend-agnostic.

    The one obligation sessions place on drivers: shared state mutated
    *outside* ``program.apply`` between supersteps (coordinator decisions,
    per-round scalars) must be reported via :meth:`touch` before the next
    superstep reads it, so resident copies are invalidated and re-shipped.
    Mutations of *machine stores* need no reporting — those are versioned
    (:attr:`MachineStorage.version`) and invalidated automatically.
    """

    #: whether this session actually keeps worker-resident state (the null
    #: session does not; backends flip this when the resident path is live).
    resident = False

    def __init__(self, cluster: "Cluster", shared: "dict[str, Any]") -> None:
        self.cluster = cluster
        self.shared = shared
        #: supersteps executed through the resident path of this session —
        #: an observability/testing aid (proves the session was exercised).
        self.rounds_run = 0

    def touch(self, *keys: str) -> None:
        """Mark shared keys as mutated out-of-band; resident copies re-ship."""

    def close(self) -> None:
        """Release any resident worker state held for this session."""

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ExecutionBackend(abc.ABC):
    """One bundled choice of storage and transport policy."""

    #: registry key and the value accepted by ``DMPCConfig.backend``
    name: str = "abstract"

    def __init__(self, config: "DMPCConfig") -> None:
        self.config = config

    @abc.abstractmethod
    def create_storage(self, machine_id: str, capacity: int, *, strict: bool) -> MachineStorage:
        """Storage for a newly registered machine."""

    @abc.abstractmethod
    def create_transport(self, cluster: "Cluster") -> Transport:
        """Transport for a newly constructed cluster."""

    def run_superstep(
        self,
        cluster: "Cluster",
        program: "SuperstepProgram",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "RoundRecord":
        """Execute one BSP superstep: per-machine code, barrier, one exchange.

        This is the execution-strategy hook behind
        :meth:`~repro.mpc.cluster.Cluster.superstep`; ``program`` is a
        declarative :class:`~repro.mpc.program.SuperstepProgram`, whose
        per-machine ``run`` may execute in the driver or in a worker
        process.

        The default strategy runs the per-machine code sequentially in the
        given (registration) order; program deltas are merged at the
        barrier (all runs, then all :meth:`SuperstepProgram.apply` calls in
        target order, then the exchange) — the same barrier every
        overriding strategy reproduces, so the delivered round is
        bit-for-bit identical everywhere.

        Program contract (what makes overriding legal): per-machine code may
        read shared driver state freely but must only change it through its
        delta; any information flowing to another machine's code must be
        sent as a message.  Code honouring this is order-independent, so
        every strategy yields the bit-for-bit identical round.
        """
        run_in_driver(program, targets, shared)
        return cluster.exchange()

    def run_superstep_block(
        self,
        cluster: "Cluster",
        programs: "list[SuperstepProgram]",
        targets: "list[Machine]",
        shared: "dict[str, Any]",
    ) -> "list[RoundRecord]":
        """Execute several consecutive supersteps with no driver work between.

        The block form of :meth:`run_superstep`, behind
        :meth:`~repro.mpc.cluster.Cluster.superstep_block`: by calling it
        the driver *promises* it has nothing to do between the rounds — no
        shared-state mutation, no inbox read, no message staging — which is
        what lets backends with long-lived workers (the ``resident``
        backend) elide the per-round driver barrier and run fusable spans
        entirely worker-side.  The default strategy simply runs the
        programs one superstep at a time, so the delivered rounds are
        bit-for-bit the same sequence under every backend.
        """
        return [self.run_superstep(cluster, program, targets, shared) for program in programs]

    def open_session(self, cluster: "Cluster", shared: "dict[str, Any]") -> ExecutionSession:
        """Open an execution session for a superstep round loop over ``shared``.

        The default is the null :class:`ExecutionSession` — sessions only
        change execution for backends that keep worker-resident state, so
        drivers open them unconditionally via
        :meth:`~repro.mpc.cluster.Cluster.session`.
        """
        return ExecutionSession(cluster, shared)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def run_in_driver(program: "SuperstepProgram", targets: "list[Machine]", shared: "dict[str, Any]") -> list:
    """Run ``program`` on every target in the driver, then apply the deltas.

    The barrier of a driver-side superstep — all runs, then all
    :meth:`SuperstepProgram.apply` calls in target order — without its
    exchange.  Returns the deltas in target order.
    """
    from repro.mpc.contract import checked_apply_view, checked_run_inputs, contract_checking_enabled
    from repro.mpc.program import LiveMachineContext

    # Shadow oracle (REPRO_CHECK_CONTRACTS=1): wrap the program's inputs
    # in recording views with worker-parity semantics, so an undeclared
    # shared read raises in-process exactly like it would against a
    # worker's shipped slice.  Off by default — the wrappers cost a
    # lookup per access on the hottest path.
    checking = contract_checking_enabled()
    deltas = []
    for machine in targets:
        inbox = machine.drain()
        ctx: "Any" = LiveMachineContext(machine)
        run_shared: "Any" = shared
        if checking:
            ctx, inbox, run_shared = checked_run_inputs(program, ctx, inbox, shared)
        deltas.append(program.run(ctx, inbox, run_shared))
    apply_shared = checked_apply_view(program, shared) if checking else shared
    for machine, delta in zip(targets, deltas):
        program.apply(apply_shared, machine.machine_id, delta)
    return deltas


#: name -> backend class registry; populated by the concrete modules.
BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Class decorator adding a backend to the :data:`BACKENDS` registry."""
    BACKENDS[cls.name] = cls
    return cls


def resolve_backend(
    spec: "str | ExecutionBackend | None",
    config: "DMPCConfig",
) -> ExecutionBackend:
    """Resolve a backend choice into a backend instance for ``config``.

    Precedence: an explicit ``spec`` (instance or registry name) wins, then
    ``config.backend``, then the ``REPRO_BACKEND`` environment variable,
    then ``"reference"``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    name = spec or getattr(config, "backend", None) or os.environ.get(BACKEND_ENV_VAR) or "reference"
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown execution backend {name!r} (known backends: {known})") from None
    return backend_cls(config)
