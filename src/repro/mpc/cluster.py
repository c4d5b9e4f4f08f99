"""The simulated DMPC cluster: machines + synchronous rounds + accounting."""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.config import DMPCConfig
from repro.exceptions import ProtocolError, UnknownMachineError
from repro.mpc.machine import Machine
from repro.mpc.metrics import MetricsLedger, RoundRecord
from repro.mpc.program import SuperstepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import ExecutionBackend, ExecutionSession

__all__ = ["Cluster"]


class Cluster:
    """A collection of memory-bounded machines advancing in synchronous rounds.

    Two programming styles are supported and may be mixed freely:

    * **driver style** — the algorithm driver stages messages on machines
      with :meth:`Machine.send` and calls :meth:`exchange` to run one
      synchronous round;
    * **superstep style** — the driver calls :meth:`superstep` with a
      declarative :class:`~repro.mpc.program.SuperstepProgram` which reads
      the inbox, stages outgoing messages and returns shared-state deltas;
      the cluster merges the deltas at the barrier and delivers the staged
      messages as one round.

    Every delivered round is recorded in the :class:`MetricsLedger`.  The
    per-round I/O cap of the model (each machine sends and receives at most
    ``S`` words per round) is enforced when ``enforce_io_cap`` is true.

    *How* rounds are executed — storage sizing, mailbox collection, metrics
    retention — is delegated to an :class:`~repro.runtime.base.ExecutionBackend`
    (see :mod:`repro.runtime`).  The backend is resolved from the ``backend``
    argument, else ``config.backend``, else the ``REPRO_BACKEND`` environment
    variable, defaulting to the strict reference backend.  All backends
    produce identical simulations (solutions, round counts, word accounting);
    they differ in wall-clock cost and retained metrics detail.
    """

    def __init__(
        self,
        config: DMPCConfig,
        *,
        enforce_io_cap: bool = False,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        from repro.runtime import resolve_backend

        self.config = config
        self.enforce_io_cap = enforce_io_cap
        self.backend = resolve_backend(backend, config)
        self.ledger = MetricsLedger()
        #: the registered machines keyed by id (registration order preserved).
        #: Transports iterate it directly, once per round; treat it as
        #: read-only — register machines through :meth:`add_machine`.
        self.machines_by_id: dict[str, Machine] = {}
        self._transport = self.backend.create_transport(self)
        #: the execution session an active :meth:`session` scope opened;
        #: resident backends route supersteps through it.
        self._active_session: "ExecutionSession | None" = None

    # --------------------------------------------------------------- machines
    def add_machine(self, machine_id: str, *, role: str = "worker", capacity: int | None = None) -> Machine:
        """Create and register a machine.  Capacity defaults to ``S`` from config."""
        if machine_id in self.machines_by_id:
            raise ProtocolError(f"machine {machine_id!r} already exists")
        capacity = capacity if capacity is not None else self.config.machine_memory
        strict = self.config.strict_memory
        machine = Machine(
            machine_id,
            capacity,
            strict=strict,
            role=role,
            storage=self.backend.create_storage(machine_id, capacity, strict=strict),
            index=len(self.machines_by_id),
        )
        machine.transport = self._transport
        self.machines_by_id[machine_id] = machine
        return machine

    def add_machines(self, prefix: str, count: int, *, role: str = "worker") -> list[Machine]:
        """Create ``count`` machines named ``{prefix}{i}`` and return them."""
        return [self.add_machine(f"{prefix}{i}", role=role) for i in range(count)]

    def machine(self, machine_id: str) -> Machine:
        """Return the machine with the given id."""
        try:
            return self.machines_by_id[machine_id]
        except KeyError:
            raise UnknownMachineError(f"no machine named {machine_id!r}") from None

    def machines(self, role: str | None = None) -> list[Machine]:
        """All machines, optionally filtered by role."""
        if role is None:
            return list(self.machines_by_id.values())
        return [m for m in self.machines_by_id.values() if m.role == role]

    def machine_ids(self, role: str | None = None) -> list[str]:
        return [m.machine_id for m in self.machines(role)]

    def __contains__(self, machine_id: str) -> bool:
        return machine_id in self.machines_by_id

    def __len__(self) -> int:
        return len(self.machines_by_id)

    @property
    def total_stored_words(self) -> int:
        """Sum of local-store sizes over all machines (the ``O(N)`` total memory)."""
        return sum(m.used_words for m in self.machines_by_id.values())

    # ----------------------------------------------------------------- rounds
    def exchange(self) -> RoundRecord:
        """Deliver all staged messages as one synchronous round.

        Raises :class:`MessageSizeExceeded` if any machine would send or
        receive more than ``S`` words in this round (when enforcement is on)
        and :class:`UnknownMachineError` for misaddressed messages.  The
        collection/delivery mechanics live in the backend's
        :class:`~repro.runtime.base.Transport`.
        """
        return self._transport.exchange()

    def broadcast(self, tag: str, sender_id: str, receiver_ids: "Sequence[str]", words: int) -> RoundRecord:
        """One round in which ``sender_id`` sends ``words`` words under ``tag`` to each of ``receiver_ids``.

        Files the row that staging one message per receiver, exchanging and
        draining would file (same checks, same costs, the per-pair map on
        ``reference``) without building a message: the receivers read the
        packet at the barrier, so no mailbox changes.  Nothing may be staged
        when it is called.  See :meth:`~repro.runtime.base.Transport.broadcast`.
        """
        return self._transport.broadcast(tag, sender_id, receiver_ids, words)

    def superstep(
        self,
        program: "SuperstepProgram",
        *,
        machines: Iterable[str] | None = None,
        shared: dict | None = None,
    ) -> RoundRecord:
        """Run one superstep of ``program`` on each (selected) machine.

        ``program`` is a declarative, picklable
        :class:`~repro.mpc.program.SuperstepProgram`: its ``run`` receives a
        restricted machine view, the machine's *fully drained* inbox (all
        tags) and the read-only ``shared`` driver state, and returns a delta
        that is merged back (``program.apply``) at the round barrier.  This
        is the BSP-style entry point used by the static MPC algorithms,
        where every machine executes the same local code each round.
        Anything else raises :class:`TypeError`.

        *How* the per-machine code executes is an execution-backend strategy
        (:meth:`~repro.runtime.base.ExecutionBackend.run_superstep`):
        sequentially in registration order by default, or inside the
        ``resident`` backend's worker processes during a :meth:`session`.
        Programs must therefore be order-independent — change shared state
        only through their deltas; move everything else through messages.
        """
        _check_program(program)
        targets = self.machines() if machines is None else [self.machine(mid) for mid in machines]
        return self.backend.run_superstep(self, program, targets, shared if shared is not None else {})

    def superstep_block(
        self,
        programs: "Iterable[SuperstepProgram]",
        *,
        machines: Iterable[str] | None = None,
        shared: dict | None = None,
    ) -> list[RoundRecord]:
        """Run several consecutive supersteps with no driver work between them.

        Semantically identical to calling :meth:`superstep` once per
        program — same targets, same shared state, same barrier per round,
        one :class:`RoundRecord` each — but the call itself is a promise
        that the driver does nothing between the rounds.  Backends with
        long-lived workers use that promise to *fuse* worker-drivable
        spans (see :func:`repro.mpc.program.fusable_interior`) into a
        single worker-driven block, eliding the per-round driver round
        trip; every other backend just loops.  Returns the per-round
        records in execution order.
        """
        programs = list(programs)
        for program in programs:
            _check_program(program)
        targets = self.machines() if machines is None else [self.machine(mid) for mid in machines]
        return self.backend.run_superstep_block(self, programs, targets, shared if shared is not None else {})

    def discard_undelivered(self) -> None:
        """Drop any staged (outbox) and pending (inbox) messages on all machines."""
        self._transport.discard_undelivered()

    # --------------------------------------------------------------- sessions
    @contextmanager
    def session(self, shared: dict) -> "Iterator[ExecutionSession]":
        """Scope a superstep round loop governed by one ``shared`` state dict.

        Backends that keep worker-resident state (the ``resident`` backend)
        ship the shared slice and machine stores once per session and keep
        them in sync from the merged program deltas; every other backend
        yields a no-op session, so drivers wire this unconditionally::

            with cluster.session(state) as sess:
                while not done:
                    cluster.superstep(program, machines=ids, shared=state)
                    ...
                    sess.touch("matched")   # out-of-band driver mutation

        Supersteps inside the scope must pass this same ``shared`` dict;
        shared keys the driver mutates outside ``program.apply`` must be
        reported with :meth:`~repro.runtime.base.ExecutionSession.touch`
        (the delta-replay contract in :mod:`repro.mpc.program`).  Sessions
        do not nest.
        """
        if self._active_session is not None:
            raise ProtocolError("cluster already has an active execution session")
        session = self.backend.open_session(self, shared)
        self._active_session = session
        try:
            yield session
        finally:
            self._active_session = None
            session.close()

    # ---------------------------------------------------------------- updates
    def update(self, label: str) -> "_UpdateScope":
        """Context manager scoping the rounds of one update in the ledger."""
        return _UpdateScope(self.ledger, label)

    @contextmanager
    def batch(self) -> Iterator[int]:
        """Context manager scoping a batch of updates in the ledger.

        Updates opened inside the scope are tagged with the batch id, so
        :meth:`MetricsLedger.batch_summary` can report the amortised
        per-batch costs next to the per-update ones.
        """
        batch_id = self.ledger.begin_batch()
        try:
            yield batch_id
        finally:
            self.ledger.end_batch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(machines={len(self.machines_by_id)}, S={self.config.machine_memory}, "
            f"backend={self.backend.name!r})"
        )


class _UpdateScope:
    """What :meth:`Cluster.update` returns: the ledger's update open for the ``with`` body
    (a plain class, not a generator: every update of every algorithm enters one)."""

    __slots__ = ("ledger", "label")

    def __init__(self, ledger: MetricsLedger, label: str) -> None:
        self.ledger = ledger
        self.label = label

    def __enter__(self) -> None:
        self.ledger.begin_update(self.label)

    def __exit__(self, *exc_info: object) -> None:
        self.ledger.end_update()


def _check_program(program: object) -> None:
    """Refuse anything but a :class:`~repro.mpc.program.SuperstepProgram` (closures included)."""
    if not isinstance(program, SuperstepProgram):
        raise TypeError(
            f"a superstep runs a SuperstepProgram, not {type(program).__name__}; "
            "write the per-machine code as a module-level SuperstepProgram subclass"
        )
