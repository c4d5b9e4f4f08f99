"""The simulated DMPC cluster: machines + synchronous rounds + accounting."""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.config import DMPCConfig
from repro.exceptions import ProtocolError, UnknownMachineError
from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.metrics import MetricsLedger, RoundRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.program import SuperstepProgram
    from repro.runtime.base import ExecutionBackend, ExecutionSession
    from repro.runtime.sharding import ShardPlan

__all__ = ["Cluster"]


class Cluster:
    """A collection of memory-bounded machines advancing in synchronous rounds.

    Two programming styles are supported and may be mixed freely:

    * **driver style** — the algorithm driver stages messages on machines
      with :meth:`Machine.send` and calls :meth:`exchange` to run one
      synchronous round;
    * **superstep style** — the driver calls :meth:`superstep` with a
      declarative :class:`~repro.mpc.program.SuperstepProgram` (or a legacy
      per-machine closure) which reads the inbox, stages outgoing messages
      and returns shared-state deltas; the cluster merges the deltas at the
      barrier and delivers the staged messages as one round.

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
        ledger: MetricsLedger | None = None,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        from repro.runtime import resolve_backend

        self.config = config
        self.enforce_io_cap = enforce_io_cap
        self.backend = resolve_backend(backend, config)
        self.ledger = ledger if ledger is not None else MetricsLedger()
        # Adopt (never clobber) the backend's accounting policy: a ledger
        # shared across clusters keeps its first policy, and conflicting
        # policies raise instead of silently mixing record schemes.
        self.ledger.install_round_record_factory(
            self.backend.round_record_factory(), policy=self.backend.accounting_policy_name
        )
        #: the registered machines keyed by id (registration order preserved).
        #: Transports iterate it directly, once per round; treat it as
        #: read-only — register machines through :meth:`add_machine`.
        self.machines_by_id: dict[str, Machine] = {}
        self._transport = self.backend.create_transport(self)
        #: the execution session an active :meth:`session` scope opened;
        #: resident backends route supersteps through it.
        self._active_session: "ExecutionSession | None" = None
        #: rounds delivered so far, and every how many of them the autotuner
        #: re-plans (``0``: never; the config is frozen, so it is read once).
        self._rounds_delivered = 0
        self._replan_every = getattr(config, "replan_every", None) or 0
        #: plans adopted by :meth:`replan`, in order, with the round index
        #: each one took effect at — the autotuning loop's audit trail.
        self.replan_history: list[dict] = []

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
        record = self._transport.exchange()
        self._rounds_delivered += 1
        every = self._replan_every
        if every and self._rounds_delivered % every == 0:
            session = self._active_session
            if session is not None and session.in_fused_block:
                # Mid fused block the workers are looping on the old
                # locality — the tick is deferred to the block boundary.
                session.pending_autotune = True
            else:
                self.autotune_replan()
        return record

    def superstep(
        self,
        program: "SuperstepProgram | Callable[[Machine, list[Message]], None]",
        *,
        machines: Iterable[str] | None = None,
        shared: dict | None = None,
    ) -> RoundRecord:
        """Run one superstep of ``program`` on each (selected) machine.

        ``program`` is normally a declarative, picklable
        :class:`~repro.mpc.program.SuperstepProgram`: its ``run`` receives a
        restricted machine view, the machine's *fully drained* inbox (all
        tags) and the read-only ``shared`` driver state, and returns a delta
        that is merged back (``program.apply``) at the round barrier.  This
        is the BSP-style entry point used by the static MPC algorithms,
        where every machine executes the same local code each round.

        The legacy ad-hoc form — a closure ``handler(machine, inbox) ->
        None`` mutating driver state in place — is still accepted, but such
        closures cannot cross a process boundary, so only in-process
        execution strategies apply to them.

        *How* the per-machine code executes is an execution-backend strategy
        (:meth:`~repro.runtime.base.ExecutionBackend.run_superstep`):
        sequentially in registration order by default, fanned across a
        thread pool by the ``parallel`` backend, or serialized to a process
        pool by the ``process`` backend.  Programs and handlers must
        therefore be order-independent — mutate only state owned by the
        machine they run on; move everything else through messages.
        """
        targets = self.machines() if machines is None else [self.machine(mid) for mid in machines]
        return self.backend.run_superstep(self, program, targets, shared if shared is not None else {})

    def superstep_block(
        self,
        programs: "Iterable[SuperstepProgram | Callable[[Machine, list[Message]], None]]",
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
        targets = self.machines() if machines is None else [self.machine(mid) for mid in machines]
        return self.backend.run_superstep_block(
            self, list(programs), targets, shared if shared is not None else {}
        )

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

    # ------------------------------------------------------------- re-planning
    def replan(self, plan: "ShardPlan") -> bool:
        """Adopt ``plan`` as the live shard plan; return whether it applied.

        Only meaningful behind the merge barrier (no staged messages — the
        transport enforces this) and only for sharded-family backends;
        other backends return ``False`` and change nothing.  Resident
        sessions migrate their worker-held shard state to match.  Applied
        plans are recorded in :attr:`replan_history` so autotuning
        decisions stay inspectable.
        """
        applied = self.backend.replan(self, plan)
        if applied:
            self.replan_history.append(
                {
                    "round": self._rounds_delivered,
                    "shard_count": plan.shard_count,
                    "strategy": plan.strategy,
                    "pinned": dict(plan.assignment) if plan.assignment else {},
                }
            )
        return applied

    def autotune_replan(self) -> "ShardPlan | None":
        """One turn of the closed autotuning loop: load → rebalance → replan.

        Reads the sharded transport's per-machine word loads, asks the
        current plan for a greedy-LPT rebalance proposal and adopts it.
        Returns the adopted plan, or ``None`` when the backend has no plan
        or no load diagnostic (non-sharded backends).  Driven automatically
        every ``config.replan_every`` delivered rounds.
        """
        machine_load = getattr(self._transport, "machine_load", None)
        plan = getattr(self.backend, "plan", None)
        if machine_load is None or plan is None:
            return None
        loads = machine_load()
        if not loads:
            return None
        proposal = plan.rebalance(loads)
        if (
            proposal.shard_count == plan.shard_count
            and proposal.strategy == plan.strategy
            and (proposal.assignment or {}) == (plan.assignment or {})
        ):
            # Stable loads propose the plan already live: adopting it would
            # only churn caches, reset diagnostics and bloat the history.
            return None
        return proposal if self.replan(proposal) else None

    # ---------------------------------------------------------------- updates
    @contextmanager
    def update(self, label: str) -> Iterator[None]:
        """Context manager scoping the rounds of one update in the ledger."""
        self.ledger.begin_update(label)
        try:
            yield
        finally:
            self.ledger.end_update()

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
