"""Exception hierarchy for the DMPC simulator and algorithms.

All library-raised errors derive from :class:`DMPCError` so that callers can
catch simulator-level failures with a single ``except`` clause while still
being able to distinguish capacity violations (which indicate an algorithm
exceeded the resources allowed by the model) from protocol/programming
errors.
"""

from __future__ import annotations


class DMPCError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class MachineMemoryExceeded(DMPCError):
    """A machine attempted to store more than its memory capacity ``S``.

    In the DMPC model each machine may hold at most ``S = O(sqrt(N))`` words.
    The simulator enforces this bound on every store; algorithms that trip it
    are violating the model, which is precisely the kind of bug this
    exception is meant to surface in tests.
    """

    def __init__(self, machine_id: str, used: int, capacity: int, requested: int) -> None:
        self.machine_id = machine_id
        self.used = used
        self.capacity = capacity
        self.requested = requested
        super().__init__(
            f"machine {machine_id!r} would use {used + requested} words "
            f"but its capacity is {capacity} words"
        )


class MessageSizeExceeded(DMPCError):
    """A machine attempted to send or receive more than ``S`` words in a round."""

    def __init__(self, machine_id: str, direction: str, words: int, capacity: int) -> None:
        self.machine_id = machine_id
        self.direction = direction
        self.words = words
        self.capacity = capacity
        super().__init__(
            f"machine {machine_id!r} would {direction} {words} words in one round "
            f"but the per-round I/O cap is {capacity} words"
        )


class UnknownMachineError(DMPCError):
    """A message was addressed to a machine that does not exist in the cluster."""


class ProtocolError(DMPCError):
    """An algorithm used the simulator API incorrectly.

    Examples: delivering a round while a previous round is still being
    composed, registering two coordinators, or beginning an update while
    another update is open in the metrics ledger.
    """


class ContractViolationError(DMPCError):
    """A :class:`~repro.mpc.program.SuperstepProgram` broke its declared contract.

    Raised only under contract checking (``REPRO_CHECK_CONTRACTS=1``, see
    :mod:`repro.mpc.contract`): the in-process execution strategy then
    wraps the program's inputs in recording views that fail loudly where a
    worker process would silently diverge — an ``apply`` writing a shared
    key outside ``shared_reads + shared_writes``, or a ``run`` reading the
    inbox it declared ``reads_inbox = False`` for.  (Undeclared ``shared``
    *reads* raise a plain :class:`KeyError` instead, exactly as they would
    against a worker's shipped slice.)
    """


class InvariantViolation(DMPCError):
    """A maintained solution invariant was found to be violated.

    The dynamic algorithms optionally self-check their invariants (e.g.
    Invariant 3.1: *no heavy vertex is unmatched*) after every update when
    constructed with ``check_invariants=True``; violations raise this error
    so property-based tests fail loudly instead of silently producing a
    wrong matching/forest.
    """
