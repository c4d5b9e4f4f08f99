"""Runtime shadow oracle for the :class:`SuperstepProgram` contract.

This is the one checker of the declarations (``shared_reads`` /
``store_reads`` / ``shared_writes`` / ``delta_scope`` / ``reads_inbox``):
with ``REPRO_CHECK_CONTRACTS=1`` in the environment, the in-process
execution strategy (the sequential default every backend runs outside a
resident session) wraps every program invocation in recording views that

* **observe** — every shared key ``run`` reads, every store prefix it
  loads, every shared key ``apply`` touches is recorded per program class
  (:func:`observation_for`), so tests can assert that every shipped
  program's declarations equal what it touches at runtime;
* **enforce worker parity** — an undeclared ``shared[key]`` read raises
  :class:`KeyError` and an undeclared ``shared.get`` / ``ctx.load``
  returns its default, *exactly* what the same code would see in a
  ``resident`` worker holding only the declared slice.  The
  historical asymmetry ("reading an undeclared key works in-process but
  raises in a worker") disappears the moment checking is on;
* **fail loudly where a worker would silently diverge** — ``apply``
  writing an undeclared shared key, or a ``reads_inbox = False`` program
  reading its inbox, raise
  :class:`~repro.exceptions.ContractViolationError` (a worker would
  happily act on its stale copy and the backends would diverge
  bit-by-bit instead).

Checking is opt-in because the views cost a dict lookup per access on the
hottest paths; correctness does not depend on it — it is a debugging and
regression tool, wired into the test suite
(``tests/runtime/test_contract_checking.py``).
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, MutableMapping

from repro.exceptions import ContractViolationError
from repro.mpc.program import MachineContext, _key_matches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.program import SuperstepProgram

__all__ = [
    "CHECK_ENV_VAR",
    "contract_checking_enabled",
    "ContractObservation",
    "ContractCheckContext",
    "CheckedSharedView",
    "CheckedApplyView",
    "GuardedInbox",
    "observation_for",
    "observations",
    "reset_observations",
    "checked_run_inputs",
    "checked_apply_view",
]

#: environment variable that switches the shadow oracle on for the
#: in-process execution strategy.
CHECK_ENV_VAR = "REPRO_CHECK_CONTRACTS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def contract_checking_enabled() -> bool:
    """Whether ``REPRO_CHECK_CONTRACTS`` asks for contract checking."""
    return os.environ.get(CHECK_ENV_VAR, "").strip().lower() in _TRUTHY


class ContractObservation:
    """What one program class was *observed* to touch at runtime.

    Accumulated across every checked superstep of the class (all machines,
    all rounds, all clusters), so after a full algorithm run the sets are
    the runtime ground truth the program's declarations are compared
    against.  ``set.add`` is atomic under the GIL, so clusters driven from
    several threads record into the same observation without extra locking.
    """

    __slots__ = (
        "program",
        "run_shared_reads",
        "undeclared_shared_reads",
        "store_prefixes",
        "undeclared_store_prefixes",
        "apply_accesses",
        "apply_writes",
        "undeclared_apply_accesses",
    )

    def __init__(self, program: str) -> None:
        self.program = program
        #: shared keys ``run`` read (``[...]``, ``.get``, ``in``)
        self.run_shared_reads: set[Any] = set()
        #: the subset of those not covered by ``shared_reads``
        self.undeclared_shared_reads: set[Any] = set()
        #: store prefixes ``ctx.load`` resolved (``("adj", v)`` records ``"adj"``)
        self.store_prefixes: set[Any] = set()
        #: the subset of those not covered by ``store_reads``
        self.undeclared_store_prefixes: set[Any] = set()
        #: shared keys ``apply`` read or wrote
        self.apply_accesses: set[Any] = set()
        #: shared keys ``apply`` assigned directly (``shared[k] = v``)
        self.apply_writes: set[Any] = set()
        #: apply accesses outside ``shared_reads + shared_writes``
        self.undeclared_apply_accesses: set[Any] = set()

    @property
    def clean(self) -> bool:
        """No undeclared access was observed."""
        return not (
            self.undeclared_shared_reads
            or self.undeclared_store_prefixes
            or self.undeclared_apply_accesses
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContractObservation({self.program}, run_shared_reads={sorted(map(str, self.run_shared_reads))}, "
            f"store_prefixes={sorted(map(str, self.store_prefixes))}, "
            f"apply_accesses={sorted(map(str, self.apply_accesses))}, clean={self.clean})"
        )


#: program class qualname -> accumulated observation (process-wide).
_OBSERVATIONS: dict[str, ContractObservation] = {}
_OBSERVATIONS_LOCK = threading.Lock()


def observation_for(program: "SuperstepProgram | type") -> ContractObservation:
    """The accumulated observation for a program (class or instance)."""
    cls = program if isinstance(program, type) else type(program)
    name = cls.__qualname__
    obs = _OBSERVATIONS.get(name)
    if obs is None:
        with _OBSERVATIONS_LOCK:
            obs = _OBSERVATIONS.setdefault(name, ContractObservation(name))
    return obs


def observations() -> dict[str, ContractObservation]:
    """All observations recorded so far, keyed by program class qualname."""
    return dict(_OBSERVATIONS)


def reset_observations() -> None:
    """Forget everything recorded so far (test isolation)."""
    with _OBSERVATIONS_LOCK:
        _OBSERVATIONS.clear()


class CheckedSharedView(Mapping):
    """The ``shared`` mapping handed to ``run`` under contract checking.

    Worker parity on every operation: only declared keys are visible —
    ``view[k]`` on an undeclared key raises :class:`KeyError` exactly like
    a worker's shipped slice would, ``view.get(k)`` returns the default,
    ``k in view`` is false — while every access (declared or not) lands in
    the observation.
    """

    __slots__ = ("_shared", "_declared", "_observation")

    def __init__(self, shared: Mapping[str, Any], declared: frozenset, observation: ContractObservation) -> None:
        self._shared = shared
        self._declared = declared
        self._observation = observation

    def _record(self, key: Any) -> bool:
        self._observation.run_shared_reads.add(key)
        declared = key in self._declared
        if not declared:
            self._observation.undeclared_shared_reads.add(key)
        return declared

    def __getitem__(self, key: Any) -> Any:
        if not self._record(key):
            raise KeyError(
                f"{self._observation.program}.run read shared[{key!r}] but shared_reads "
                f"declares only {sorted(self._declared)!r} — a worker process would see "
                f"exactly this KeyError (declare the key, or stop reading it)"
            )
        return self._shared[key]

    def get(self, key: Any, default: Any = None) -> Any:
        if not self._record(key):
            return default
        return self._shared.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return self._record(key) and key in self._shared

    def __iter__(self) -> Iterator[Any]:
        return (key for key in self._shared if key in self._declared)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class CheckedApplyView(MutableMapping):
    """The ``shared`` mapping handed to ``apply`` under contract checking.

    ``apply`` runs driver-side against the full shared state, but the
    delta-replay contract says every key it touches must be declared in
    ``shared_reads + shared_writes`` — a resident worker replays the same
    call against a copy holding only those keys.  Undeclared reads raise
    the worker's :class:`KeyError`; undeclared *writes* — which a worker
    copy would silently absorb while the next ``run`` reads a stale value —
    raise :class:`~repro.exceptions.ContractViolationError` instead.
    """

    __slots__ = ("_shared", "_declared", "_observation")

    def __init__(
        self, shared: MutableMapping[str, Any], declared: frozenset, observation: ContractObservation
    ) -> None:
        self._shared = shared
        self._declared = declared
        self._observation = observation

    def _record(self, key: Any) -> bool:
        self._observation.apply_accesses.add(key)
        declared = key in self._declared
        if not declared:
            self._observation.undeclared_apply_accesses.add(key)
        return declared

    def __getitem__(self, key: Any) -> Any:
        if not self._record(key):
            raise KeyError(
                f"{self._observation.program}.apply read shared[{key!r}] but "
                f"shared_reads + shared_writes declare only {sorted(self._declared)!r} — "
                f"a resident worker replaying this delta would see exactly this KeyError"
            )
        return self._shared[key]

    def get(self, key: Any, default: Any = None) -> Any:
        if not self._record(key):
            return default
        return self._shared.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return self._record(key) and key in self._shared

    def __setitem__(self, key: Any, value: Any) -> None:
        self._observation.apply_writes.add(key)
        if not self._record(key):
            raise ContractViolationError(
                f"{self._observation.program}.apply wrote shared[{key!r}] outside its declared "
                f"contract {sorted(self._declared)!r} — declare the key in shared_writes so "
                f"resident sessions ship it (delta-replay contract, see repro.mpc.program)"
            )
        self._shared[key] = value

    def __delitem__(self, key: Any) -> None:
        if not self._record(key):
            raise ContractViolationError(
                f"{self._observation.program}.apply deleted shared[{key!r}] outside its "
                f"declared contract {sorted(self._declared)!r}"
            )
        del self._shared[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._shared)

    def __len__(self) -> int:
        return len(self._shared)


class ContractCheckContext(MachineContext):
    """A :class:`MachineContext` wrapper recording (and bounding) store loads.

    ``ctx.load`` of a key outside the declared ``store_reads`` prefixes
    returns the default — worker parity again: ``store_subset`` would never
    have shipped the key, so :class:`WorkerMachineContext` silently falls
    back to the default and the backends diverge.  The miss is recorded so
    the oracle can point at it.
    """

    __slots__ = ("_inner", "_prefixes", "_observation")

    def __init__(
        self,
        inner: MachineContext,
        prefixes: "tuple[str, ...] | None",
        observation: ContractObservation,
    ) -> None:
        self._inner = inner
        self._prefixes = prefixes
        self._observation = observation

    @property
    def machine_id(self) -> str:
        return self._inner.machine_id

    def load(self, key: Any, default: Any = None) -> Any:
        prefix = key[0] if isinstance(key, tuple) and key else key
        self._observation.store_prefixes.add(prefix)
        if self._prefixes is not None and not _key_matches(key, self._prefixes):
            self._observation.undeclared_store_prefixes.add(prefix)
            return default
        return self._inner.load(key, default)

    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> None:
        self._inner.send(receiver, tag, payload, words=words)

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        self._inner.send_many(tag, sends)


class GuardedInbox(list):
    """An inbox stand-in for ``reads_inbox = False`` programs.

    Resident sessions drain such inboxes driver-side and hand the worker an
    empty list; under contract checking the in-process strategy hands the
    program this guard instead, so a program that lied about
    ``reads_inbox`` fails loudly rather than silently behaving differently
    across backends.  (``bool(inbox)``/``len(inbox)`` stay honest — they
    reveal nothing a worker's empty inbox would not.)
    """

    __slots__ = ("_program",)

    def __init__(self, program: str, messages: "list[Any]") -> None:
        super().__init__(messages)
        self._program = program

    def _violate(self) -> ContractViolationError:
        return ContractViolationError(
            f"{self._program}.run iterated its inbox but declares reads_inbox = False — "
            f"a resident worker would have received an empty inbox (set reads_inbox = True, "
            f"or stop reading the inbox)"
        )

    def __iter__(self) -> Iterator[Any]:
        raise self._violate()

    def __getitem__(self, index: Any) -> Any:
        raise self._violate()


def checked_run_inputs(
    program: "SuperstepProgram",
    ctx: MachineContext,
    inbox: "list[Any]",
    shared: Mapping[str, Any],
) -> "tuple[MachineContext, list[Any], Mapping[str, Any]]":
    """Wrap one ``run`` invocation's inputs in the recording/parity views."""
    observation = observation_for(program)
    checked_ctx = ContractCheckContext(ctx, program.store_reads, observation)
    checked_shared = CheckedSharedView(shared, frozenset(program.shared_reads), observation)
    if not program.reads_inbox:
        inbox = GuardedInbox(observation.program, inbox)
    return checked_ctx, inbox, checked_shared


def checked_apply_view(
    program: "SuperstepProgram", shared: MutableMapping[str, Any]
) -> MutableMapping[str, Any]:
    """Wrap the shared state for the barrier's ``apply`` calls."""
    return CheckedApplyView(shared, frozenset(program.session_keys()), observation_for(program))
