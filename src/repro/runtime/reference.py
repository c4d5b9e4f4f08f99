"""The reference execution backend — the strict, fully-eager strategy.

This backend preserves the simulator's historical behaviour bit for bit:

* every ``store`` recursively sizes both the old and the new value with
  :func:`repro.mpc.sizing.word_size` and enforces the machine memory cap
  eagerly (when ``strict``), so a violation is raised at the exact store
  that causes it;
* every round rescans all registered machines for staged outboxes and
  enforces the per-round send/receive I/O cap per machine;
* every delivered round keeps the full per-(sender, receiver)
  communication breakdown that the Section 8 entropy metric consumes
  (``ReferenceTransport.pair_detail = True``).

It is the correctness baseline the cross-backend equivalence tests compare
against, and the right choice whenever the model-limit experiments (E8) or
exact communication-entropy measurements are being run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.exceptions import MachineMemoryExceeded
from repro.mpc.metrics import RoundRecord
from repro.mpc.sizing import word_size
from repro.runtime.base import ExecutionBackend, MachineStorage, Transport, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.cluster import Cluster

__all__ = ["ReferenceStorage", "ReferenceTransport", "ReferenceBackend"]


class ReferenceStorage(MachineStorage):
    """Eager word-size accounting: every store re-sizes old and new value."""

    __slots__ = ("_store", "_stored_words")

    def __init__(self, machine_id: str, capacity: int, *, strict: bool) -> None:
        super().__init__(machine_id, capacity, strict=strict)
        self._store: dict[Any, Any] = {}
        self._stored_words = 0

    def store(self, key: Any, value: Any) -> None:
        new_words = word_size(key) + word_size(value)
        old_words = 0
        if key in self._store:
            old_words = word_size(key) + word_size(self._store[key])
        projected = self._stored_words - old_words + new_words
        if self.strict and projected > self.capacity:
            raise MachineMemoryExceeded(
                self.machine_id, self._stored_words - old_words, self.capacity, new_words
            )
        self._store[key] = value
        self._stored_words = projected
        self.version += 1

    def load(self, key: Any, default: Any = None) -> Any:
        return self._store.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self._store

    def delete(self, key: Any) -> None:
        if key in self._store:
            self._stored_words -= word_size(key) + word_size(self._store[key])
            del self._store[key]
            self.version += 1

    def keys(self) -> Iterator[Any]:
        return iter(list(self._store.keys()))

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(list(self._store.items()))

    @property
    def used_words(self) -> int:
        return self._stored_words

    def clear(self) -> None:
        self._store.clear()
        self._stored_words = 0
        self.version += 1

    def __len__(self) -> int:
        return len(self._store)


class ReferenceTransport(Transport):
    """Rescan every registered machine each round, in registration order."""

    __slots__ = ()

    pair_detail = True

    def exchange(self) -> RoundRecord:
        return self.deliver(self.cluster.machines_by_id.values())


@register_backend
class ReferenceBackend(ExecutionBackend):
    """Strict behaviour, all caps enforced, full per-pair metrics retained."""

    name = "reference"

    def create_storage(self, machine_id: str, capacity: int, *, strict: bool) -> ReferenceStorage:
        return ReferenceStorage(machine_id, capacity, strict=strict)

    def create_transport(self, cluster: "Cluster") -> ReferenceTransport:
        return ReferenceTransport(cluster)
