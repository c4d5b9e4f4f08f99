"""The coordinator machine and the update-history buffer of Section 3.

The matching algorithms of Sections 3 and 4 route all updates through a
single (arbitrary but fixed) *coordinator* machine ``M_C``.  The coordinator
stores:

* the **update-history** ``H`` — the last ``O(sqrt(N))`` updates to the
  input *and* to the maintained solution, plus, for inserted edges, flags
  recording whether each endpoint's adjacency list has incorporated the
  edge yet;
* a **directory** mapping vertex-ID ranges to the statistics machine storing
  those vertices' metadata;
* the available memory of every machine (so ``toFit`` queries are local).

The coordinator is *not* a sequential simulator: it forwards the buffered
history to the machines that need it on a need-to-know basis — each gets the
suffix it has not seen, an O(k) slice off the buffer's right end — which is
what keeps the number of active machines per round constant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import ClassVar, Iterable

from repro.mpc.cluster import Cluster
from repro.mpc.machine import Machine
from repro.mpc.partition import RangePartition

__all__ = ["HistoryEntry", "UpdateHistory", "Coordinator"]


@dataclass(frozen=True)
class HistoryEntry:
    """One entry of the update-history ``H``.

    ``kind`` is one of ``"insert"``, ``"delete"`` (changes to the input) or
    ``"match"``, ``"unmatch"`` (changes to the maintained matching), or
    ``"tree-link"`` / ``"tree-cut"`` for the connectivity algorithms.
    ``applied`` records, per endpoint, whether the adjacency list stored on
    the endpoint's machine already reflects the change.
    """

    #: words per entry — constant, so ``k`` entries are sized as ``WORDS * k``
    WORDS: ClassVar[int] = 6

    seq: int
    kind: str
    u: int
    v: int
    weight: float | None = None
    applied: tuple[bool, bool] = (False, False)

    def dmpc_words(self) -> int:
        return self.WORDS


class UpdateHistory:
    """Bounded buffer of the most recent :class:`HistoryEntry` records.

    The capacity is ``O(sqrt(N))``; every machine is refreshed (brought up to
    date with the history) at least once every ``capacity`` updates by the
    round-robin maintenance of Section 3, so entries older than the buffer
    are guaranteed to have been applied everywhere and can be dropped.  The
    buffer itself only evicts; a reader that would need an evicted entry is
    the matching fabric's to refuse (:meth:`evicted_since`).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("update-history capacity must be positive")
        self.capacity = capacity
        self._entries: deque[HistoryEntry] = deque(maxlen=capacity)
        self._seq = 0

    def append(self, kind: str, u: int, v: int, weight: float | None = None) -> HistoryEntry:
        """Record a new change and return its entry."""
        self._seq += 1
        entry = HistoryEntry(seq=self._seq, kind=kind, u=u, v=v, weight=weight)
        self._entries.append(entry)  # at capacity the deque evicts its oldest
        return entry

    def entries(self) -> list[HistoryEntry]:
        """All buffered entries, oldest first."""
        return list(self._entries)

    def entries_since(self, seq: int) -> list[HistoryEntry]:
        """Entries strictly newer than sequence number ``seq``, oldest first.

        Sequence numbers are consecutive and eviction is oldest-first, so
        these are the last ``last_seq - seq`` buffered entries (all of them
        for a reader staler than the buffer), taken from the right end: O(k)
        in the size of the slice, not of the buffer.
        """
        suffix = list(islice(reversed(self._entries), max(0, self._seq - seq)))
        suffix.reverse()
        return suffix

    def evicted_since(self, seq: int) -> int:
        """How many entries newer than ``seq`` the buffer has already dropped.

        Non-zero means a reader current to ``seq`` can no longer be caught
        up: :meth:`entries_since` would hand it a suffix with a gap.
        """
        return max(0, self._seq - seq - len(self._entries))

    def entries_for_vertex(self, vertex: int) -> list[HistoryEntry]:
        """Entries touching ``vertex`` (as either endpoint)."""
        return [e for e in self._entries if e.u == vertex or e.v == vertex]

    @property
    def last_seq(self) -> int:
        return self._seq

    def __len__(self) -> int:
        return len(self._entries)

    def dmpc_words(self) -> int:
        """Charged size when the whole buffer is shipped in one message
        (:meth:`Coordinator.send_history`): a closed form of the entry
        count, identical to summing the entries."""
        return max(1, HistoryEntry.WORDS * len(self._entries))


@dataclass
class Coordinator:
    """Wrapper around the machine playing the coordinator role ``M_C``."""

    cluster: Cluster
    machine: Machine
    history: UpdateHistory
    partition: RangePartition
    machine_free_words: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def create(cluster: Cluster, partition: RangePartition, *, machine_id: str = "coordinator") -> "Coordinator":
        """Register the coordinator machine on ``cluster`` and return the wrapper."""
        machine = cluster.add_machine(machine_id, role="coordinator")
        history = UpdateHistory(capacity=max(4, cluster.config.sqrt_N))
        coordinator = Coordinator(cluster=cluster, machine=machine, history=history, partition=partition)
        machine.store("directory", partition.directory())
        return coordinator

    @property
    def machine_id(self) -> str:
        return self.machine.machine_id

    # ------------------------------------------------------------- directory
    def stats_machine_for(self, vertex: int) -> str:
        """Which statistics machine stores metadata for ``vertex`` (local lookup)."""
        return self.partition.machine_for(vertex)

    def record(self, kind: str, u: int, v: int, weight: float | None = None) -> HistoryEntry:
        """Append a change to the update-history (local to the coordinator)."""
        return self.history.append(kind, u, v, weight)

    # ---------------------------------------------------------- communication
    def send_history(self, receivers: Iterable[str], *, tag: str = "update-history") -> None:
        """Stage the buffered history towards ``receivers``.

        This is the ``O(sqrt(N))``-word message the maximal-matching
        algorithm sends to the machines holding the endpoints of an updated
        edge; the caller is responsible for calling ``cluster.exchange()``.

        Receivers are deduplicated and staged in machine registration order
        regardless of the iteration order of ``receivers`` — callers often
        pass sets, and staging order is part of the delivery order the
        backend-equivalence contract fixes, so it must not depend on
        ``PYTHONHASHSEED``.
        """
        targets = {r for r in receivers if r != self.machine_id}
        if not targets:
            return
        payload = self.history.entries()
        words = self.history.dmpc_words()
        for receiver in sorted(targets, key=lambda r: self.cluster.machine(r).index):
            self.machine.send(receiver, tag, payload, words=words)

    def note_free_words(self, machine_id: str, free_words: int) -> None:
        """Update the coordinator's record of a machine's available memory."""
        self.machine_free_words[machine_id] = free_words
