"""The fast execution backend — same semantics, far less bookkeeping.

The reference backend spends most of its wall-clock recursively sizing
Python payloads: every ``Machine.store`` sizes the *old* value (to release
its words) and the *new* value (to charge it), so rewriting an adjacency
dict costs two full traversals, and most of those sizes are never read.
The fast backend removes that waste without changing a single observable
decision:

* **memoised sizing** (:class:`CachedStorage`) — each stored object is
  sized exactly once, at its charging store, and the charge is cached:
  overwrites and deletes release the cached charge instead of re-walking
  the old payload, and re-storing the *same* object (the read-modify-write
  pattern used throughout the algorithms) skips sizing entirely — which is
  also precisely what the reference's accounting observes for that
  pattern, so ``used_words`` at any read point is identical.  Strict
  memory enforcement still happens at the exact offending store.
* **staged-sender transport** (:class:`FastTransport`) — machines register
  themselves when they stage a message, so a round visits only the actual
  senders instead of rescanning the whole (mostly idle) machine pool.
  Senders go to the shared delivery pass (:meth:`Transport.deliver`) in
  machine registration order, which reproduces the reference delivery
  order exactly; a round costs what it carries.
* **aggregate accounting** — that pass condenses each round into the
  scalar aggregates (active machines, words, message count) without the
  per-(sender, receiver) breakdown the reference retains
  (``FastTransport.pair_detail = False``), so
  :meth:`~repro.mpc.metrics.MetricsLedger.communication_entropy` refuses a
  ``fast`` ledger.

Guarantees: memory and I/O caps are still *enforced* whenever they are
explicitly enabled (``strict_memory=True`` / ``enforce_io_cap=True``) and
all word accounting is exact; only the per-pair metrics detail is dropped.
Solutions and per-update round counts are equal to the reference backend
by construction, and the cross-backend equivalence tests pin that.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator

from repro.exceptions import MachineMemoryExceeded
from repro.mpc.metrics import RoundRecord
from repro.mpc.sizing import fast_word_size
from repro.runtime.base import ExecutionBackend, MachineStorage, Transport, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.cluster import Cluster
    from repro.mpc.machine import Machine

__all__ = ["CachedStorage", "FastTransport", "FastBackend"]


#: sentinel distinguishing "key absent" from "key stores None"
_MISSING = object()


class CachedStorage(MachineStorage):
    """Memoised word-size accounting, charge-for-charge equal to the reference.

    The reference sizes the old value *and* the new value on every store.
    This storage sizes each stored object exactly once — at its charging
    store — and caches the charge, exploiting two facts about the
    reference's accounting:

    * **same-object re-store is a no-op there**: the reference re-sizes
      old and new live, but they are the same object, so the charge never
      moves.  (This is also why the reference never charges in-place
      mutation of a stored value — the ``mutate_stats`` / ``push_stats``
      read-modify-write pattern all drivers use.)  We skip the sizing
      entirely.
    * **for a different object, the charge is replaced wholesale** with
      ``word_size(key) + word_size(value)`` at store time, so releasing the
      cached charge and adding the fresh size reproduces the reference
      total.  The key's share is the same before and after, so a key is
      sized when it enters the store and not again while it stays (equal
      strings, numbers and tuples of them have equal sizes); a scalar
      value is one word without a call.

    Contract for drivers (already honoured throughout the package): a
    stored value may be mutated in place only if it is re-stored as the
    same object; replacing or deleting a key must use the copy-on-write
    pattern (mutate a copy, store the copy).  A driver that mutated a
    stored object and then overwrote the key with a *different* object
    would drift from the reference by the unsized mutation — the
    cross-backend equivalence tests compare per-machine ``used_words``
    over every algorithm to pin that this never happens.
    """

    __slots__ = ("_store", "_sizes", "_total")

    def __init__(self, machine_id: str, capacity: int, *, strict: bool) -> None:
        super().__init__(machine_id, capacity, strict=strict)
        self._store: dict[Any, Any] = {}
        #: key -> (words of the key, words of the value) as charged at its store
        self._sizes: dict[Any, tuple[int, int]] = {}
        self._total = 0

    def store(self, key: Any, value: Any) -> None:
        if self._store.get(key, _MISSING) is value:
            # Same-object re-store: accounting is untouched, but the stored
            # value may have been mutated in place (the sanctioned
            # read-modify-write pattern), so shipped snapshots still stale.
            self.version += 1
            return
        kind = type(value)
        if kind is int or kind is float or kind is bool or value is None:
            value_words = 1
        else:
            value_words = fast_word_size(value)
        charge = self._sizes.get(key)
        if charge is None:
            key_words = fast_word_size(key)
            old_words = 0
        else:
            key_words = charge[0]
            old_words = key_words + charge[1]
        projected = self._total - old_words + key_words + value_words
        if self.strict and projected > self.capacity:
            raise MachineMemoryExceeded(
                self.machine_id, self._total - old_words, self.capacity, key_words + value_words
            )
        self._store[key] = value
        self._sizes[key] = (key_words, value_words)
        self._total = projected
        self.version += 1

    def load(self, key: Any, default: Any = None) -> Any:
        return self._store.get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self._store

    def delete(self, key: Any) -> None:
        if key in self._store:
            del self._store[key]
            key_words, value_words = self._sizes.pop(key)
            self._total -= key_words + value_words
            self.version += 1

    def keys(self) -> Iterator[Any]:
        return iter(list(self._store.keys()))

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(list(self._store.items()))

    @property
    def used_words(self) -> int:
        return self._total

    def clear(self) -> None:
        self._store.clear()
        self._sizes.clear()
        self._total = 0
        self.version += 1

    def __len__(self) -> int:
        return len(self._store)


#: sort key restoring machine registration order — the reference delivery order
by_registration = attrgetter("index")


class FastTransport(Transport):
    """Visit only the machines that staged messages this round.

    :meth:`Machine.send` notifies the transport when a sender's outbox
    gets its first message, so the exchange hands :meth:`Transport.deliver`
    the staged senders (sorted by registration index — the reference
    delivery order — when there are several) instead of the whole machine
    pool.  It has no delivery loop of its own, and keeps no per-pair detail.
    """

    __slots__ = ("_staged", "note_staged")

    pair_detail = False

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__(cluster)
        self._staged: set["Machine"] = set()
        #: the staging hook is the set's own ``add``: noting a sender runs no Python frame
        self.note_staged = self._staged.add

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle keep a bound builtin as it is, still adding to the original's set:
        # a deep-copied cluster's sends would be delivered by the original's next exchange
        for name, value in state[1].items():
            setattr(self, name, value)
        self.note_staged = self._staged.add

    def has_staged(self) -> bool:
        """Whether any machine staged a driver-side message since the last round."""
        return bool(self._staged)

    def exchange(self) -> RoundRecord:
        staged = self._staged
        # one sender (the light rounds of the matching protocol) needs no ordering
        record = self.deliver(staged if len(staged) < 2 else sorted(staged, key=by_registration))
        staged.clear()
        return record

    def discard_undelivered(self) -> None:
        super().discard_undelivered()
        self._staged.clear()


@register_backend
class FastBackend(ExecutionBackend):
    """Cached sizing + staged-sender transport + aggregate accounting."""

    name = "fast"

    def create_storage(self, machine_id: str, capacity: int, *, strict: bool) -> CachedStorage:
        return CachedStorage(machine_id, capacity, strict=strict)

    def create_transport(self, cluster: "Cluster") -> FastTransport:
        return FastTransport(cluster)
