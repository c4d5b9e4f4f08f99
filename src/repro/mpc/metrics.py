"""Per-round and per-update cost accounting.

The DMPC model judges a dynamic algorithm by three quantities per update
(Section 2):

1. the number of synchronous **rounds**,
2. the number of **active machines** per round (machines sending or
   receiving at least one message), and
3. the **total communication** per round (sum of message sizes in words).

:class:`MetricsLedger` records these for every round of every update, plus
the Section 8 *entropy* of the communication distribution across machine
pairs.  Summaries aggregate over updates so benchmarks can report the
worst-case and mean behaviour that Table 1 bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import mean
from typing import Iterable

from repro.exceptions import ProtocolError
from repro.mpc.message import Message

__all__ = ["RoundRecord", "UpdateRecord", "UpdateSummary", "MetricsLedger"]


class RoundRecord:
    """Costs of a single synchronous round.

    A plain ``__slots__`` value class like :class:`~repro.mpc.message.Message`
    (a stream retains one per round).  Equality and hash cover the five
    scalar costs; ``pair_words`` — the per-(sender, receiver) breakdown, empty
    where the accounting policy kept none — is detail, not identity.  Treat
    instances as immutable.
    """

    __slots__ = ("round_index", "active_machines", "total_words", "message_count", "max_message_words", "pair_words")

    def __init__(
        self,
        round_index: int,
        active_machines: int,
        total_words: int,
        message_count: int,
        max_message_words: int,
        pair_words: "dict[tuple[str, str], int] | None" = None,
    ) -> None:
        self.round_index = round_index
        self.active_machines = active_machines
        self.total_words = total_words
        self.message_count = message_count
        self.max_message_words = max_message_words
        self.pair_words = {} if pair_words is None else pair_words

    @staticmethod
    def from_messages(round_index: int, messages: Iterable[Message], *, pair_detail: bool = True) -> "RoundRecord":
        """Build a record from the messages delivered in one round."""
        active: set[str] = set()
        total = 0
        count = 0
        largest = 0
        pair_words: dict[tuple[str, str], int] = {}
        for msg in messages:
            active.add(msg.sender)
            active.add(msg.receiver)
            total += msg.words
            count += 1
            largest = max(largest, msg.words)
            if pair_detail:
                key = (msg.sender, msg.receiver)
                pair_words[key] = pair_words.get(key, 0) + msg.words
        return RoundRecord(round_index, len(active), total, count, largest, pair_words)

    def _costs(self) -> tuple[int, int, int, int, int]:
        return (self.round_index, self.active_machines, self.total_words, self.message_count, self.max_message_words)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._costs() == other._costs()

    def __hash__(self) -> int:
        return hash(self._costs())

    def __repr__(self) -> str:
        return "RoundRecord(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class UpdateRecord:
    """All rounds executed on behalf of one update (or one labelled phase).

    ``batch_id`` tags records that were produced inside a
    :meth:`MetricsLedger.begin_batch` / :meth:`MetricsLedger.end_batch`
    scope; records of the same batch are aggregated into one pseudo-update
    by :meth:`MetricsLedger.batch_summary`.  Mutable (rounds are appended as
    they happen), so compared by value and not hashable.
    """

    __slots__ = ("label", "rounds", "batch_id")

    def __init__(self, label: str, rounds: "list[RoundRecord] | None" = None, batch_id: int | None = None) -> None:
        self.label = label
        self.rounds: list[RoundRecord] = [] if rounds is None else rounds
        self.batch_id = batch_id

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.rounds, self.batch_id) == (other.label, other.rounds, other.batch_id)

    def __repr__(self) -> str:
        return f"UpdateRecord(label={self.label!r}, rounds={self.rounds!r}, batch_id={self.batch_id!r})"

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_words(self) -> int:
        return sum(r.total_words for r in self.rounds)

    @property
    def max_words_per_round(self) -> int:
        return max((r.total_words for r in self.rounds), default=0)

    @property
    def max_active_machines(self) -> int:
        return max((r.active_machines for r in self.rounds), default=0)

    @property
    def mean_active_machines(self) -> float:
        if not self.rounds:
            return 0.0
        return mean(r.active_machines for r in self.rounds)

    def pair_words(self) -> dict[tuple[str, str], int]:
        """Aggregate per-(sender, receiver) communication over the update."""
        totals: dict[tuple[str, str], int] = {}
        for record in self.rounds:
            for pair, words in record.pair_words.items():
                totals[pair] = totals.get(pair, 0) + words
        return totals


@dataclass(frozen=True)
class UpdateSummary:
    """Aggregate of many updates — the quantities Table 1 bounds."""

    num_updates: int
    max_rounds: int
    mean_rounds: float
    max_active_machines: int
    mean_active_machines: float
    max_words_per_round: int
    mean_words_per_round: float
    total_words: int

    def as_dict(self) -> dict[str, float]:
        return {
            "num_updates": self.num_updates,
            "max_rounds": self.max_rounds,
            "mean_rounds": self.mean_rounds,
            "max_active_machines": self.max_active_machines,
            "mean_active_machines": self.mean_active_machines,
            "max_words_per_round": self.max_words_per_round,
            "mean_words_per_round": self.mean_words_per_round,
            "total_words": self.total_words,
        }


class MetricsLedger:
    """Collects :class:`RoundRecord` objects grouped into labelled updates.

    How a delivered round is condensed into a :class:`RoundRecord` is an
    execution-backend accounting policy; all it decides is which rounds keep
    their per-(sender, receiver) breakdown.  A transport condenses the round
    while delivering it and files the record with :meth:`append_round`.
    :attr:`round_record_factory` is the ``(round_index, messages) ->
    RoundRecord`` form of that policy (stock: :meth:`RoundRecord.from_messages`,
    full breakdown; clusters install their backend's at construction) for
    :meth:`record_round` — rounds recorded from a message list, which
    includes every round of a ledger whose factory was assigned by hand.
    """

    def __init__(self, *, round_record_factory=None) -> None:
        self._updates: list[UpdateRecord] = []
        self._current: UpdateRecord | None = None
        #: index the next recorded round will carry — ``rounds so far + 1``,
        #: global across updates and :meth:`reset`; advanced only by
        #: :meth:`record_round` / :meth:`append_round`.  Whoever condenses a
        #: round itself reads it up front (to decide metrics sampling), once
        #: per round: hence a plain attribute.
        self.next_round_index = 1
        self._batch_counter = 0
        self._current_batch: int | None = None
        self._factory = round_record_factory if round_record_factory is not None else RoundRecord.from_messages
        #: name of the backend accounting policy installed via
        #: :meth:`install_round_record_factory` (``None`` until a cluster
        #: adopts this ledger, or forever for hand-customised factories),
        #: plus the factory object that policy installed — so a factory
        #: re-assigned by hand *after* adoption is detectable.
        self._record_policy: str | None = None
        self._policy_factory = None
        #: the accounting-policy name currently governing this ledger; read
        #: by every delivered round, written only by this class.  ``None``:
        #: no cluster adopted the ledger yet, or its factory was customised
        #: by hand (at construction or by assignment afterwards) — transports
        #: then hand :meth:`record_round` the message list instead of
        #: condensing the round themselves, so the factory is honoured.
        self.record_policy: str | None = None
        #: wire-path traffic totals, summed by slot-routing transports via
        #: :meth:`record_traffic`.  Orthogonal to the word accounting above —
        #: words measure the *model's* communication, these measure which
        #: physical path each message took (worker-local, shm ring, pipe
        #: fallback).
        self._traffic = dict.fromkeys(("local_messages", "cross_slot_messages", "shm_bytes", "pipe_fallbacks"), 0)
        #: rounds executed inside worker-driven fused blocks (the resident
        #: backend's barrier-elision path) — observability only, like the
        #: wire-path traffic above; zero under every other backend.
        self.fused_rounds = 0
        #: driver↔worker pipe round trips that executed supersteps: one per
        #: resident round *block*, however many rounds it covered (a lone
        #: superstep is a block of one).  ``fused_rounds`` over
        #: ``driver_round_trips`` is the barrier-elision win the benchmarks
        #: report.
        self.driver_round_trips = 0

    @property
    def round_record_factory(self):
        """Accounting policy :meth:`record_round` builds its record with;
        assigning any but the installed policy's own clears :attr:`record_policy`."""
        return self._factory

    @round_record_factory.setter
    def round_record_factory(self, factory) -> None:
        self._factory = factory
        self.record_policy = self._record_policy if factory is self._policy_factory else None

    def install_round_record_factory(self, factory, *, policy: str) -> None:
        """Adopt a backend accounting policy without clobbering an existing one.

        Clusters call this at construction.  On a fresh ledger (stock
        factory, no policy recorded) the factory is installed and the policy
        name remembered.  A ledger shared by several clusters keeps its
        first policy: re-installing the *same* policy is a no-op, while a
        *conflicting* policy raises :class:`ProtocolError` — two clusters
        must not silently mix accounting schemes in one record stream.  A
        factory customised by hand (passed to ``__init__``) is always left
        untouched.
        """
        if self._record_policy is not None:
            if self._record_policy != policy:
                raise ProtocolError(
                    f"ledger already records rounds under accounting policy "
                    f"{self._record_policy!r}; refusing to switch to {policy!r} — "
                    f"use separate ledgers for clusters with different backends"
                )
            return
        if self._factory is not RoundRecord.from_messages:
            # Externally customised factory: the user's choice wins.
            return
        self._record_policy = policy
        self._policy_factory = factory
        self.round_record_factory = factory

    # ----------------------------------------------------------------- update
    def begin_update(self, label: str) -> UpdateRecord:
        """Open a new labelled update; subsequent rounds are charged to it."""
        if self._current is not None:
            raise ProtocolError(
                f"begin_update({label!r}) called while update {self._current.label!r} is open"
            )
        self._current = UpdateRecord(label=label, batch_id=self._current_batch)
        return self._current

    def end_update(self) -> UpdateRecord:
        """Close the currently open update and return its record."""
        if self._current is None:
            raise ProtocolError("end_update() called with no open update")
        record, self._current = self._current, None
        self._updates.append(record)
        return record

    # ------------------------------------------------------------------ batch
    def begin_batch(self) -> int:
        """Open a batch scope: subsequent updates are tagged with its id.

        Batches group the updates of one :meth:`DynamicMPCAlgorithm.apply_batch`
        call so that per-batch costs can be reported next to per-update
        costs.  Batches cannot nest and cannot start mid-update.
        """
        if self._current_batch is not None:
            raise ProtocolError(f"begin_batch() called while batch {self._current_batch} is open")
        if self._current is not None:
            raise ProtocolError("begin_batch() called while an update is open")
        self._batch_counter += 1
        self._current_batch = self._batch_counter
        return self._current_batch

    def end_batch(self) -> int:
        """Close the currently open batch scope and return its id."""
        if self._current_batch is None:
            raise ProtocolError("end_batch() called with no open batch")
        if self._current is not None:
            raise ProtocolError("end_batch() called while an update is open")
        batch_id, self._current_batch = self._current_batch, None
        return batch_id

    @property
    def in_batch(self) -> bool:
        return self._current_batch is not None

    def batches(self, prefix: str | None = None) -> dict[int, list[UpdateRecord]]:
        """Recorded updates grouped by batch id (unbatched records excluded)."""
        groups: dict[int, list[UpdateRecord]] = {}
        for record in self._updates:
            if record.batch_id is None:
                continue
            if prefix is not None and not record.label.startswith(prefix):
                continue
            groups.setdefault(record.batch_id, []).append(record)
        return groups

    def batch_summary(self, prefix: str | None = None) -> UpdateSummary:
        """Aggregate treating each batch as a single pseudo-update.

        Updates recorded outside any batch count individually, so mixing
        ``apply`` and ``apply_batch`` on the same algorithm still yields one
        meaningful summary.
        """
        merged: list[UpdateRecord] = []
        by_batch: dict[int, UpdateRecord] = {}
        for record in self._updates:
            if prefix is not None and not record.label.startswith(prefix):
                continue
            if record.batch_id is None:
                merged.append(record)
                continue
            target = by_batch.get(record.batch_id)
            if target is None:
                target = UpdateRecord(label=f"<batch:{record.batch_id}>", batch_id=record.batch_id)
                by_batch[record.batch_id] = target
                merged.append(target)
            target.rounds.extend(record.rounds)
        return self._summarize(merged)

    def record_round(self, messages: Iterable[Message]) -> RoundRecord:
        """Record one synchronous round from its message list, condensed by
        :attr:`round_record_factory`.  Rounds outside an update are allowed
        (e.g. ad-hoc probes) but are tracked under an anonymous update."""
        record = self.round_record_factory(self.next_round_index, messages)
        self.next_round_index += 1
        return self._file_round(record)

    def append_round(self, record: RoundRecord) -> RoundRecord:
        """Record an already-condensed round built for :attr:`next_round_index`.

        The per-round entry point of every transport: the delivery pass
        iterated the messages once and built the record itself.  The record
        must continue the global round counter so that sampling policies and
        round totals stay exact.
        """
        if record.round_index != self.next_round_index:
            raise ProtocolError(
                f"append_round() expects round_index {self.next_round_index}, got {record.round_index}"
            )
        self.next_round_index += 1
        return self._file_round(record)

    def _file_round(self, record: RoundRecord) -> RoundRecord:
        current = self._current
        if current is None:
            current = UpdateRecord("<unlabelled>", batch_id=self._current_batch)
            self._updates.append(current)
        current.rounds.append(record)
        return record

    # ---------------------------------------------------------- wire traffic
    def record_traffic(
        self,
        *,
        local_messages: int = 0,
        cross_slot_messages: int = 0,
        shm_bytes: int = 0,
        pipe_fallbacks: int = 0,
    ) -> None:
        """Add the wire-path counters of the round just recorded to the totals.

        Called by slot-routing transports right after the round is filed:
        ``local_messages`` never left their worker process,
        ``cross_slot_messages`` crossed worker slots (over a shared-memory
        ring or, on overflow, the pipe), ``shm_bytes`` is the ring payload
        volume, and ``pipe_fallbacks`` counts cross-slot messages that had
        to ride the driver pipe (ring full, frame too large, or shm
        unavailable).  Rounds delivered entirely driver-side record no
        traffic at all — :meth:`traffic_totals` then reports zeros.
        """
        traffic = self._traffic
        traffic["local_messages"] += local_messages
        traffic["cross_slot_messages"] += cross_slot_messages
        traffic["shm_bytes"] += shm_bytes
        traffic["pipe_fallbacks"] += pipe_fallbacks

    def traffic_totals(self) -> dict[str, int]:
        """Wire-path counters summed over every round recorded so far."""
        return dict(self._traffic)

    def replay_update(self, label: str, rounds: Iterable[RoundRecord]) -> UpdateRecord:
        """Append an already-recorded update (label + round records) verbatim.

        This is the public API for re-aggregating recorded history into a
        scratch ledger — e.g. building a summary over a filtered subset of
        another ledger's updates — without poking the ledger's internals.
        The global round counter is untouched: the rounds being replayed
        were already counted when they originally happened.
        """
        record = self.begin_update(label)
        record.rounds.extend(rounds)
        self.end_update()
        return record

    # -------------------------------------------------------------- summaries
    @property
    def updates(self) -> list[UpdateRecord]:
        return list(self._updates)

    def updates_labelled(self, prefix: str) -> list[UpdateRecord]:
        """Return updates whose label starts with ``prefix``."""
        return [u for u in self._updates if u.label.startswith(prefix)]

    def summary(self, prefix: str | None = None) -> UpdateSummary:
        """Aggregate the recorded updates (optionally filtered by label prefix)."""
        updates = self._updates if prefix is None else self.updates_labelled(prefix)
        return self._summarize(updates)

    def total_rounds(self, prefix: str | None = None) -> int:
        """Total number of rounds across the recorded updates."""
        updates = self._updates if prefix is None else self.updates_labelled(prefix)
        return sum(u.num_rounds for u in updates)

    @staticmethod
    def _summarize(updates: list[UpdateRecord]) -> UpdateSummary:
        if not updates:
            return UpdateSummary(0, 0, 0.0, 0, 0.0, 0, 0.0, 0)
        rounds = [u.num_rounds for u in updates]
        active = [u.max_active_machines for u in updates]
        words = [u.max_words_per_round for u in updates]
        return UpdateSummary(
            num_updates=len(updates),
            max_rounds=max(rounds),
            mean_rounds=mean(rounds),
            max_active_machines=max(active),
            mean_active_machines=mean(u.mean_active_machines for u in updates),
            max_words_per_round=max(words),
            mean_words_per_round=mean(words),
            total_words=sum(u.total_words for u in updates),
        )

    def reset(self) -> None:
        """Discard all recorded updates (keeps the global round counter)."""
        if self._current is not None:
            raise ProtocolError("cannot reset the ledger while an update is open")
        if self._current_batch is not None:
            raise ProtocolError("cannot reset the ledger while a batch is open")
        self._updates.clear()
        self._traffic = dict.fromkeys(self._traffic, 0)

    # --------------------------------------------------------------- entropy
    def communication_entropy(self, prefix: str | None = None) -> float:
        """Shannon entropy (bits) of the communication distribution (Section 8).

        The paper proposes measuring how evenly communication is spread over
        machine pairs: coordinator-centric algorithms concentrate traffic on
        a few pairs and therefore have low entropy, while symmetric
        algorithms spread it and have high entropy.  We compute the entropy
        of the normalised per-(sender, receiver) word counts aggregated over
        the selected updates.
        """
        updates = self._updates if prefix is None else self.updates_labelled(prefix)
        totals: dict[tuple[str, str], int] = {}
        for update in updates:
            for pair, words in update.pair_words().items():
                totals[pair] = totals.get(pair, 0) + words
        grand = sum(totals.values())
        if grand <= 0:
            return 0.0
        entropy = 0.0
        for words in totals.values():
            p = words / grand
            entropy -= p * math.log2(p)
        return entropy
