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

The ledger stores columns, not objects: one ``array("q")`` per round cost
(round index, active machines, total words, message count, largest
message), a sparse ``row -> pair_words`` map for the rounds that kept their
per-(sender, receiver) breakdown, and three parallel per-update columns
(label, batch id, first row).  A recorded round costs five machine words.
:class:`RoundRecord` and :class:`UpdateRecord` are the values it hands out;
they are built when read and are snapshots — changing one leaves the ledger
as it was.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from statistics import mean
from typing import Iterable, Iterator

from repro.exceptions import ProtocolError
from repro.mpc.message import Message

__all__ = ["RoundRecord", "UpdateRecord", "UpdateSummary", "MetricsLedger"]


class RoundRecord:
    """Costs of a single synchronous round.

    A plain ``__slots__`` value class like :class:`~repro.mpc.message.Message`
    (every exchange returns one).  Equality and hash cover the five
    scalar costs; ``pair_words`` — the per-(sender, receiver) breakdown, empty
    where the transport kept none — is detail, not identity.  Treat
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
    def from_messages(round_index: int, messages: Iterable[Message]) -> "RoundRecord":
        """Build a record, per-pair breakdown included, from the messages delivered in one round."""
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

    The value :class:`MetricsLedger` hands out for a recorded update: built
    from the ledger's columns when read, never kept by it, so changing one
    changes nothing recorded.  A round filed while no update was open is an
    update of its own, labelled ``"<unlabelled>"``.  ``batch_id`` tags
    records that were produced inside a :meth:`MetricsLedger.begin_batch` /
    :meth:`MetricsLedger.end_batch` scope; records of the same batch are
    aggregated into one pseudo-update by :meth:`MetricsLedger.batch_summary`.
    Mutable (a plain list of rounds), so compared by value and not hashable.
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
    """Aggregate of many updates — the quantities Table 1 bounds.

    ``max_words_per_round`` is the largest round of any update, and
    ``mean_words_per_round`` the mean over updates of each update's *largest*
    round (not the mean over rounds) — what :mod:`repro.analysis.tables`
    reports.
    """

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


#: which updates a summary covers: every recorded one (``None``), or those
#: whose label starts with the prefix, or with any prefix of a tuple
LabelPrefix = str | tuple[str, ...] | None


class MetricsLedger:
    """Records every round's costs as columns, grouped into labelled updates.

    Five ``array("q")`` columns hold one row per recorded round: its round
    index, active machines, total words, message count and largest message.
    Rounds that kept a per-(sender, receiver) breakdown also have an entry in
    a sparse ``row -> pair_words`` map.  An update is three parallel columns:
    its label, its batch id and the first row it owns (it owns every row up
    to the next update's first); the open update is a label plus a first row
    until :meth:`end_update` files it.  A round filed while no update is open
    becomes an anonymous update of its own, labelled ``"<unlabelled>"``.

    :class:`RoundRecord` / :class:`UpdateRecord` are the values handed out —
    by :meth:`file_round` (hence ``Cluster.exchange()``), :meth:`record_round`,
    :attr:`updates`, :meth:`updates_labelled` and :meth:`batches`.
    They are built when read and are snapshots: the ledger keeps none of
    them and copies a filed round's ``pair_words``, so changing a record
    never changes what was recorded.  The summaries read the columns.

    Which rounds keep their per-(sender, receiver) breakdown is a constant
    of the transport that delivers them (``Transport.pair_detail``): every
    round on ``reference``, none on ``fast`` / ``resident``.  A transport
    condenses the round while delivering it and files its five costs with
    :meth:`file_round`; :meth:`record_round` condenses a message list with
    :meth:`RoundRecord.from_messages`, full breakdown included.
    """

    def __init__(self) -> None:
        #: index the next recorded round will carry — ``rounds so far + 1``,
        #: global across updates and :meth:`reset`; advanced only by
        #: :meth:`file_round` and :meth:`record_round`.  A resident session
        #: reads it up front to number the rounds of a fused block: hence a
        #: plain attribute.
        self.next_round_index = 1
        self._batch_counter = 0
        self._current_batch: int | None = None
        #: label and first row of the open update (``None``: no update open)
        self._open_label: str | None = None
        self._open_start = 0
        self._start_empty()

    def _start_empty(self) -> None:
        """Columns with no round and no update, and every counter at zero."""
        # one row per recorded round
        self._round_index = array("q")
        self._active_machines = array("q")
        self._total_words = array("q")
        self._message_count = array("q")
        self._max_message_words = array("q")
        self._pair_words: dict[int, dict[tuple[str, str], int]] = {}
        # one row per closed update; batch id 0: recorded outside any batch
        self._labels: list[str] = []
        self._batch_ids = array("q")
        self._first_rows = array("q")
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

    # ----------------------------------------------------------------- update
    def begin_update(self, label: str) -> None:
        """Open a new labelled update; subsequent rounds are charged to it."""
        if self._open_label is not None:
            raise ProtocolError(f"begin_update({label!r}) called while update {self._open_label!r} is open")
        self._open_label = label
        self._open_start = len(self._round_index)

    def end_update(self) -> None:
        """Close the currently open update and file it after the recorded ones."""
        if self._open_label is None:
            raise ProtocolError("end_update() called with no open update")
        self._file_update(self._open_label, self._open_start)
        self._open_label = None

    def _file_update(self, label: str, first_row: int) -> None:
        self._labels.append(label)
        self._batch_ids.append(self._current_batch or 0)
        self._first_rows.append(first_row)

    # ------------------------------------------------------------------ batch
    def begin_batch(self) -> int:
        """Open a batch scope: subsequent updates are tagged with its id.

        Batches group the updates of one :meth:`DynamicMPCAlgorithm.apply_batch`
        call so that per-batch costs can be reported next to per-update
        costs.  Batches cannot nest and cannot start mid-update.
        """
        if self._current_batch is not None:
            raise ProtocolError(f"begin_batch() called while batch {self._current_batch} is open")
        if self._open_label is not None:
            raise ProtocolError("begin_batch() called while an update is open")
        self._batch_counter += 1
        self._current_batch = self._batch_counter
        return self._current_batch

    def end_batch(self) -> int:
        """Close the currently open batch scope and return its id."""
        if self._current_batch is None:
            raise ProtocolError("end_batch() called with no open batch")
        if self._open_label is not None:
            raise ProtocolError("end_batch() called while an update is open")
        batch_id, self._current_batch = self._current_batch, None
        return batch_id

    @property
    def in_batch(self) -> bool:
        return self._current_batch is not None

    def batches(self, prefix: LabelPrefix = None) -> dict[int, list[UpdateRecord]]:
        """Recorded updates grouped by batch id (unbatched records excluded)."""
        groups: dict[int, list[UpdateRecord]] = {}
        for update, first, end in self._spans(prefix):
            batch_id = self._batch_ids[update]
            if batch_id:
                groups.setdefault(batch_id, []).append(self._update_record(update, first, end))
        return groups

    def batch_summary(self, prefix: LabelPrefix = None) -> UpdateSummary:
        """Aggregate treating each batch as a single pseudo-update.

        Updates recorded outside any batch count individually, so mixing
        ``apply`` and ``apply_batch`` on the same algorithm still yields one
        meaningful summary.
        """
        merged: list[list[tuple[int, int]]] = []
        by_batch: dict[int, list[tuple[int, int]]] = {}
        for update, first, end in self._spans(prefix):
            batch_id = self._batch_ids[update]
            if not batch_id:
                merged.append([(first, end)])
                continue
            spans = by_batch.get(batch_id)
            if spans is None:
                spans = by_batch[batch_id] = []
                merged.append(spans)
            spans.append((first, end))
        return self._summarize(merged)

    # ----------------------------------------------------------------- rounds
    def record_round(self, messages: Iterable[Message]) -> RoundRecord:
        """Record one synchronous round from its message list, condensed by
        :meth:`RoundRecord.from_messages` with its full pair breakdown.
        Rounds outside an update are allowed (e.g. ad-hoc probes) but are
        tracked under an anonymous update."""
        record = RoundRecord.from_messages(self.next_round_index, messages)
        self.next_round_index += 1
        self._file_round(*record._costs(), record.pair_words)
        return record

    def file_round(
        self,
        round_index: int | None,
        active_machines: int,
        total_words: int,
        message_count: int,
        max_message_words: int,
        pair_words: "dict[tuple[str, str], int] | None" = None,
    ) -> RoundRecord:
        """File one round's five costs as the next row and hand out its record: the one column writer.

        ``round_index=None`` is a new round, numbered :attr:`next_round_index`
        (which advances): the per-round entry point of
        :meth:`Transport.deliver`, which condensed the round while delivering
        it.  :meth:`record_round`, which moves the counter itself, files its
        record under the index it carries.  ``pair_words`` is the round's
        per-(sender, receiver) breakdown, ``None`` or empty when it kept none;
        the ledger keeps a copy.
        """
        if round_index is None:
            round_index = self.next_round_index
            self.next_round_index = round_index + 1
        rows = self._round_index
        if self._open_label is None:
            self._file_update("<unlabelled>", len(rows))
        if pair_words:
            self._pair_words[len(rows)] = dict(pair_words)
        rows.append(round_index)
        self._active_machines.append(active_machines)
        self._total_words.append(total_words)
        self._message_count.append(message_count)
        self._max_message_words.append(max_message_words)
        return RoundRecord(round_index, active_machines, total_words, message_count, max_message_words, pair_words)

    #: :meth:`file_round` under a private name, for :meth:`record_round`: ``bench/trace.py`` times
    #: it as a leaf operation of the ledger, and a leaf calls no public method of its class
    _file_round = file_round

    def _round_record(self, row: int) -> RoundRecord:
        pair_words = self._pair_words.get(row)
        return RoundRecord(
            self._round_index[row],
            self._active_machines[row],
            self._total_words[row],
            self._message_count[row],
            self._max_message_words[row],
            None if pair_words is None else dict(pair_words),
        )

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

    # -------------------------------------------------------------- summaries
    def _spans(self, prefix: LabelPrefix) -> Iterator[tuple[int, int, int]]:
        """``(update, first row, end row)`` of every closed update whose label
        matches ``prefix`` (``str.startswith``; ``None`` matches every label)."""
        labels = self._labels
        ends = self._first_rows[1:]
        ends.append(self._open_start if self._open_label is not None else len(self._round_index))
        for update, (first, end) in enumerate(zip(self._first_rows, ends)):
            if prefix is None or labels[update].startswith(prefix):
                yield update, first, end

    def _update_record(self, update: int, first: int, end: int) -> UpdateRecord:
        rounds = [self._round_record(row) for row in range(first, end)]
        return UpdateRecord(self._labels[update], rounds, self._batch_ids[update] or None)

    @property
    def updates(self) -> list[UpdateRecord]:
        return [self._update_record(*span) for span in self._spans(None)]

    def updates_labelled(self, prefix: "str | tuple[str, ...]") -> list[UpdateRecord]:
        """Return updates whose label starts with ``prefix`` (or any prefix of a tuple)."""
        return [self._update_record(*span) for span in self._spans(prefix)]

    def summary(self, prefix: LabelPrefix = None) -> UpdateSummary:
        """Aggregate the recorded updates (optionally filtered by label prefix)."""
        return self._summarize([[(first, end)] for _, first, end in self._spans(prefix)])

    def total_rounds(self, prefix: LabelPrefix = None) -> int:
        """Total number of rounds across the recorded updates."""
        return sum(end - first for _, first, end in self._spans(prefix))

    def _summarize(self, groups: list[list[tuple[int, int]]]) -> UpdateSummary:
        """Summary over pseudo-updates, each the concatenation of its row spans."""
        if not groups:
            return UpdateSummary(0, 0, 0.0, 0, 0.0, 0, 0.0, 0)
        rounds: list[int] = []
        max_active: list[int] = []
        mean_active: list[float] = []
        max_words: list[int] = []
        total_words = 0
        for spans in groups:
            active = array("q")
            words = array("q")
            for first, end in spans:
                active += self._active_machines[first:end]
                words += self._total_words[first:end]
            rounds.append(len(words))
            max_active.append(max(active, default=0))
            mean_active.append(mean(active) if active else 0.0)
            max_words.append(max(words, default=0))
            total_words += sum(words)
        return UpdateSummary(
            num_updates=len(groups),
            max_rounds=max(rounds),
            mean_rounds=mean(rounds),
            max_active_machines=max(max_active),
            mean_active_machines=mean(mean_active),
            max_words_per_round=max(max_words),
            mean_words_per_round=mean(max_words),
            total_words=total_words,
        )

    def reset(self) -> None:
        """Discard all recorded updates and zero the wire-path and fusion
        counters (keeps the global round counter)."""
        if self._open_label is not None:
            raise ProtocolError("cannot reset the ledger while an update is open")
        if self._current_batch is not None:
            raise ProtocolError("cannot reset the ledger while a batch is open")
        self._start_empty()

    # --------------------------------------------------------------- entropy
    def communication_entropy(self, prefix: LabelPrefix = None) -> float:
        """Shannon entropy (bits) of the communication distribution (Section 8).

        The paper proposes measuring how evenly communication is spread over
        machine pairs: coordinator-centric algorithms concentrate traffic on
        a few pairs and therefore have low entropy, while symmetric
        algorithms spread it and have high entropy.  We compute the entropy
        of the normalised per-(sender, receiver) word counts aggregated over
        the selected updates.

        Raises :class:`ProtocolError` when a selected round carried words but
        kept no breakdown (every round a ``fast`` / ``resident`` transport
        delivered): the entropy of the rounds that kept one would misreport
        the selection, and read 0.0 when none did.  Measure entropy on
        ``reference``.
        """
        detail = self._pair_words
        totals: dict[tuple[str, str], int] = {}
        for _, first, end in self._spans(prefix):
            for row in range(first, end):
                pair_words = detail.get(row)
                if pair_words is None:
                    if self._total_words[row]:
                        raise ProtocolError(
                            f"round {self._round_index[row]} carried words but kept no per-pair breakdown; "
                            "communication entropy needs a backend with pair detail (reference)"
                        )
                    continue
                for pair, words in pair_words.items():
                    totals[pair] = totals.get(pair, 0) + words
        grand = sum(totals.values())
        if grand <= 0:
            return 0.0
        entropy = 0.0
        for words in totals.values():
            p = words / grand
            entropy -= p * math.log2(p)
        return entropy
