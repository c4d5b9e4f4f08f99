"""The columnar ``MetricsLedger`` against a list-of-records oracle.

The ledger keeps each round's costs in ``array("q")`` columns, the rounds
that kept a per-(sender, receiver) breakdown in a sparse map, and each update
as a label, a batch id and a first row; it builds ``RoundRecord`` /
``UpdateRecord`` values only when they are read.  ``OracleLedger`` below keeps
the records themselves, one ``UpdateRecord`` per update holding its
``RoundRecord`` objects.  Random sequences of ledger operations must leave
both answering every query alike — including refusing an entropy over a
round that carried words but kept no per-pair breakdown — and a record the
ledger hands out must be a snapshot.  The seeded mutations at the end show
which faults the property catches.
"""

from __future__ import annotations

from math import log2
from statistics import mean

import pytest
from hypothesis import Phase, given, settings, strategies as st
from seeded_mutation import mutated

from repro.exceptions import ProtocolError
from repro.mpc import Message, MetricsLedger, RoundRecord, UpdateRecord
from repro.mpc.metrics import UpdateSummary

LABELS = ("mm:insert:1-2", "mm:delete:1-2", "mm:batch:0[2]", "mm:preprocess", "cc:insert:3-4")
PREFIXES = (None, "mm:", "mm:insert", ("mm:insert", "mm:delete", "mm:batch"), "<unlabelled>", "zz")
MACHINES = ("m0", "m1", "m2", "m3")


class OracleLedger:
    """The ledger as a list of ``UpdateRecord`` objects holding their ``RoundRecord`` objects."""

    def __init__(self) -> None:
        self.records: list[UpdateRecord] = []
        self.current: UpdateRecord | None = None
        self.next_round_index = 1
        self.batch_counter = 0
        self.batch: int | None = None

    def begin_update(self, label: str) -> None:
        if self.current is not None:
            raise ProtocolError("update open")
        self.current = UpdateRecord(label, batch_id=self.batch)

    def end_update(self) -> None:
        if self.current is None:
            raise ProtocolError("no update open")
        self.records.append(self.current)
        self.current = None

    def begin_batch(self) -> None:
        if self.batch is not None or self.current is not None:
            raise ProtocolError("batch or update open")
        self.batch_counter += 1
        self.batch = self.batch_counter

    def end_batch(self) -> None:
        if self.batch is None or self.current is not None:
            raise ProtocolError("no batch open, or an update open")
        self.batch = None

    def file(self, record: RoundRecord) -> None:
        if self.current is None:
            self.records.append(UpdateRecord("<unlabelled>", [record], batch_id=self.batch))
        else:
            self.current.rounds.append(record)

    def record_round(self, messages) -> None:
        self.file(RoundRecord.from_messages(self.next_round_index, messages))
        self.next_round_index += 1

    def file_round(self, costs) -> None:
        self.file(round_record(self.next_round_index, costs))
        self.next_round_index += 1

    def reset(self) -> None:
        if self.current is not None or self.batch is not None:
            raise ProtocolError("update or batch open")
        self.records = []

    # queries
    def updates_labelled(self, prefix) -> list[UpdateRecord]:
        return [u for u in self.records if prefix is None or u.label.startswith(prefix)]

    def batches(self, prefix) -> dict[int, list[UpdateRecord]]:
        groups: dict[int, list[UpdateRecord]] = {}
        for record in self.updates_labelled(prefix):
            if record.batch_id is not None:
                groups.setdefault(record.batch_id, []).append(record)
        return groups

    def summary(self, prefix) -> UpdateSummary:
        return summarize(self.updates_labelled(prefix))

    def batch_summary(self, prefix) -> UpdateSummary:
        merged: list[UpdateRecord] = []
        by_batch: dict[int, UpdateRecord] = {}
        for record in self.updates_labelled(prefix):
            if record.batch_id is None:
                merged.append(record)
                continue
            if record.batch_id not in by_batch:
                by_batch[record.batch_id] = UpdateRecord("<batch>", batch_id=record.batch_id)
                merged.append(by_batch[record.batch_id])
            by_batch[record.batch_id].rounds.extend(record.rounds)
        return summarize(merged)

    def total_rounds(self, prefix) -> int:
        return sum(u.num_rounds for u in self.updates_labelled(prefix))

    def communication_entropy(self, prefix) -> float:
        totals: dict[tuple[str, str], int] = {}
        for update in self.updates_labelled(prefix):
            if any(r.total_words and not r.pair_words for r in update.rounds):
                raise ProtocolError("a round carried words but kept no per-pair breakdown")
            for pair, words in update.pair_words().items():
                totals[pair] = totals.get(pair, 0) + words
        grand = sum(totals.values())
        if grand <= 0:
            return 0.0
        return -sum(words / grand * log2(words / grand) for words in totals.values())


def summarize(updates: list[UpdateRecord]) -> UpdateSummary:
    if not updates:
        return UpdateSummary(0, 0, 0.0, 0, 0.0, 0, 0.0, 0)
    words = [u.max_words_per_round for u in updates]
    return UpdateSummary(
        num_updates=len(updates),
        max_rounds=max(u.num_rounds for u in updates),
        mean_rounds=mean(u.num_rounds for u in updates),
        max_active_machines=max(u.max_active_machines for u in updates),
        mean_active_machines=mean(u.mean_active_machines for u in updates),
        max_words_per_round=max(words),
        mean_words_per_round=mean(words),
        total_words=sum(u.total_words for u in updates),
    )


# ------------------------------------------------------------------ operations
COUNTS = st.integers(0, 9)
PAIR_WORDS = st.dictionaries(st.tuples(st.sampled_from(MACHINES), st.sampled_from(MACHINES)), st.integers(1, 9), max_size=3)
#: (active machines, total words, message count, largest message, pair words); ``None``: no pair detail
COSTS = st.tuples(COUNTS, COUNTS, COUNTS, COUNTS, st.one_of(st.none(), PAIR_WORDS))
MESSAGES = st.lists(st.tuples(st.sampled_from(MACHINES), st.sampled_from(MACHINES), st.integers(1, 9)), max_size=4)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("begin_update"), st.sampled_from(LABELS)),
        st.just(("end_update",)),
        st.just(("begin_batch",)),
        st.just(("end_batch",)),
        st.tuples(st.just("file_round"), COSTS),
        st.tuples(st.just("record_round"), MESSAGES),
        st.just(("reset",)),
    ),
    max_size=40,
)


def round_record(round_index: int, costs) -> RoundRecord:
    *scalars, pair_words = costs
    return RoundRecord(round_index, *scalars, None if pair_words is None else dict(pair_words))


def apply(ledger, operation) -> None:
    name, *args = operation
    if name == "file_round":
        if isinstance(ledger, MetricsLedger):
            ledger.file_round(None, *args[0])
        else:
            ledger.file_round(args[0])
    elif name == "record_round":
        ledger.record_round([Message(sender, receiver, "t", None, words) for sender, receiver, words in args[0]])
    else:
        getattr(ledger, name)(*args)


def detail(updates: list[UpdateRecord]) -> list[list[dict]]:
    """Pair words of every round: ``RoundRecord`` equality leaves them out."""
    return [[r.pair_words for r in u.rounds] for u in updates]


def assert_same_answers(ledger: MetricsLedger, oracle: OracleLedger) -> None:
    assert ledger.next_round_index == oracle.next_round_index
    assert ledger.updates == oracle.records
    assert detail(ledger.updates) == detail(oracle.records)
    for prefix in PREFIXES:
        if prefix is not None:
            labelled = ledger.updates_labelled(prefix)
            assert labelled == oracle.updates_labelled(prefix)
            assert detail(labelled) == detail(oracle.updates_labelled(prefix))
        assert ledger.batches(prefix) == oracle.batches(prefix)
        assert ledger.summary(prefix) == oracle.summary(prefix)
        assert ledger.batch_summary(prefix) == oracle.batch_summary(prefix)
        assert ledger.total_rounds(prefix) == oracle.total_rounds(prefix)
        assert entropy(ledger, prefix) == pytest.approx(entropy(oracle, prefix), abs=1e-12)


def entropy(ledger, prefix) -> "float | str":
    """The ledger's communication entropy, or ``"refused"``."""
    try:
        return ledger.communication_entropy(prefix)
    except ProtocolError:
        return "refused"


def check_sequence(operations) -> None:
    ledger, oracle = MetricsLedger(), OracleLedger()
    for operation in operations:
        outcomes = []
        for side in (ledger, oracle):
            try:
                apply(side, operation)
                outcomes.append("ok")
            except ProtocolError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1], f"{operation}: ledger {outcomes[0]}, oracle {outcomes[1]}"
        assert_same_answers(ledger, oracle)


def run_property(max_examples: int, phases=tuple(Phase)) -> None:
    @settings(max_examples=max_examples, derandomize=True, deadline=None, database=None, phases=phases)
    @given(operations=OPERATIONS)
    def property_holds(operations):
        check_sequence(operations)

    property_holds()


def test_columns_answer_like_the_list_of_records():
    run_property(300)


def snapshot_ledger() -> tuple[MetricsLedger, list[RoundRecord]]:
    """A ledger with one batched update of three detailed rounds and one update of one,
    and the rounds ``record_round`` / ``file_round`` handed back."""
    ledger = MetricsLedger()
    ledger.begin_batch()
    ledger.begin_update("u")
    recorded = ledger.record_round([Message("a", "b", "t", None, 5)])
    also_recorded = ledger.record_round([Message("b", "a", "t", None, 3)])
    delivered = ledger.file_round(None, 2, 7, 1, 7, {("e", "f"): 7})
    ledger.end_update()
    ledger.end_batch()
    ledger.begin_update("copy")
    delivered_later = ledger.file_round(None, 2, 4, 1, 4, {("c", "d"): 4})
    ledger.end_update()
    return ledger, [recorded, also_recorded, delivered, delivered_later]


def check_snapshots() -> None:
    ledger, filed = snapshot_ledger()
    before = ledger.updates
    pair_words = [[{("a", "b"): 5}, {("b", "a"): 3}, {("e", "f"): 7}], [{("c", "d"): 4}]]
    assert detail(before) == pair_words
    handed_out = [*ledger.updates, *ledger.updates_labelled("u"), *ledger.batches()[1]]
    for record in [*filed, *(r for update in handed_out for r in update.rounds)]:
        record.pair_words[("x", "y")] = 99
        record.total_words = 1000
    for update in handed_out:
        update.rounds.append(RoundRecord(0, 0, 0, 0, 0))
        update.label = "changed"
    assert ledger.updates == before and detail(ledger.updates) == pair_words
    assert ledger.summary().total_words == 19


def test_a_handed_out_record_is_a_snapshot():
    check_snapshots()


# ----------------------------------------------------------- seeded mutations
#: (method, text, replacement, fault): each must make the property fail
PROPERTY_MUTATIONS = [
    ("begin_update", "self._open_start = len(self._round_index)", "self._open_start = max(len(self._round_index) - 1, 0)", "update boundary one row early"),
    ("_spans", "ends.append(self._open_start if self._open_label is not None else len(self._round_index))", "ends.append(len(self._round_index))", "open update's rows charged to the last closed one"),
    ("_file_round", "self._pair_words[len(rows)] = dict(pair_words)", "pass", "pair-detail row dropped"),
    ("_file_round", 'self._file_update("<unlabelled>", len(rows))', "pass", "round outside an update joins the previous update"),
    ("_file_update", "self._batch_ids.append(self._current_batch or 0)", "self._batch_ids.append(0)", "batch tag dropped"),
    ("batch_summary", "spans.append((first, end))", "merged.append([(first, end)])", "batch members summarised apart"),
    ("_summarize", "active += self._active_machines[first:end]", "active += self._active_machines[first:end - 1]", "last round of an update left out of its active machines"),
    ("reset", "self._start_empty()", "self._traffic = dict.fromkeys(self._traffic, 0)", "reset keeps the rounds"),
    ("record_round", "self.next_round_index += 1", "pass", "record_round leaves the counter"),
    ("file_round", "self.next_round_index = round_index + 1", "pass", "a delivered round leaves the counter"),
    ("communication_entropy", "if self._total_words[row]:", "if False:", "entropy skips a round that kept no breakdown"),
    ("communication_entropy", "if self._total_words[row]:", "if True:", "entropy refuses a wordless round"),
]
#: faults only the snapshot check sees: the ledger shares a dict with a record it handed out
SNAPSHOT_MUTATIONS = [
    ("_file_round", "self._pair_words[len(rows)] = dict(pair_words)", "self._pair_words[len(rows)] = pair_words", "filed round's pair words shared"),
    ("file_round", "self._pair_words[len(rows)] = dict(pair_words)", "self._pair_words[len(rows)] = pair_words", "delivered round's pair words shared"),
    ("_round_record", "None if pair_words is None else dict(pair_words)", "pair_words", "read round's pair words shared"),
]


@pytest.mark.parametrize(("method", "text", "replacement", "fault"), PROPERTY_MUTATIONS, ids=[m[3] for m in PROPERTY_MUTATIONS])
def test_the_property_catches_a_seeded_fault(monkeypatch, method, text, replacement, fault):
    monkeypatch.setattr(MetricsLedger, method, mutated(getattr(MetricsLedger, method), text, replacement))
    with pytest.raises(AssertionError):
        run_property(300, phases=(Phase.generate,))


@pytest.mark.parametrize(("method", "text", "replacement", "fault"), SNAPSHOT_MUTATIONS, ids=[m[3] for m in SNAPSHOT_MUTATIONS])
def test_the_snapshot_check_catches_a_shared_dict(monkeypatch, method, text, replacement, fault):
    monkeypatch.setattr(MetricsLedger, method, mutated(getattr(MetricsLedger, method), text, replacement))
    with pytest.raises(AssertionError):
        check_snapshots()
