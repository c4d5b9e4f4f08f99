"""Filing a round from its message list, for tests that state a round as the messages it carried."""

from __future__ import annotations

from typing import Iterable

from repro.mpc import Message, MetricsLedger, RoundRecord


def file_messages(ledger: MetricsLedger, messages: Iterable[Message]) -> RoundRecord:
    """File the next round of ``ledger`` as :meth:`RoundRecord.from_messages` condenses ``messages``,
    per-(sender, receiver) breakdown included, and return the record the ledger hands back."""
    record = RoundRecord.from_messages(ledger.next_round_index, messages)
    return ledger.file_round(record.active_machines, record.total_words, record.message_count, record.max_message_words, record.pair_words)
