"""Crash-safe accounting: write-ahead trade journal and exact recovery.

``repro.durability`` makes the broker's books survive process death.
Brokers append every trade to a :class:`TradeJournal` *before* releasing
the answer (journal-before-release: the settlement kernel's order,
checked by lint rule RL007);
:func:`recover_accounting` rebuilds a bit-identical
``(BillingLedger, BudgetAccountant)`` pair from the journal — optionally
fast-forwarded from an :class:`AccountingSnapshot` — without ever
double-charging a journaled answer or under-counting ε.
"""

from repro.durability.journal import (
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    JournalEntry,
    TradeJournal,
)
from repro.durability.recovery import (
    AccountingSnapshot,
    recover_accounting,
    snapshot_accounting,
)

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "JournalEntry",
    "TradeJournal",
    "AccountingSnapshot",
    "recover_accounting",
    "snapshot_accounting",
]
