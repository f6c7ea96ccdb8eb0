"""Crash-safe accounting: write-ahead trade journal and exact recovery.

``repro.durability`` makes the broker's books survive process death.
Brokers append every trade to a :class:`TradeJournal` *before* releasing
the answer (journal-before-release: the settlement kernel's order,
checked by lint rule RL007);
:func:`recover_accounting` folds the journal into a bit-identical ledger,
accountant and policy through the same write path live trading uses,
without ever double-charging a journaled answer or under-counting ε.
"""

from repro.durability.journal import (
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    JournalEntry,
    TradeJournal,
)
from repro.durability.recovery import BrokerBooks, recover_accounting

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "JournalEntry",
    "TradeJournal",
    "BrokerBooks",
    "recover_accounting",
]
