"""Crash recovery: the books are a fold of the trade journal.

Every write into a broker's books -- its policy, accountant and ledger --
goes through :func:`~repro.core.settlement.post_record`, one journaled
dispatch record at a time.  Recovery is that same fold over the
journal's records, oldest first, into fresh books, so it reaches the
*exact* pre-crash books: bit-identical transaction ids, ledger totals,
accountant history and per-consumer policy counters versus an
uninterrupted run, and recovering twice gives equal books.  Because
brokers journal **before** they post (journal-before-release), a crash
between the journal append and the post makes recovery *over*-count that
trade's ε rather than under-count it, which is the safe direction for
privacy.  A crash *during* the append tears the dispatch's one
``TRADES`` frame, which loading drops whole: none of those answers had
been released, so nothing released goes uncounted.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional

from repro.core.policy import BrokerPolicy
from repro.core.settlement import Books, post_record
from repro.durability.journal import TradeJournal
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant

__all__ = ["BrokerBooks", "recover_accounting"]

#: The policy's bands and caps: every field but its counters.
_CAPS = tuple(
    f.name for f in dataclasses.fields(BrokerPolicy) if not f.name.startswith("_")
)


class BrokerBooks(NamedTuple):
    """A broker's books, as recovery rebuilds them."""

    ledger: BillingLedger
    accountant: BudgetAccountant
    policy: BrokerPolicy


def recover_accounting(
    journal: TradeJournal, broker: Optional[Books] = None
) -> BrokerBooks:
    """Fresh books folded from every record of ``journal``, oldest first.

    The fold runs uncapped: the journaled trades already happened, so
    recovery records every one, even past a cap (under-counting ε after
    a crash would be a silent privacy leak; an over-budget book is loud
    and auditable).  Then the caps of ``broker`` -- the broker whose books
    these replace -- apply to what comes next: the accountant's capacity
    and the policy's bands and per-consumer caps.  Without a broker the
    books stay uncapped.
    """
    books = BrokerBooks(BillingLedger(), BudgetAccountant(), BrokerPolicy())
    for record in journal.records():
        post_record(books, record)
    if broker is not None:
        books.accountant.capacity = broker.accountant.capacity
        if broker.policy is not None:
            for name in _CAPS:
                setattr(books.policy, name, getattr(broker.policy, name))
    return books
