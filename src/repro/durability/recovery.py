"""Crash recovery: rebuild exact accounting state from the trade journal.

Recovery composes two sources:

* an optional :class:`AccountingSnapshot` (a point-in-time copy of the
  ledger and accountant, stamped with the journal high-water mark at
  snapshot time), and
* the journal suffix past that mark.

``restore(snapshot)`` + ``replay_journal(suffix)`` reaches the *exact*
pre-crash accounting state — bit-identical transaction ids, ledger
totals, and accountant history versus an uninterrupted run — and is
idempotent: replaying the same journal twice applies each entry once.
Because brokers journal **before** they charge (journal-before-release),
a crash between journal append and charge makes recovery *over*-count
that trade's ε rather than under-count it, which is the safe direction
for privacy.  A crash *during* the append tears the dispatch's one
``TRADES`` frame, which loading drops whole: none of those answers had
been released, so nothing released goes uncounted.  The suffix replays
through each book's bulk write path, so the rebuilt books fold their
aggregates exactly as the live ones did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.durability.journal import TradeJournal
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant

__all__ = ["AccountingSnapshot", "snapshot_accounting", "recover_accounting"]


@dataclass(frozen=True)
class AccountingSnapshot:
    """Point-in-time copy of a broker's books, keyed to the journal.

    ``last_answer_id`` is the journal high-water mark at snapshot time:
    recovery replays only entries strictly past it.  Take snapshots at a
    quiesced boundary (e.g. under ``gateway.quiesce()``) so the books and
    the journal agree.
    """

    ledger: Dict[str, Any]
    accountant: Dict[str, Any]
    last_answer_id: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "ledger": self.ledger,
            "accountant": self.accountant,
            "last_answer_id": self.last_answer_id,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AccountingSnapshot":
        return cls(
            ledger=dict(payload["ledger"]),
            accountant=dict(payload["accountant"]),
            last_answer_id=int(payload["last_answer_id"]),
        )


def snapshot_accounting(
    ledger: BillingLedger,
    accountant: BudgetAccountant,
    journal: TradeJournal,
) -> AccountingSnapshot:
    """Capture the books plus the journal high-water mark, atomically-ish.

    Call at a quiesced boundary: no trade may be between its journal
    append and its charge while the snapshot is taken.
    """
    last_answer_id = journal.last_answer_id
    ledger_state = ledger.snapshot()
    accountant_state = accountant.snapshot()
    # Stamp the journal mark into both books so a restore followed by a
    # *full*-journal replay (not just the suffix) stays idempotent.
    ledger_state["journal_high_water"] = max(
        int(ledger_state["journal_high_water"]), last_answer_id
    )
    accountant_state["journal_high_water"] = max(
        int(accountant_state["journal_high_water"]), last_answer_id
    )
    return AccountingSnapshot(
        ledger=ledger_state,
        accountant=accountant_state,
        last_answer_id=last_answer_id,
    )


def recover_accounting(
    journal: TradeJournal,
    snapshot: "Optional[AccountingSnapshot]" = None,
    capacity: "Optional[float]" = None,
) -> "Tuple[BillingLedger, BudgetAccountant]":
    """Rebuild a fresh ``(ledger, accountant)`` pair from journal + snapshot.

    Without a snapshot the full journal is replayed from genesis; with
    one, ``restore`` is followed by replay of the suffix past
    ``snapshot.last_answer_id``.  ``capacity`` seeds the accountant's cap
    when recovering from genesis (defaults to unlimited; recovery itself
    never enforces the cap — journaled spends are history, not requests).
    """
    ledger = BillingLedger()
    accountant = BudgetAccountant(
        capacity=float("inf") if capacity is None else capacity
    )
    after = 0
    if snapshot is not None:
        ledger.restore(snapshot.ledger)
        accountant.restore(snapshot.accountant)
        after = snapshot.last_answer_id
    suffix = journal.entries_after(after)
    ledger.replay_journal(suffix)
    accountant.replay_journal(suffix)
    return ledger, accountant
