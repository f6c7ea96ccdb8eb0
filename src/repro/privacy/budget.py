"""Privacy-budget accounting for the data broker.

The IoT network "entrusts the protection of data privacy to the data
broker" (Section II-A).  A broker that answers unlimited queries leaks
unbounded information, so production deployments cap the cumulative budget
per dataset.  :class:`BudgetAccountant` tracks, per dataset key, the ε′
spent by every released answer under sequential composition and refuses
releases that would overspend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Protocol, Sequence, Tuple

from repro.errors import LedgerError, PrivacyBudgetExceededError

__all__ = ["BudgetAccountant", "BudgetEntry", "SpendRecord"]


class SpendRecord(Protocol):
    """Structural view of a journaled trade's privacy spend.

    Declared locally so the strictly-typed privacy layer never imports the
    durability package: any object exposing these attributes — in practice
    :class:`repro.durability.journal.JournalEntry` — can be replayed.
    """

    @property
    def answer_id(self) -> int: ...

    @property
    def kind(self) -> str: ...

    @property
    def dataset(self) -> str: ...

    @property
    def epsilon_prime(self) -> float: ...

    @property
    def label(self) -> str: ...


@dataclass(frozen=True)
class BudgetEntry:
    """One recorded expenditure: the query label and the ε′ it consumed."""

    label: str
    epsilon: float


def _check_epsilon(epsilon: float) -> None:
    # ``not epsilon >= 0`` also rejects NaN, which ``epsilon < 0`` lets through.
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon!r}")


def _fold(epsilons: Iterable[float], total: float = 0.0) -> float:
    """Add ``epsilons`` to ``total`` one at a time, in order.

    Adding a batch's pre-summed total in one step would round differently.
    """
    for epsilon in epsilons:
        total += epsilon
    return total


@dataclass
class BudgetAccountant:
    """Per-dataset sequential-composition ε ledger.

    Beside the history, each dataset keeps a running total that every
    mutation folds its entries into one at a time, in charge order, so
    :meth:`spent` answers in O(1) with the bits a left-to-right re-sum of
    the history would give (``sum()`` up to Python 3.11; 3.12's ``sum()``
    compensates rounding and may differ in the last bit).

    Parameters
    ----------
    capacity:
        Maximum cumulative ε′ allowed per dataset key.  ``float('inf')``
        (the default) disables enforcement but still records spending, which
        is how the experiment harness audits total leakage.
    """

    capacity: float = float("inf")
    _spent: Dict[str, List[BudgetEntry]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        # Running left-fold total per dataset, kept in step with _spent.
        self._totals: Dict[str, float] = {
            dataset: _fold(e.epsilon for e in entries)
            for dataset, entries in self._spent.items()
        }
        # Highest journal answer_id already folded into this accountant;
        # the idempotency floor for replay_journal (0 = nothing replayed).
        self._journal_high_water: int = 0

    def spent(self, dataset: str) -> float:
        """Total ε′ spent so far against ``dataset``.

        O(1): the running left fold of the history in charge order.
        """
        return self._totals.get(dataset, 0.0)

    def remaining(self, dataset: str) -> float:
        """Budget headroom left for ``dataset``."""
        return self.capacity - self.spent(dataset)

    def can_afford(
        self, dataset: str, epsilon: float, pending: Sequence[float] = ()
    ) -> bool:
        """Whether charging ``epsilon`` against ``dataset`` would fit.

        ``pending`` are charges already admitted but not yet recorded;
        they are folded into the running total first, one by one in
        order, exactly as :meth:`charge_many` will fold them.
        """
        _check_epsilon(epsilon)
        return _fold(pending, self.spent(dataset)) + epsilon <= self.capacity + 1e-12

    def charge(self, dataset: str, epsilon: float, label: str = "query") -> float:
        """Record an expenditure; returns the new cumulative total.

        Raises
        ------
        PrivacyBudgetExceededError
            If the charge would push the dataset past :attr:`capacity`.
        """
        if not self.can_afford(dataset, epsilon):
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={epsilon:.6g} would exceed "
                f"capacity {self.capacity:.6g} (already spent "
                f"{self.spent(dataset):.6g})"
            )
        self._spent.setdefault(dataset, []).append(BudgetEntry(label, epsilon))
        total = self._totals.get(dataset, 0.0) + epsilon
        self._totals[dataset] = total
        return total

    def charge_many(
        self,
        dataset: str,
        epsilons: "List[float]",
        labels: "List[str]",
    ) -> float:
        """Record several expenditures at once; returns the new total.

        Affordability is checked once against the *sum* (sequential
        composition is additive), and the entries land in ``history`` in
        order, and fold into the running total one by one, exactly as
        repeated :meth:`charge` calls would -- but with one affordability
        check, which is what makes the broker's batched trading path cheap.

        Raises
        ------
        PrivacyBudgetExceededError
            If the combined charge would push the dataset past
            :attr:`capacity`; nothing is recorded in that case.
        """
        if len(epsilons) != len(labels):
            raise ValueError("epsilons and labels must be parallel lists")
        if not epsilons:
            # An all-replay batch charges nothing; leave no trace of the
            # dataset in the books either.
            return self._totals.get(dataset, 0.0)
        for epsilon in epsilons:
            _check_epsilon(epsilon)
        bulk = float(sum(epsilons))
        if not self.can_afford(dataset, bulk):
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={bulk:.6g} in bulk would "
                f"exceed capacity {self.capacity:.6g} (already spent "
                f"{self.spent(dataset):.6g})"
            )
        self._spent.setdefault(dataset, []).extend(
            BudgetEntry(label, epsilon)
            for label, epsilon in zip(labels, epsilons)
        )
        total = _fold(epsilons, self._totals.get(dataset, 0.0))
        self._totals[dataset] = total
        return total

    def history(self, dataset: str) -> Tuple[BudgetEntry, ...]:
        """Immutable view of the expenditures recorded for ``dataset``."""
        return tuple(self._spent.get(dataset, ()))

    def datasets(self) -> Tuple[str, ...]:
        """Dataset keys with at least one recorded expenditure."""
        return tuple(self._spent)

    def reset(self, dataset: str) -> None:
        """Forget all spending for ``dataset`` (e.g. after data rotation)."""
        self._spent.pop(dataset, None)
        self._totals.pop(dataset, None)

    # ------------------------------------------------------------------ #
    # Durability: snapshot / restore / journal replay                    #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the full accounting state."""
        return {
            "capacity": self.capacity,
            "spent": {
                dataset: [[entry.label, entry.epsilon] for entry in entries]
                for dataset, entries in self._spent.items()
            },
            "journal_high_water": self._journal_high_water,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace this accountant's state with a :meth:`snapshot` copy."""
        spent: Mapping[str, Iterable[Tuple[str, float]]] = snapshot["spent"]
        self.capacity = float(snapshot["capacity"])
        self._spent = {
            dataset: [
                BudgetEntry(str(label), float(epsilon))
                for label, epsilon in entries
            ]
            for dataset, entries in spent.items()
        }
        self._totals = {
            dataset: _fold(e.epsilon for e in entries)
            for dataset, entries in self._spent.items()
        }
        self._journal_high_water = int(snapshot["journal_high_water"])

    def replay_journal(self, entries: "Iterable[SpendRecord]") -> int:
        """Re-apply journaled privacy spends not yet folded in.

        Entries at or below the journal high-water mark are skipped
        (idempotent), replay entries carry ε′ = 0 and record nothing, and
        — crucially — **capacity is not enforced**: the releases already
        happened, so recovery must record every journaled spend even if
        the dataset ends up over budget.  Under-counting ε after a crash
        would be a silent privacy leak; an over-budget ledger is loud and
        auditable.  Returns the number of entries applied as spends.
        """
        applied = 0
        previous = 0
        for entry in entries:
            if entry.answer_id <= previous:
                raise LedgerError(
                    f"journal replay out of order: answer_id "
                    f"{entry.answer_id} after {previous}"
                )
            previous = entry.answer_id
            if entry.answer_id <= self._journal_high_water:
                continue
            self._journal_high_water = entry.answer_id
            if entry.kind != "release":
                # Replays are post-processing: billed, but never charged
                # to the accountant, exactly as in live operation.
                continue
            self._spent.setdefault(entry.dataset, []).append(
                BudgetEntry(entry.label, entry.epsilon_prime)
            )
            self._totals[entry.dataset] = (
                self._totals.get(entry.dataset, 0.0) + entry.epsilon_prime
            )
            applied += 1
        return applied
