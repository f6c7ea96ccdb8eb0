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
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import numpy.typing as npt

from repro.errors import LedgerError, PrivacyBudgetExceededError
from repro.records import LabelColumn, fold

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


#: One charge call's expenditures: the ε′ column and its labels.
_Chunk = Tuple["npt.NDArray[np.float64]", Sequence[str]]


@dataclass(eq=False)
class BudgetAccountant:
    """Per-dataset sequential-composition ε ledger.

    Each dataset keeps the charges as the chunks they came in -- an ε′
    column and its labels (the settlement kernel's are derived on read)
    -- and a running total that every mutation folds its charges into
    one at a time, in charge order (:func:`~repro.records.fold`), so
    :meth:`spent` answers in O(1) with the bits a left-to-right re-sum of
    the history would give (``sum()`` up to Python 3.11; 3.12's ``sum()``
    compensates rounding and may differ in the last bit).  The
    :class:`BudgetEntry` views of :meth:`history` are built on read.

    Parameters
    ----------
    capacity:
        Maximum cumulative ε′ allowed per dataset key.  ``float('inf')``
        (the default) disables enforcement but still records spending, which
        is how the experiment harness audits total leakage.
    """

    capacity: float = float("inf")
    _chunks: Dict[str, List[_Chunk]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        # Running left-fold total per dataset, kept in step with _chunks.
        self._totals: Dict[str, float] = {}
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
        return fold(pending, self.spent(dataset)) + epsilon <= self.capacity + 1e-12

    def charge(self, dataset: str, epsilon: float, label: str = "query") -> float:
        """Record an expenditure; returns the new cumulative total.

        A one-row :meth:`charge_many`.

        Raises
        ------
        PrivacyBudgetExceededError
            If the charge would push the dataset past :attr:`capacity`.
        """
        return self.charge_many(dataset, [epsilon], [label])

    def charge_many(
        self,
        dataset: str,
        epsilons: "Union[Sequence[float], npt.NDArray[np.float64]]",
        labels: Sequence[str],
    ) -> float:
        """Record several expenditures at once; returns the new total.

        ``epsilons`` and ``labels`` are parallel sequences (the settlement
        kernel passes an ε′ column and a :class:`~repro.records.LabelColumn`,
        whose labels are formatted only when read).  Affordability is
        checked once against the *sum* (sequential composition is
        additive), and the entries land in ``history`` in order, and fold
        into the running total one by one, exactly as repeated
        :meth:`charge` calls would -- but with one affordability check,
        which is what makes the broker's batched trading path cheap.

        Raises
        ------
        PrivacyBudgetExceededError
            If the combined charge would push the dataset past
            :attr:`capacity`; nothing is recorded in that case.
        """
        if len(epsilons) != len(labels):
            raise ValueError("epsilons and labels must be parallel lists")
        if len(epsilons) == 0:
            # An all-replay batch charges nothing; leave no trace of the
            # dataset in the books either.
            return self._totals.get(dataset, 0.0)
        column = np.array(epsilons, dtype=np.float64)
        column.flags.writeable = False
        if not column.min() >= 0:  # NaN fails too
            _check_epsilon(float(column[~(column >= 0)][0]))
        bulk = fold(column)
        if not self.can_afford(dataset, bulk):
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={bulk:.6g} in bulk would "
                f"exceed capacity {self.capacity:.6g} (already spent "
                f"{self.spent(dataset):.6g})"
            )
        if not isinstance(labels, (tuple, LabelColumn)):
            labels = tuple(labels)  # a caller's list may change later
        self._chunks.setdefault(dataset, []).append((column, labels))
        total = fold(column, self._totals.get(dataset, 0.0))
        self._totals[dataset] = total
        return total

    def history(self, dataset: str) -> Tuple[BudgetEntry, ...]:
        """Immutable view of the expenditures recorded for ``dataset``."""
        return tuple(
            BudgetEntry(label, epsilon)
            for column, labels in self._chunks.get(dataset, ())
            for label, epsilon in zip(labels, column.tolist())
        )

    def datasets(self) -> Tuple[str, ...]:
        """Dataset keys with at least one recorded expenditure."""
        return tuple(self._chunks)

    def reset(self, dataset: str) -> None:
        """Forget all spending for ``dataset`` (e.g. after data rotation)."""
        self._chunks.pop(dataset, None)
        self._totals.pop(dataset, None)

    # ------------------------------------------------------------------ #
    # Durability: snapshot / restore / journal replay                    #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the full accounting state."""
        return {
            "capacity": self.capacity,
            "spent": {
                dataset: [[e.label, e.epsilon] for e in self.history(dataset)]
                for dataset in self._chunks
            },
            "journal_high_water": self._journal_high_water,
        }

    def _load(self, dataset: str, epsilons: List[float], labels: List[str]) -> None:
        """Book charges that already happened: no capacity check."""
        column = np.array(epsilons, dtype=np.float64)
        column.flags.writeable = False
        self._chunks.setdefault(dataset, []).append((column, labels))
        self._totals[dataset] = fold(column, self._totals.get(dataset, 0.0))

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace this accountant's state with a :meth:`snapshot` copy."""
        spent: Mapping[str, Iterable[Tuple[str, float]]] = snapshot["spent"]
        self.capacity = float(snapshot["capacity"])
        self._chunks = {}
        self._totals = {}
        for dataset, entries in spent.items():
            entries = list(entries)
            self._load(
                dataset,
                [float(epsilon) for _, epsilon in entries],
                [str(label) for label, _ in entries],
            )
        self._journal_high_water = int(snapshot["journal_high_water"])

    def replay_journal(self, entries: "Iterable[SpendRecord]") -> int:
        """Re-apply journaled privacy spends not yet folded in.

        Entries at or below the journal high-water mark are skipped
        (idempotent), replay entries carry ε′ = 0 and record nothing,
        release and ``charge`` entries (a histogram or quantile spend)
        fold in alike, and
        — crucially — **capacity is not enforced**: the releases already
        happened, so recovery must record every journaled spend even if
        the dataset ends up over budget.  Under-counting ε after a crash
        would be a silent privacy leak; an over-budget ledger is loud and
        auditable.  Entries must run in ``answer_id`` order; otherwise
        nothing is applied.  Returns the number of entries applied as
        spends.
        """
        spends: Dict[str, Tuple[List[float], List[str]]] = {}
        applied = 0
        previous = 0
        high_water = self._journal_high_water
        for entry in entries:
            if entry.answer_id <= previous:
                raise LedgerError(
                    f"journal replay out of order: answer_id "
                    f"{entry.answer_id} after {previous}"
                )
            previous = entry.answer_id
            if entry.answer_id <= high_water:
                continue
            high_water = entry.answer_id
            if entry.kind == "replay":
                # Replays are post-processing: billed, but never charged
                # to the accountant, exactly as in live operation.
                continue
            epsilons, labels = spends.setdefault(entry.dataset, ([], []))
            epsilons.append(entry.epsilon_prime)
            labels.append(entry.label)
            applied += 1
        for dataset, (epsilons, labels) in spends.items():
            self._load(dataset, epsilons, labels)
        self._journal_high_water = high_water
        return applied
