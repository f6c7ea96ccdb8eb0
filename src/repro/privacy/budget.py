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
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import numpy.typing as npt

from repro.errors import PrivacyBudgetExceededError
from repro.records import LabelColumn, fold, fold_capped

__all__ = ["BudgetAccountant", "BudgetEntry", "ChargeBook"]


@dataclass(frozen=True)
class BudgetEntry:
    """One recorded expenditure: the query label and the ε′ it consumed."""

    label: str
    epsilon: float


#: One charge call's expenditures: the ε′ column and its labels.
_Chunk = Tuple["npt.NDArray[np.float64]", Sequence[str]]
#: One ε′ or a column of them.
Epsilons = Union[float, Sequence[float], "npt.NDArray[np.float64]"]


class ChargeBook:
    """Sequential-composition ε ledgers, one per key.

    Each key keeps its charges as the chunks they came in -- an ε′
    column and its labels (the settlement kernel's are derived on read)
    -- and a running total that every charge folds into one at a time,
    in charge order (:func:`~repro.records.fold`), so :meth:`spent`
    answers in O(1) with the bits a left-to-right re-sum of the history
    would give (``sum()`` up to Python 3.11; 3.12's ``sum()`` compensates
    rounding and may differ in the last bit).  The lifetime accountant
    keys it by dataset, the per-epoch one by ``(dataset, epoch)``.
    """

    __slots__ = ("chunks", "totals")

    def __init__(self) -> None:
        self.chunks: Dict[Hashable, List[_Chunk]] = {}
        self.totals: Dict[Hashable, float] = {}

    @staticmethod
    def column(epsilons: Epsilons) -> "npt.NDArray[np.float64]":
        """``epsilons`` as a read-only column; ``ValueError`` unless every
        ε′ is non-negative (NaN is not)."""
        column = np.array(epsilons, dtype=np.float64, ndmin=1)
        column.flags.writeable = False
        if len(column) and not column.min() >= 0:
            bad = float(column[~(column >= 0)][0])
            raise ValueError(f"epsilon must be non-negative, got {bad!r}")
        return column

    @staticmethod
    def fits(epsilon: Epsilons, totals: Iterable[float], capacity: float) -> bool:
        """Whether ``epsilon`` (one ε′ or a column), folded onto each of
        ``totals``, stays within ``capacity``
        (:func:`~repro.records.fold_capped`).  A lone ε′ is checked at
        once, a column's rows when they are charged."""
        column = epsilon
        if isinstance(column, (int, float)):
            column = ChargeBook.column(column)
        for total in totals:
            if fold_capped(column, total, capacity) is None:
                return False
        return True

    def spent(self, key: Hashable) -> float:
        """The running total of ``key``'s charges."""
        return self.totals.get(key, 0.0)

    def charge(
        self,
        keys: Sequence[Hashable],
        epsilons: "Union[Sequence[float], npt.NDArray[np.float64]]",
        labels: Sequence[str],
        capacity: float = float("inf"),
    ) -> Optional[int]:
        """Book ``epsilons`` (with their parallel ``labels``) under every
        key, each folded onto the key's running total -- unless that fold
        exceeds ``capacity`` on a key (:func:`~repro.records.fold_capped`):
        then nothing is booked and that key's position is returned.

        No charges book nothing and leave no trace of the keys.
        """
        if len(epsilons) != len(labels):
            raise ValueError("epsilons and labels must be parallel lists")
        column = ChargeBook.column(epsilons)
        if not len(column):
            return None
        totals: List[float] = []
        for key in keys:
            total = fold_capped(column, self.spent(key), capacity)
            if total is None:
                return len(totals)
            totals.append(total)
        if not isinstance(labels, (tuple, LabelColumn)):
            labels = tuple(labels)  # a caller's list may change later
        for key, total in zip(keys, totals):
            self.chunks.setdefault(key, []).append((column, labels))
            self.totals[key] = total
        return None

    def entries(self, key: Hashable) -> Iterator[Tuple[str, float]]:
        """``(label, ε′)`` of each of ``key``'s charges, in charge order."""
        for column, labels in self.chunks.get(key, ()):
            yield from zip(labels, column.tolist())

    def pop(self, key: Hashable) -> float:
        """Forget ``key``'s charges; returns their total."""
        self.chunks.pop(key, None)
        return self.totals.pop(key, 0.0)


@dataclass(eq=False)
class BudgetAccountant:
    """Per-dataset sequential-composition ε ledger.

    The charges live in a :class:`ChargeBook` keyed by dataset, so
    :meth:`spent` is O(1); the :class:`BudgetEntry` views of
    :meth:`history` are built on read.

    Parameters
    ----------
    capacity:
        Maximum cumulative ε′ allowed per dataset key.  ``float('inf')``
        (the default) disables enforcement but still records spending, which
        is how the experiment harness audits total leakage.
    """

    capacity: float = float("inf")
    _book: ChargeBook = field(default_factory=ChargeBook, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")

    def spent(self, dataset: str) -> float:
        """Total ε′ spent so far against ``dataset``.

        O(1): the running left fold of the history in charge order.
        """
        return self._book.spent(dataset)

    def remaining(self, dataset: str) -> float:
        """Budget headroom left for ``dataset``."""
        return self.capacity - self.spent(dataset)

    def can_afford(
        self, dataset: str, epsilon: Epsilons, total: Optional[float] = None
    ) -> bool:
        """Whether charging ``epsilon`` (one ε′ or a column) would fit.

        It fits when its left fold onto ``total`` -- the dataset's
        running total, or the one the charges admitted before it will
        leave -- is within :attr:`capacity`, exactly as
        :meth:`charge_many` decides (:func:`~repro.records.fold_capped`).
        """
        spent = self.spent(dataset) if total is None else total
        return ChargeBook.fits(epsilon, [spent], self.capacity)

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
        whose labels are formatted only when read).  The entries land in
        ``history`` in order and fold into the running total one by one,
        exactly as repeated :meth:`charge` calls would; the charge fits
        when that fold is within :attr:`capacity` (one check, which is
        what makes the broker's batched trading path cheap).

        Raises
        ------
        PrivacyBudgetExceededError
            If the combined charge would push the dataset past
            :attr:`capacity`; nothing is recorded in that case.
        """
        if self._book.charge([dataset], epsilons, labels, self.capacity) is not None:
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={fold(epsilons):.6g} in bulk "
                f"would exceed capacity {self.capacity:.6g} (already spent "
                f"{self.spent(dataset):.6g})"
            )
        return self.spent(dataset)

    def history(self, dataset: str) -> Tuple[BudgetEntry, ...]:
        """Immutable view of the expenditures recorded for ``dataset``."""
        return tuple(
            BudgetEntry(label, epsilon)
            for label, epsilon in self._book.entries(dataset)
        )

    def datasets(self) -> Tuple[str, ...]:
        """Dataset keys with at least one recorded expenditure."""
        return tuple(self._book.chunks)

    def reset(self, dataset: str) -> None:
        """Forget all spending for ``dataset`` (e.g. after data rotation)."""
        self._book.pop(dataset)
