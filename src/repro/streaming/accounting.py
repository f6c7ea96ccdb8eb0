"""Per-epoch privacy budgeting with expiry: bounded steady-state spend.

A one-shot broker composes every release against one per-dataset ε ledger
(:class:`~repro.privacy.budget.BudgetAccountant`), so a long-lived stream
would exhaust any finite capacity and then refuse service forever.  The
streaming subsystem budgets **per epoch** instead: every record lives in
exactly one epoch (epochs are half-open, see
:mod:`repro.datasets.streams`), so a window release that covers epochs
``E`` degrades each record's privacy by at most the ε′ charged to *its*
epoch -- per-record leakage is the per-epoch ledger total, not the sum
over the stream.

:class:`EpochBudgetAccountant` therefore keeps one sequential-composition
ledger per ``(dataset, epoch)``.  A window release charges its ε′ to every
epoch the window covers (the release reveals information about each of
them); when an epoch leaves the window it can never be queried again, so
:meth:`expire_before` retires its ledger and *reclaims* the budget --
steady-state spend is bounded by ``window_epochs × capacity`` no matter
how many epochs the stream processes.

This module is in the strict-mypy scope (CI lint job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.errors import PrivacyBudgetExceededError, StreamingError
from repro.privacy.budget import BudgetEntry, ChargeBook, Epsilons
from repro.records import fold

__all__ = ["EpochBudgetAccountant", "EpochCharge"]


#: One recorded expenditure against one epoch's ledger.
EpochCharge = BudgetEntry


@dataclass
class EpochBudgetAccountant:
    """Per-``(dataset, epoch)`` sequential-composition ε ledgers with expiry.

    The ledgers are one :class:`~repro.privacy.budget.ChargeBook` keyed
    by ``(dataset, epoch)``, so :meth:`spent` is O(1).

    Parameters
    ----------
    capacity:
        Maximum cumulative ε′ per ``(dataset, epoch)`` ledger -- the bound
        on any single record's lifetime leakage, since a record belongs to
        exactly one epoch.  ``float('inf')`` (default) disables
        enforcement but still records spending for audits.
    """

    capacity: float = float("inf")
    _book: ChargeBook = field(default_factory=ChargeBook, repr=False)
    _floor: Dict[str, int] = field(default_factory=dict)
    _reclaimed: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")

    # ------------------------------------------------------------------
    # spend queries
    # ------------------------------------------------------------------
    def spent(self, dataset: str, epoch: int) -> float:
        """Cumulative ε′ charged to one epoch's ledger (0 once expired)."""
        return self._book.spent((dataset, epoch))

    def window_spent(self, dataset: str, epochs: Sequence[int]) -> float:
        """Per-record leakage bound over a window: the *max* epoch ledger.

        A record lives in exactly one epoch, so the worst-off record's
        cumulative ε is the largest per-epoch total, not the sum.
        """
        if not epochs:
            return 0.0
        return max(self.spent(dataset, epoch) for epoch in epochs)

    def live_total(self, dataset: str) -> float:
        """Σ ε over all live (non-expired) epoch ledgers of ``dataset``.

        Bounded by ``live-epoch count × capacity`` -- the quantity the
        acceptance bench asserts does not grow with stream length.
        """
        return float(sum(self._live(dataset).values()))

    def live_epochs(self, dataset: str) -> Tuple[int, ...]:
        """Epoch indexes of ``dataset`` with a live, non-empty ledger."""
        return tuple(sorted(self._live(dataset)))

    def _live(self, dataset: str) -> Dict[int, float]:
        """Each live, non-empty epoch ledger's total, in first-charge order."""
        floor = self._floor.get(dataset, 0)
        return {
            epoch: total for (name, epoch), total in self._book.totals.items()
            if name == dataset and epoch >= floor
        }

    def reclaimed(self, dataset: str) -> float:
        """Total ε reclaimed by expiry so far (audit counter)."""
        return self._reclaimed.get(dataset, 0.0)

    def remaining(self, dataset: str, epoch: int) -> float:
        """Headroom left in one epoch's ledger."""
        return self.capacity - self.spent(dataset, epoch)

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def can_afford(
        self,
        dataset: str,
        epochs: Sequence[int],
        epsilon: Epsilons,
        totals: Optional[Sequence[float]] = None,
    ) -> bool:
        """Whether charging ``epsilon`` (one ε′ or a column) to *every*
        epoch in ``epochs`` fits.

        It fits an epoch when its left fold onto the epoch's running
        total -- or onto ``totals``, one per epoch: the totals the charges
        admitted before it will leave -- is within :attr:`capacity`,
        exactly as :meth:`charge_many` decides.
        """
        if totals is None:
            totals = [self.spent(dataset, epoch) for epoch in epochs]
        return ChargeBook.fits(epsilon, totals, self.capacity)

    def charge_window(
        self,
        dataset: str,
        epochs: Sequence[int],
        epsilon: float,
        label: str = "query",
    ) -> float:
        """Charge one window release's ε′ to every covered epoch.

        A one-row :meth:`charge_many`.
        """
        return self.charge_many(dataset, epochs, [epsilon], [label])

    def charge_many(
        self,
        dataset: str,
        epochs: Sequence[int],
        epsilons: "Union[Sequence[float], npt.NDArray[np.float64]]",
        labels: Sequence[str],
    ) -> float:
        """Charge several window releases' ε′ to every covered epoch.

        ``epsilons`` and ``labels`` are parallel; each epoch's ledger
        folds them in one by one, exactly as repeated
        :meth:`charge_window` calls would.  Atomic: affordability is
        checked for all epochs before any ledger mutates.  Charging an
        expired epoch is a programming error -- the broker must never
        answer over epochs that left the window.  Returns the
        post-charge :meth:`window_spent`.
        """
        if not epochs:
            raise ValueError("a window charge needs at least one epoch")
        floor = self._floor.get(dataset, 0)
        expired = [epoch for epoch in epochs if epoch < floor]
        if expired:
            raise StreamingError(
                f"dataset {dataset!r}: epochs {expired} are expired "
                f"(floor is {floor}); refusing to charge a dead ledger"
            )
        keys = [(dataset, epoch) for epoch in epochs]
        worst = self._book.charge(keys, epsilons, labels, self.capacity)
        if worst is not None:
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={fold(epsilons):.6g} to epoch "
                f"{epochs[worst]} would exceed per-epoch capacity "
                f"{self.capacity:.6g} (already spent "
                f"{self.spent(dataset, epochs[worst]):.6g})"
            )
        return self.window_spent(dataset, epochs)

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    def expire_before(self, dataset: str, epoch: int) -> float:
        """Retire every epoch ledger below ``epoch``; returns ε reclaimed.

        Idempotent and monotone: the floor only moves forward.  Called on
        every window roll with the new floor epoch, so the live ledger set
        tracks exactly the epochs the window can still answer over.
        """
        floor = max(self._floor.get(dataset, 0), epoch)
        self._floor[dataset] = floor
        dead = [
            key for key in self._book.totals
            if key[0] == dataset and key[1] < floor
        ]
        reclaimed = fold([self._book.pop(key) for key in dead])
        if reclaimed:
            self._reclaimed[dataset] = (
                self._reclaimed.get(dataset, 0.0) + reclaimed
            )
        return reclaimed

    def floor(self, dataset: str) -> int:
        """First epoch whose ledger is still chargeable."""
        return self._floor.get(dataset, 0)

    def history(
        self, dataset: str, epoch: int
    ) -> Tuple[EpochCharge, ...]:
        """Immutable view of one epoch ledger's recorded charges."""
        return tuple(
            EpochCharge(label, epsilon)
            for label, epsilon in self._book.entries((dataset, epoch))
        )

    def datasets(self) -> Tuple[str, ...]:
        """Dataset keys with at least one live or historical ledger."""
        names = {key[0] for key in self._book.totals}
        names.update(self._floor)
        return tuple(sorted(names))
