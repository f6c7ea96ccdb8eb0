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
from typing import Dict, List, Sequence, Tuple

from repro.errors import PrivacyBudgetExceededError, StreamingError
from repro.privacy.composition import sequential_composition

__all__ = ["EpochBudgetAccountant", "EpochCharge"]


@dataclass(frozen=True)
class EpochCharge:
    """One recorded expenditure against one epoch's ledger."""

    label: str
    epsilon: float


@dataclass
class EpochBudgetAccountant:
    """Per-``(dataset, epoch)`` sequential-composition ε ledgers with expiry.

    Parameters
    ----------
    capacity:
        Maximum cumulative ε′ per ``(dataset, epoch)`` ledger -- the bound
        on any single record's lifetime leakage, since a record belongs to
        exactly one epoch.  ``float('inf')`` (default) disables
        enforcement but still records spending for audits.
    """

    capacity: float = float("inf")
    _spent: Dict[Tuple[str, int], List[EpochCharge]] = field(
        default_factory=dict
    )
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
        entries = self._spent.get((dataset, epoch), [])
        if not entries:
            return 0.0
        return sequential_composition([e.epsilon for e in entries])

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
        floor = self._floor.get(dataset, 0)
        return float(
            sum(
                sequential_composition([e.epsilon for e in entries])
                for (name, epoch), entries in self._spent.items()
                if name == dataset and epoch >= floor and entries
            )
        )

    def live_epochs(self, dataset: str) -> Tuple[int, ...]:
        """Epoch indexes of ``dataset`` with a live, non-empty ledger."""
        floor = self._floor.get(dataset, 0)
        return tuple(
            sorted(
                epoch
                for (name, epoch), entries in self._spent.items()
                if name == dataset and epoch >= floor and entries
            )
        )

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
        epsilon: float,
        pending: Sequence[float] = (),
    ) -> bool:
        """Whether charging ``epsilon`` to *every* epoch in ``epochs`` fits.

        ``pending`` are window charges already admitted but not yet
        recorded; each epoch's total counts them as if charged first.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        return all(
            self._spent_with(dataset, epoch, pending) + epsilon
            <= self.capacity + 1e-12
            for epoch in epochs
        )

    def _spent_with(
        self, dataset: str, epoch: int, pending: Sequence[float]
    ) -> float:
        if not pending:
            return self.spent(dataset, epoch)
        entries = self._spent.get((dataset, epoch), [])
        return sequential_composition(
            [e.epsilon for e in entries] + list(pending)
        )

    def charge_window(
        self,
        dataset: str,
        epochs: Sequence[int],
        epsilon: float,
        label: str = "query",
    ) -> float:
        """Charge one window release's ε′ to every covered epoch.

        Atomic: affordability is checked for all epochs before any ledger
        mutates.  Charging an expired epoch is a programming error -- the
        broker must never answer over epochs that left the window.
        Returns the post-charge :meth:`window_spent`.
        """
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not epochs:
            raise ValueError("a window charge needs at least one epoch")
        floor = self._floor.get(dataset, 0)
        expired = [epoch for epoch in epochs if epoch < floor]
        if expired:
            raise StreamingError(
                f"dataset {dataset!r}: epochs {expired} are expired "
                f"(floor is {floor}); refusing to charge a dead ledger"
            )
        if not self.can_afford(dataset, epochs, epsilon):
            worst = max(epochs, key=lambda e: self.spent(dataset, e))
            raise PrivacyBudgetExceededError(
                f"dataset {dataset!r}: charging ε={epsilon:.6g} to epoch "
                f"{worst} would exceed per-epoch capacity "
                f"{self.capacity:.6g} (already spent "
                f"{self.spent(dataset, worst):.6g})"
            )
        for epoch in epochs:
            self._spent.setdefault((dataset, epoch), []).append(
                EpochCharge(label, epsilon)
            )
        return self.window_spent(dataset, list(epochs))

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
        reclaimed = 0.0
        dead = [
            key
            for key in self._spent
            if key[0] == dataset and key[1] < floor
        ]
        for key in dead:
            entries = self._spent.pop(key)
            if entries:
                reclaimed += sequential_composition(
                    [e.epsilon for e in entries]
                )
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
        return tuple(self._spent.get((dataset, epoch), ()))

    def datasets(self) -> Tuple[str, ...]:
        """Dataset keys with at least one live or historical ledger."""
        names = {key[0] for key in self._spent}
        names.update(self._floor)
        return tuple(sorted(names))
