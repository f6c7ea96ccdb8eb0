"""Broker admission policies: who may buy what, and how much.

A benefit-concerned broker (Section II-B's phrase) does more than price
correctly -- it gates requests.  :class:`BrokerPolicy` bundles the
admission rules a production deployment needs:

* **spec bounds** -- refuse products stricter than the fleet can ever
  serve (α below ``min_alpha``) or looser than worth selling;
* **per-consumer privacy caps** -- bound the cumulative ε′ any single
  consumer can extract, independent of the dataset-wide accountant
  (defense in depth against one identity draining the budget);
* **per-consumer purchase caps** -- a crude but effective damper on the
  repeated-purchase behaviour every averaging attack needs.

The policy is consulted by :class:`~repro.core.broker.DataBroker` before
any data is touched; a refusal raises :class:`PolicyViolationError` and
charges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np
import numpy.typing as npt

from repro.core.query import AccuracySpec
from repro.errors import ReproError
from repro.privacy.budget import ChargeBook, Epsilons
from repro.records import DispatchRecord, fold_capped

__all__ = ["PolicyViolationError", "BrokerPolicy"]


class PolicyViolationError(ReproError):
    """A request was refused by the broker's admission policy."""


@dataclass
class BrokerPolicy:
    """Configurable admission rules, all disabled by default.

    Parameters
    ----------
    min_alpha, max_alpha:
        Sellable tolerance band; requests outside are refused.
    min_delta, max_delta:
        Sellable confidence band.
    max_epsilon_per_consumer:
        Cap on cumulative ε′ released to one consumer.
    max_purchases_per_consumer:
        Cap on the number of answers sold to one consumer.
    """

    min_alpha: float = 0.0
    max_alpha: float = 1.0
    min_delta: float = 0.0
    max_delta: float = 1.0
    max_epsilon_per_consumer: float = float("inf")
    max_purchases_per_consumer: int = 2**63 - 1

    _epsilon_spent: Dict[str, float] = field(default_factory=dict)
    _purchases: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_alpha <= self.max_alpha <= 1.0:
            raise ValueError("need 0 <= min_alpha <= max_alpha <= 1")
        if not 0.0 <= self.min_delta <= self.max_delta <= 1.0:
            raise ValueError("need 0 <= min_delta <= max_delta <= 1")
        if self.max_epsilon_per_consumer < 0:
            raise ValueError("max_epsilon_per_consumer must be non-negative")
        if self.max_purchases_per_consumer < 0:
            raise ValueError("max_purchases_per_consumer must be non-negative")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self, consumer: str, spec: AccuracySpec, pending: int = 0
    ) -> None:
        """Raise :class:`PolicyViolationError` unless the request may run.

        A one-row :meth:`admit_batch`: ``pending`` counts purchases by
        ``consumer`` already admitted but not yet settled (earlier rows of
        the same settlement call).
        """
        self.admit_batch(consumer, [spec], pending)

    def admit_batch(
        self, consumer: str, specs: "list[AccuracySpec]", pending: int = 0
    ) -> None:
        """Admit a whole batch atomically, or refuse it before any release.

        Spec-band checks run once per distinct ``(α, δ)`` tier, and the
        purchase cap is checked against the *entire* batch size -- a batch
        that could not finish under per-query admission is refused up
        front, so a batched trade never half-completes.  ``pending`` is
        as for :meth:`admit`.
        """
        seen: "set[tuple[float, float]]" = set()
        # Rows share a few tier objects: check each object once.
        for spec in {id(spec): spec for spec in specs}.values():
            key = (spec.alpha, spec.delta)
            if key in seen:
                continue
            seen.add(key)
            if not self.min_alpha <= spec.alpha <= self.max_alpha:
                raise PolicyViolationError(
                    f"alpha={spec.alpha} outside sellable band "
                    f"[{self.min_alpha}, {self.max_alpha}]"
                )
            if not self.min_delta <= spec.delta <= self.max_delta:
                raise PolicyViolationError(
                    f"delta={spec.delta} outside sellable band "
                    f"[{self.min_delta}, {self.max_delta}]"
                )
        purchases = self._purchases.get(consumer, 0) + pending
        if purchases + len(specs) > self.max_purchases_per_consumer:
            raise PolicyViolationError(
                f"consumer {consumer!r} cannot buy {len(specs)} more answers "
                f"under the purchase cap ({self.max_purchases_per_consumer}, "
                f"{purchases} already bought)"
            )

    def can_release(self, consumer: str, epsilon_prime: Epsilons) -> bool:
        """Whether releasing ``epsilon_prime`` (one ε′ or a column) to
        ``consumer`` fits the cap: its left fold onto the consumer's
        running total, as :meth:`settle_many` records it, is within it."""
        spent = self._epsilon_spent.get(consumer, 0.0)
        return ChargeBook.fits(epsilon_prime, [spent], self.max_epsilon_per_consumer)

    def settle(self, consumer: str, epsilon_prime: float) -> None:
        """Record a completed release against the consumer's caps.

        Raises
        ------
        PolicyViolationError
            If the release would overshoot the consumer's ε′ cap; callers
            must check :meth:`can_release` *before* producing the answer.
        """
        if epsilon_prime < 0:
            raise ValueError("epsilon_prime must be non-negative")
        self._settle([(consumer, np.array([epsilon_prime]))])

    def settle_many(self, record: DispatchRecord) -> None:
        """Record every row of a dispatch record against its consumer's caps.

        Each consumer's ε′ is folded row by row in record order
        (:func:`~repro.records.fold`), bit-equal to one :meth:`settle` per
        row, and every row counts one purchase.  All consumers are
        checked before any is settled.
        """
        epsilons = record.epsilon_prime
        self._settle([
            (record.consumers[code], epsilons[rows])
            for code, rows in record.groups()
        ])

    def _settle(
        self, groups: "list[tuple[str, npt.NDArray[np.float64]]]"
    ) -> None:
        totals: Dict[str, float] = {}
        for consumer, epsilons in groups:
            total = fold_capped(
                epsilons,
                self._epsilon_spent.get(consumer, 0.0),
                self.max_epsilon_per_consumer,
            )
            if total is None:
                raise PolicyViolationError(
                    f"consumer {consumer!r} would exceed the per-consumer "
                    f"privacy cap {self.max_epsilon_per_consumer}"
                )
            totals[consumer] = total
        for consumer, epsilons in groups:
            self._epsilon_spent[consumer] = totals[consumer]
            self._purchases[consumer] = (
                self._purchases.get(consumer, 0) + len(epsilons)
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def epsilon_spent_by(self, consumer: str) -> float:
        """Cumulative ε′ released to one consumer."""
        return self._epsilon_spent.get(consumer, 0.0)

    def purchases_by(self, consumer: str) -> int:
        """Number of completed purchases by one consumer."""
        return self._purchases.get(consumer, 0)
