"""The overload drill: chaos invariants plus deadline + rung honesty.

:class:`OverloadHarness` runs a standard :class:`~repro.chaos.harness.
ChaosHarness` schedule (typically one heavy on ``slow_shard`` /
``clock_jump`` / ``brownout_level`` events) and then
audits two further end-to-end resilience invariants on the same run
evidence:

4. **No post-deadline release.**  The gateway's ``post_deadline_release``
   detector stayed at zero: every answer that went out was released
   before its deadline, and every expiry turned into a typed
   :class:`~repro.errors.DeadlineExceededError` *before* any billing or
   ε′ spend.
5. **Rung honesty.**  For every resolved answer, the ``(α, δ)`` the
   consumer received is exactly the contract that was planned, billed,
   and journaled: the ledger transaction behind ``transaction_id``
   matches the delivered spec, price, and ε′ bit-for-bit; brownout rungs
   carry the original request in ``requested_spec`` and their delivered
   spec matches the ladder's published widening/degradation math; and
   shard-degraded cluster answers report the
   :func:`~repro.cluster.planning.degraded_delta` value for their
   failover count.

Both invariants are *checked against the books*, not against the
gateway's own claims — an answer whose delivered spec diverges from its
ledger row fails the drill even if every counter looks healthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.harness import ChaosHarness, ChaosReport
from repro.core.query import PrivateAnswer
from repro.errors import BrownoutShedError, DeadlineExceededError

__all__ = ["OverloadReport", "OverloadHarness"]

#: Exact-match tolerance for per-answer float comparisons.  Delivered
#: specs are produced by one arithmetic path and re-checked through the
#: same expressions, so equality is exact; this guards only repr/float64
#: round-trips through ledger snapshots.
_EXACT_TOL = 0.0


@dataclass(frozen=True)
class OverloadReport:
    """The base chaos report plus the two overload invariants."""

    base: ChaosReport
    deadline_exceeded: int
    post_deadline_releases: int
    sheds: int
    deadline_failures: int
    brownout_answers: "Dict[str, int]"
    hedges_fired: int
    hedges_won: int
    breaker_bypasses: int
    invariant_no_post_deadline_release: bool
    invariant_rung_honesty: bool
    failures: "Tuple[str, ...]"

    @property
    def all_passed(self) -> bool:
        """Whether all five drill invariants held (three base + two here)."""
        return (
            self.base.all_passed
            and self.invariant_no_post_deadline_release
            and self.invariant_rung_honesty
        )

    @property
    def checksum(self) -> str:
        """The base run checksum (rungs and delivered specs included)."""
        return self.base.checksum

    def to_payload(self) -> "Dict[str, Any]":
        payload = self.base.to_payload()
        payload["overload"] = {
            "deadline_exceeded": self.deadline_exceeded,
            "post_deadline_releases": self.post_deadline_releases,
            "sheds": self.sheds,
            "deadline_failures": self.deadline_failures,
            "brownout_answers": dict(self.brownout_answers),
            "hedges_fired": self.hedges_fired,
            "hedges_won": self.hedges_won,
            "breaker_bypasses": self.breaker_bypasses,
            "invariants": {
                "no_post_deadline_release":
                    self.invariant_no_post_deadline_release,
                "rung_honesty": self.invariant_rung_honesty,
            },
            "failures": list(self.failures),
        }
        payload["all_passed"] = self.all_passed
        return payload


class OverloadHarness(ChaosHarness):
    """A chaos harness that additionally audits overload honesty.

    Same construction contract as :class:`ChaosHarness`; the gateway
    should carry a ``request_ttl`` (deadline invariant engages) and a
    :class:`~repro.resilience.brownout.BrownoutController` (rung
    invariant has rungs to check) — both invariants hold vacuously on a
    stack without them.
    """

    def run(self) -> OverloadReport:  # type: ignore[override]
        base = super().run()
        return self._overload_audit(base)

    # ------------------------------------------------------------------ #
    # audit                                                              #
    # ------------------------------------------------------------------ #
    def _overload_audit(self, base: ChaosReport) -> OverloadReport:
        failures: "List[str]" = []
        counters = self.gateway.telemetry.snapshot().get("counters", {})
        resolved = self._last_resolved
        failed = self._last_failed

        # Invariant 4: the gateway's release-time detector stayed zero.
        post_deadline = int(counters.get("gateway.post_deadline_release", 0))
        inv_deadline = post_deadline == 0
        if not inv_deadline:
            failures.append(
                f"{post_deadline} answer(s) released after their deadline "
                "(gateway.post_deadline_release detector fired)"
            )

        # Invariant 5: per-answer rung honesty against the ledger.
        inv_honesty = True
        txns: "Dict[int, Dict[str, Any]]" = {
            txn["transaction_id"]: txn
            for txn in self.gateway.broker.ledger.snapshot()["transactions"]
        }
        rung_counts: "Dict[str, int]" = {}
        for entry, answer in resolved:
            rung_counts[answer.brownout_rung] = (
                rung_counts.get(answer.brownout_rung, 0) + 1
            )
            problem = self._check_answer(entry, answer, txns)
            if problem is not None:
                inv_honesty = False
                failures.append(f"step {entry.step}: {problem}")

        sheds = sum(
            1 for _, exc in failed if isinstance(exc, BrownoutShedError)
        )
        deadline_failures = sum(
            1 for _, exc in failed if isinstance(exc, DeadlineExceededError)
        )
        hedging = getattr(self.gateway.broker, "hedging", None)
        return OverloadReport(
            base=base,
            deadline_exceeded=int(
                counters.get("gateway.deadline_exceeded", 0)
            ),
            post_deadline_releases=post_deadline,
            sheds=sheds,
            deadline_failures=deadline_failures,
            brownout_answers=rung_counts,
            hedges_fired=getattr(hedging, "hedges_fired", 0),
            hedges_won=getattr(hedging, "hedges_won", 0),
            breaker_bypasses=int(sum(
                count for name, count in counters.items()
                if name.startswith("cluster.shard")
                and name.endswith(".breaker_bypasses")
            )),
            invariant_no_post_deadline_release=inv_deadline,
            invariant_rung_honesty=inv_honesty,
            failures=tuple(failures),
        )

    def _check_answer(
        self,
        entry: Any,
        answer: PrivateAnswer,
        txns: "Dict[int, Dict[str, Any]]",
    ) -> "Optional[str]":
        """One resolved answer's honesty problems (``None`` when clean)."""
        rung = answer.brownout_rung
        requested = entry.spec

        # (a) Ledger row matches the delivered contract bit-for-bit.
        txn = txns.get(answer.transaction_id)
        if txn is None:
            return (
                f"answer carries transaction_id={answer.transaction_id!r} "
                "with no matching ledger row"
            )
        expected_epsilon = (
            0.0 if rung == "cache" else answer.plan.epsilon_prime
        )
        for field, delivered in (
            ("alpha", answer.spec.alpha),
            ("delta", answer.spec.delta),
            ("price", answer.price),
            ("epsilon_prime", expected_epsilon),
        ):
            if abs(txn[field] - delivered) > _EXACT_TOL:
                return (
                    f"ledger txn {answer.transaction_id} {field}="
                    f"{txn[field]!r} but the delivered answer says "
                    f"{delivered!r} (rung {rung!r})"
                )

        # (b) The rung's spec transformation is the published one.
        brownout = self.gateway.brownout
        if rung == "none":
            if answer.requested_spec is not None:
                return (
                    "rung 'none' answer carries requested_spec="
                    f"{answer.requested_spec!r} (provenance must only "
                    "diverge on a degraded rung)"
                )
            if answer.spec != requested:
                return (
                    f"rung 'none' delivered {answer.spec!r} for requested "
                    f"{requested!r}"
                )
        elif rung == "cache":
            # A replay re-delivers the cached contract verbatim at ε = 0.
            if answer.spec != requested:
                return (
                    f"cache replay delivered {answer.spec!r} for requested "
                    f"{requested!r}"
                )
        elif rung in ("widen_alpha", "degrade_delta"):
            if brownout is None:
                return f"rung {rung!r} answer but the gateway has no ladder"
            if answer.requested_spec != requested:
                return (
                    f"rung {rung!r} answer's requested_spec="
                    f"{answer.requested_spec!r} does not echo the request "
                    f"{requested!r}"
                )
            config = brownout.config
            want_alpha = min(
                max(requested.alpha * config.widen_factor, requested.alpha),
                max(config.alpha_max, requested.alpha),
            )
            want_delta = requested.delta
            if rung == "degrade_delta":
                want_delta = requested.delta * config.delta_confidence
            if (
                abs(answer.spec.alpha - want_alpha) > _EXACT_TOL
                or abs(answer.spec.delta - want_delta) > _EXACT_TOL
            ):
                return (
                    f"rung {rung!r} delivered spec ({answer.spec.alpha!r}, "
                    f"{answer.spec.delta!r}) but the ladder math says "
                    f"({want_alpha!r}, {want_delta!r})"
                )
        else:
            return f"unknown brownout rung {rung!r} on a released answer"

        # (c) Shard-degraded cluster answers report the honest δ.
        degraded_shards = getattr(answer, "degraded_shards", None)
        if degraded_shards:
            from repro.cluster.planning import degraded_delta

            want = degraded_delta(
                answer.spec.delta,
                len(degraded_shards),
                self.gateway.broker.replica_confidence,
            )
            reported = getattr(answer, "delta_reported", None)
            if reported is None or abs(reported - want) > _EXACT_TOL:
                return (
                    f"{len(degraded_shards)} degraded shard(s) but "
                    f"delta_reported={reported!r}; honest reporting "
                    f"requires {want!r}"
                )
        return None
