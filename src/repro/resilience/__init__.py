"""Cross-layer overload resilience for the trading pipeline.

The serving gateway admits requests against an ``(α, δ)`` contract, but
the contract is only worth anything if the answer arrives while the
consumer still wants it.  This package holds the four mechanisms that
keep the marketplace honest under overload:

``deadline``
    A per-request :class:`~repro.resilience.deadline.Deadline` carried
    from ``ServingGateway.submit`` through the cluster/streaming fan-out
    into the settlement kernel, so every layer can fail fast *before*
    billing or spending ε.
``breaker``
    Per-shard circuit breakers (closed / open / half-open) driven by
    rolling error and latency windows, so a limping shard is cut out and
    probed instead of dragging every batch's p99.
``hedging``
    Latency-percentile hedging of straggler shard reads; a lane only
    reads samples, so the losing lane is dropped with no effect on RNG,
    books, or journal.
``brownout``
    A privacy-honest degradation ladder: cache-only ε=0 replays → widen
    α within the tier band (cheaper ε′, priced accordingly) → degrade
    reported δ → shed with a typed retry-after.  Every rung is metered
    and the delivered ``(α, δ)`` is the one reported and billed.
"""

from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.brownout import (
    BrownoutConfig,
    BrownoutController,
    BrownoutDecision,
    OverloadSignals,
)
from repro.resilience.deadline import (
    Deadline,
    ManualClock,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.hedging import HedgePolicy

__all__ = [
    "Deadline",
    "ManualClock",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "CircuitBreaker",
    "BreakerConfig",
    "HedgePolicy",
    "BrownoutController",
    "BrownoutConfig",
    "BrownoutDecision",
    "OverloadSignals",
]
