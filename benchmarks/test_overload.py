"""Overload benchmark: breakers + hedging vs naive fan-out on a limping shard.

The resilience acceptance claim: with one shard's ingress path limping
at 10x its healthy median latency, the circuit-breaker + hedged
sub-query path cuts tail latency (p99) by >=2x against the naive
fan-out that waits out the limp on every request -- while producing the
*bit-identical* answer stream (same seeds, same noise draws, same books)
because both the bypass lane and the hedge retry run the very same
shard broker.

Method: twin 2-shard clusters from the same seed answer the same
single-query request stream.  A warmup phase runs healthy (it also
calibrates hedge percentiles and the limp magnitude: 10x the naive
stack's measured healthy p50); then shard 0 starts limping and the
measured phase runs.  Latency percentiles are nearest-rank over the
measured phase only.

Set ``REPRO_BENCH_SMOKE=1`` to skip the timing assertion (CI timing is
noisy); checksum identity and zero drift are asserted in every mode.
"""

from __future__ import annotations

import hashlib
import os
import time

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.metrics import make_workload
from repro.cluster.broker import ClusterBroker
from repro.cluster.health import ShardBreakerBoard
from repro.core.query import AccuracySpec, RangeQuery
from repro.serving.telemetry import MetricsRegistry
from repro.resilience import HedgePolicy
from repro.resilience.breaker import BreakerConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SEED = 31
SHARDS = 2
TIERS = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.6),
    AccuracySpec(alpha=0.2, delta=0.5),
)
WARMUP = 24 if SMOKE else 48
MEASURED = 60 if SMOKE else 160
#: Floor on the injected limp so the sleep dominates timer resolution.
MIN_LIMP_S = 0.02


def _build(values) -> ClusterBroker:
    broker = ClusterBroker.from_values(
        values, k=DEVICE_COUNT, shards=SHARDS, seed=SEED
    )
    broker.telemetry = MetricsRegistry()
    target = max(broker.planner.required_rate(spec) for spec in set(TIERS))
    broker.ensure_rate(target)
    return broker


def _request_stream(values):
    ranges = list(make_workload(values, num_queries=16, seed=SEED).ranges)
    stream = []
    for i in range(WARMUP + MEASURED):
        low, high = ranges[i % len(ranges)]
        stream.append((low, high, TIERS[i % len(TIERS)]))
    return stream


def _percentile(latencies, q: float) -> float:
    """Nearest-rank percentile (the loadgen convention)."""
    ordered = sorted(latencies)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def _run(broker: ClusterBroker, stream, limp_s: "float | None"):
    """Answer the stream one request at a time; limp shard 0 after warmup.

    Returns ``(warmup_latencies, measured_latencies, answers)``.  When
    ``limp_s`` is None (the calibration run) the limp is set after the
    fact by the caller from the measured healthy p50.
    """
    warmup_lat, measured_lat, answers = [], [], []
    for i, (low, high, spec) in enumerate(stream):
        if i == WARMUP and limp_s is not None:
            broker.shards[0].injected_latency = limp_s
        started = time.perf_counter()
        answer = broker.answer_batch(
            [RangeQuery(low=low, high=high)], [spec], consumer="bench"
        )[0]
        elapsed = time.perf_counter() - started
        (warmup_lat if i < WARMUP else measured_lat).append(elapsed)
        answers.append(answer)
    return warmup_lat, measured_lat, answers


def _checksum(answers) -> str:
    digest = hashlib.sha256()
    for a in answers:
        digest.update(repr((
            a.query.low, a.query.high, a.spec.alpha, a.spec.delta,
            a.value, a.price, a.plan.epsilon_prime,
        )).encode())
    return digest.hexdigest()


def test_breakers_and_hedging_cut_tail_latency(
    citypulse, save_result, save_json
):
    values = citypulse.values("ozone")
    stream = _request_stream(values)

    # -- naive fan-out: every request waits out the limp ---------------
    naive = _build(values)
    # Calibrate the limp from this host's healthy medians: run warmup
    # first, then freeze the injected latency for both stacks.
    naive_warm, _, _ = _run(naive, stream[:WARMUP], limp_s=None)
    healthy_p50 = _percentile(naive_warm, 0.50)
    limp_s = max(10.0 * healthy_p50, MIN_LIMP_S)
    naive.shards[0].injected_latency = limp_s
    naive_measured, naive_answers = [], []
    for low, high, spec in stream[WARMUP:]:
        started = time.perf_counter()
        naive_answers.append(naive.answer_batch(
            [RangeQuery(low=low, high=high)], [spec], consumer="bench"
        )[0])
        naive_measured.append(time.perf_counter() - started)

    # -- resilient: breakers + hedging over the identical twin ---------
    resilient = _build(values)
    # Anything past 1.5x the healthy median is a bad mark: hedged
    # answers off the limping shard (~2.5-3x the median: trigger wait
    # plus the bypass answer) still count bad, so the breaker opens a
    # few requests into the limp and the bypass lane takes over.
    resilient.breakers = ShardBreakerBoard(BreakerConfig(
        window=16, failure_threshold=0.5, min_calls=4,
        latency_threshold=max(1.5 * healthy_p50, 0.002),
        cooldown=60.0,  # stays open for the rest of the run: no probes
    ))
    # Hedge off the rolling healthy median (a short window forgets the
    # cold-start outliers), so stragglers are cut at ~2x p50.
    resilient.hedging = HedgePolicy(
        window=32, quantile=0.5, multiplier=2.0, min_samples=8,
        floor=0.001,
    )
    resilient._hedge_pool()  # pre-warm: first-hedge spin-up is not the claim
    _, resilient_measured, resilient_all = _run(resilient, stream, limp_s)
    resilient_answers = resilient_all[WARMUP:]

    naive_p50 = _percentile(naive_measured, 0.50)
    naive_p99 = _percentile(naive_measured, 0.99)
    resilient_p50 = _percentile(resilient_measured, 0.50)
    resilient_p99 = _percentile(resilient_measured, 0.99)
    speedup = naive_p99 / resilient_p99

    # Identical bits: bypass and hedge lanes run the same shard broker
    # on the same seeded draws, so the limp never changes an answer.
    naive_sum = _checksum(naive_answers)
    resilient_sum = _checksum(resilient_answers)
    assert naive_sum == resilient_sum
    # Zero accounting drift between the two stacks.
    assert naive.accountant.spent(naive.dataset) == \
        resilient.accountant.spent(resilient.dataset)
    assert naive.ledger.total_revenue() == resilient.ledger.total_revenue()

    # The mechanisms actually engaged (the p99 win is not vacuous).
    hedges_fired = resilient.hedging.hedges_fired
    counters = resilient.telemetry.snapshot()["counters"]
    bypasses = sum(
        count for name, count in counters.items()
        if name.endswith(".breaker_bypasses")
    )
    opens = sum(
        b.open_count for b in resilient.breakers._breakers.values()
    )
    assert hedges_fired > 0 or bypasses > 0

    if not SMOKE:
        assert speedup >= 2.0, (
            f"breakers+hedging p99 {resilient_p99 * 1e3:.1f}ms vs naive "
            f"{naive_p99 * 1e3:.1f}ms: {speedup:.2f}x < 2x"
        )

    lines = [
        "overload benchmark (limping shard, single-query requests)",
        f"  requests measured         {MEASURED} (+{WARMUP} warmup)",
        f"  healthy p50               {healthy_p50 * 1e3:.2f}ms",
        f"  injected limp             {limp_s * 1e3:.2f}ms (shard 0)",
        f"  naive p50/p99             {naive_p50 * 1e3:.2f}ms / "
        f"{naive_p99 * 1e3:.2f}ms",
        f"  resilient p50/p99         {resilient_p50 * 1e3:.2f}ms / "
        f"{resilient_p99 * 1e3:.2f}ms",
        f"  p99 speedup               {speedup:.2f}x",
        f"  hedges fired/won          {hedges_fired}/"
        f"{resilient.hedging.hedges_won}",
        f"  breaker opens/bypasses    {opens}/{int(bypasses)}",
        f"  checksums identical       {naive_sum == resilient_sum}",
    ]
    save_result("overload", "\n".join(lines))
    save_json("overload", {
        "requests": MEASURED,
        "warmup": WARMUP,
        "shards": SHARDS,
        "seed": SEED,
        "healthy_p50_s": healthy_p50,
        "injected_limp_s": limp_s,
        "naive": {"p50_s": naive_p50, "p99_s": naive_p99},
        "resilient": {"p50_s": resilient_p50, "p99_s": resilient_p99},
        "p99_speedup": speedup,
        "hedges_fired_total": hedges_fired,
        "hedges_won_total": resilient.hedging.hedges_won,
        "breaker_opens_total": opens,
        "breaker_bypasses_total": bypasses,
        "checksum": naive_sum,
        "checksums_equal": naive_sum == resilient_sum,
        "epsilon_spent": naive.accountant.spent(naive.dataset),
        "revenue": naive.ledger.total_revenue(),
        "smoke": SMOKE,
    })
