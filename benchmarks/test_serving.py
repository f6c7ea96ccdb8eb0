"""Serving gateway benchmark: concurrent trading throughput at paper scale.

The acceptance claim of the serving subsystem: ≥500 mixed-tier queries
from ≥4 concurrent consumers flow through the gateway with ledger and
accountant state exactly equal to the serial baseline, cache replays
consume zero additional ε, and end-to-end throughput beats the
per-request scalar ``service.answer`` loop by ≥5x.

Set ``REPRO_BENCH_SMOKE=1`` to run as a correctness smoke test without
timing assertions (the CI benchmark job does this); the run itself --
500 requests, 4 consumers -- is the same either way.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.metrics import make_workload
from repro.core.query import AccuracySpec
from repro.core.service import PrivateRangeCountingService
from repro.serving import ServingConfig, Workload, run_closed_loop

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

CONSUMERS = 4
REQUESTS_PER_CONSUMER = 125  # 500 total
TIERS = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.6),
    AccuracySpec(alpha=0.2, delta=0.5),
)
#: Scalar requests timed for the baseline; scalar cost is constant per
#: request, so the measured rate extrapolates (and SMOKE stays fast).
SCALAR_SAMPLE = 60 if SMOKE else 250


def _make_service(citypulse) -> PrivateRangeCountingService:
    return PrivateRangeCountingService.from_values(
        citypulse.values("ozone"), k=DEVICE_COUNT, seed=3
    )


def test_gateway_serves_concurrent_consumers(citypulse, save_result, save_json):
    values = citypulse.values("ozone")
    ranges = list(make_workload(values, num_queries=64, seed=9).ranges)
    workload = Workload(ranges=ranges, tiers=TIERS)
    flat = [
        workload.request(i)
        for i in range(CONSUMERS * REQUESTS_PER_CONSUMER)
    ]

    # -- gateway: 4 concurrent consumers through the coalescing batch path
    serving = _make_service(citypulse)
    gateway = serving.serve(config=ServingConfig(batch_window=0.002))
    with gateway:
        result = run_closed_loop(
            gateway,
            workload,
            consumers=CONSUMERS,
            requests_per_consumer=REQUESTS_PER_CONSUMER,
            pipeline_depth=32,
        )

    # The books must be exactly the serial expectation: every request
    # billed at list price, ε′ spent only on first releases -- replays
    # (in-window and cached) consume zero additional ε.
    assert result.completed == CONSUMERS * REQUESTS_PER_CONSUMER
    assert result.failed == 0
    assert abs(result.revenue_drift) < 1e-6
    assert abs(result.epsilon_drift) < 1e-6
    assert len(serving.broker.ledger) == CONSUMERS * REQUESTS_PER_CONSUMER
    assert result.cache_hits > 0

    # -- baseline: the same request stream through scalar answer(), one
    # trade at a time, on a twin stack pre-collected to the same rate.
    scalar_svc = _make_service(citypulse)
    scalar_svc.collect(serving.station.sampling_rate)
    start = time.perf_counter()
    for (low, high), spec in flat[:SCALAR_SAMPLE]:
        scalar_svc.answer(low, high, spec.alpha, spec.delta, consumer="bench")
    scalar_elapsed = time.perf_counter() - start
    scalar_qps = SCALAR_SAMPLE / max(scalar_elapsed, 1e-9)
    speedup = result.throughput_qps / max(scalar_qps, 1e-9)

    payload = dict(result.to_payload())
    payload["scalar_qps"] = scalar_qps
    payload["speedup_vs_scalar"] = speedup
    save_json("serving", payload)
    save_result(
        "serving_gateway_vs_scalar",
        "# serving: closed-loop gateway vs scalar answer() loop, paper scale\n"
        f"# ({CONSUMERS} consumers x {REQUESTS_PER_CONSUMER} requests, "
        f"{len(ranges)} ranges, {len(TIERS)} tiers, k={DEVICE_COUNT})\n"
        f"gateway throughput : {result.throughput_qps:10.1f} q/s\n"
        f"scalar baseline    : {scalar_qps:10.1f} q/s\n"
        f"speedup            : {speedup:10.1f}x\n"
        f"latency p50 / p99  : {result.latency_p50_ms:7.2f} / "
        f"{result.latency_p99_ms:7.2f} ms\n"
        f"cache hit rate     : {result.cache_hit_rate:10.1%}\n"
        f"epsilon spent      : {result.epsilon_spent:10.4f} "
        f"(drift {result.epsilon_drift:+.2e})\n"
        f"revenue            : {result.revenue:10.2f} "
        f"(drift {result.revenue_drift:+.2e})",
    )
    if not SMOKE:
        assert speedup >= 5.0


def test_gateway_books_match_serial_baseline(citypulse):
    """Cache disabled, one dispatch wave: the gateway's ledger/accountant
    equal the serial batched baseline trade for trade."""
    ranges = list(make_workload(citypulse.values("ozone"),
                                num_queries=40, seed=9).ranges)

    serving = _make_service(citypulse)
    gateway = serving.serve(
        config=ServingConfig(batch_window=0.05, enable_cache=False)
    )
    futures = [
        gateway.submit_range(low, high, 0.1, 0.5, consumer="bench")
        for low, high in ranges
    ]
    with gateway:
        answers = [f.result(timeout=30.0) for f in futures]

    baseline = _make_service(citypulse)
    expected = baseline.answer_many(ranges, 0.1, 0.5, consumer="bench")

    assert [a.value for a in answers] == [a.value for a in expected]
    assert len(serving.broker.ledger) == len(baseline.broker.ledger)
    assert serving.broker.ledger.total_revenue() == pytest.approx(
        baseline.broker.ledger.total_revenue()
    )
    assert serving.privacy_spent() == pytest.approx(baseline.privacy_spent())
