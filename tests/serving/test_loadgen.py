"""Load-generator tests: determinism, drift audits, and bench output."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.core.query import AccuracySpec
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.records import fold
from repro.serving import (
    ServingConfig,
    Workload,
    run_closed_loop,
    run_open_loop,
    write_bench_json,
)
from repro.serving.loadgen import (
    booked_accounting,
    expected_accounting,
    read_bench_json,
)

from .conftest import RANGES, TIERS


class TestWorkload:
    def test_request_stream_is_deterministic(self, workload):
        assert workload.request(0) == workload.request(0)
        assert workload.request(1) == (RANGES[1], TIERS[1])
        assert workload.request(len(RANGES)) == (RANGES[0], TIERS[0])

    def test_plan_interleaves_the_stream(self, workload):
        plan = workload.plan(consumers=2, requests_per_consumer=3)
        assert len(plan) == 2 and all(len(p) == 3 for p in plan)
        # Consumer c gets stream indices c, c + 2, c + 4, ...
        assert plan[0][1] == workload.request(2)
        assert plan[1][1] == workload.request(3)

    def test_rejects_empty_populations(self):
        with pytest.raises(ValueError):
            Workload(ranges=())
        with pytest.raises(ValueError):
            Workload(ranges=((0.0, 1.0),), tiers=())

    def test_rejects_empty_plan(self, workload):
        with pytest.raises(ValueError):
            workload.plan(consumers=0, requests_per_consumer=1)


class TestClosedLoop:
    def test_small_run_completes_with_zero_drift(self, service, workload):
        gateway = service.serve(config=ServingConfig(batch_window=0.001))
        with gateway:
            result = run_closed_loop(
                gateway,
                workload,
                consumers=2,
                requests_per_consumer=20,
                pipeline_depth=8,
            )
        assert result.mode == "closed"
        assert result.requests == 40
        assert result.completed == 40
        assert result.failed == 0
        assert result.throughput_qps > 0.0
        # The marketplace invariant: books match the serial expectation.
        assert abs(result.epsilon_drift) < 1e-6
        assert abs(result.revenue_drift) < 1e-6
        # 40 requests over 24 distinct (range, tier) pairs: repeats replay.
        assert result.cache_hits > 0
        assert result.latency_p99_ms >= result.latency_p50_ms
        # Replays and every consumer's releases settle in one broker call.
        telemetry = gateway.telemetry
        dispatches = telemetry.histogram("gateway.batch_width").count
        assert 0 < telemetry.value("gateway.broker_calls") <= dispatches

    def test_cache_disabled_audit_expects_full_epsilon(self, service, workload):
        gateway = service.serve(
            config=ServingConfig(batch_window=0.001, enable_cache=False)
        )
        with gateway:
            result = run_closed_loop(
                gateway, workload, consumers=2, requests_per_consumer=16
            )
        assert result.cache_hits == 0
        assert result.epsilon_spent > 0.0
        assert abs(result.epsilon_drift) < 1e-6
        assert abs(result.revenue_drift) < 1e-6


class TestDriftAudit:
    def test_drift_does_not_depend_on_settlement_order(self):
        # A stub broker whose price and ε′ of a tier are both its α.
        tiers = [AccuracySpec(alpha=a, delta=0.5) for a in (0.1, 0.2, 0.3)]
        broker = SimpleNamespace(
            dataset="d",
            pricing=SimpleNamespace(price=lambda alpha, delta: alpha),
            planner=SimpleNamespace(
                plan=lambda spec, p: SimpleNamespace(epsilon_prime=spec.alpha)
            ),
            base_station=SimpleNamespace(sampling_rate=1.0),
            ledger=BillingLedger(),
            accountant=BudgetAccountant(),
        )
        gateway = SimpleNamespace(broker=broker, cache=None)
        requests = [((0.0, 1.0), spec) for spec in tiers]
        for spec in reversed(tiers):  # settled in the other order
            broker.ledger.record("c", "d", spec.alpha, 0.5, spec.alpha, spec.alpha)
            broker.accountant.charge("d", spec.alpha)
        alphas = [spec.alpha for spec in tiers]
        assert broker.ledger.total_revenue() != fold(alphas)  # left folds differ
        revenue, epsilon = booked_accounting(broker)
        want_revenue, want_epsilon = expected_accounting(gateway, requests)
        assert revenue - want_revenue == 0.0
        assert epsilon - want_epsilon == 0.0


class TestOpenLoop:
    def test_paced_arrivals_complete_with_zero_drift(self, service, workload):
        gateway = service.serve(config=ServingConfig(batch_window=0.001))
        with gateway:
            result = run_open_loop(
                gateway, workload, rate_qps=400.0, duration_s=0.1
            )
        assert result.mode == "open"
        assert result.requests == 40
        # Open loop drops sheds; the audit covers exactly the admitted set.
        assert result.completed + result.failed + result.shed_retries == 40
        assert result.failed == 0
        assert abs(result.epsilon_drift) < 1e-6
        assert abs(result.revenue_drift) < 1e-6

    def test_latency_counts_the_wait_of_a_stalled_sender(
        self, service, workload, monkeypatch
    ):
        """Latency runs from each arrival's scheduled time: arrivals due
        while the sender was stuck in a slow submit waited too."""
        gateway = service.serve(config=ServingConfig(batch_window=0.001))
        submit_range = gateway.submit_range
        stalled = []

        def slow_submit(*args, **kwargs):
            if not stalled:  # the first arrival holds the sender 30 ms
                stalled.append(True)
                time.sleep(0.03)
            return submit_range(*args, **kwargs)

        monkeypatch.setattr(gateway, "submit_range", slow_submit)
        with gateway:
            result = run_open_loop(
                gateway, workload, rate_qps=1000.0, duration_s=0.1
            )
        assert result.completed == 100
        # About 29 of the 100 arrivals were sent up to 29 ms late.
        assert result.lateness_p99_ms >= 20.0
        assert result.latency_p99_ms >= 20.0
        assert result.to_payload()["lateness_p99_ms"] == result.lateness_p99_ms

    def test_rejects_nonpositive_rate(self, service, workload):
        with service.serve() as gateway:
            with pytest.raises(ValueError):
                run_open_loop(gateway, workload, rate_qps=0.0, duration_s=1.0)


class TestBenchJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        write_bench_json(path, "unit", {"throughput_qps": 123.4})
        payload = read_bench_json(path)
        assert payload["format"] == "repro.bench"
        assert payload["version"] == 1
        assert payload["benchmark"] == "unit"
        assert payload["results"]["throughput_qps"] == pytest.approx(123.4)

    def test_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            read_bench_json(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "BENCH_new.json"
        path.write_text('{"format": "repro.bench", "version": 99}')
        with pytest.raises(ValueError):
            read_bench_json(path)

    def test_loadgen_result_payload_is_json_ready(self, service, workload):
        gateway = service.serve(config=ServingConfig(batch_window=0.001))
        with gateway:
            result = run_closed_loop(
                gateway, workload, consumers=1, requests_per_consumer=4
            )
        payload = result.to_payload()
        assert payload["requests"] == 4
        assert "epsilon_drift" in payload and "revenue_drift" in payload
