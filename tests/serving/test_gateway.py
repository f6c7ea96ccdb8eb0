"""Gateway tests: equivalence with direct broker calls, concurrency,
caching semantics, and load shedding."""

from __future__ import annotations

import concurrent.futures
import sys
import threading
import time

import pytest

from repro.core.query import RangeQuery
from repro.errors import (
    GatewayClosedError,
    QuotaExceededError,
    ServiceOverloadedError,
    ServingError,
)
from repro.serving import AdmissionController, AnswerCache, ServingConfig

from .conftest import RANGES, TIERS, build_service

ALPHA, DELTA = TIERS[0].alpha, TIERS[0].delta

#: Gateway tuning for deterministic tests: no cache (pure pass-through),
#: a window wide enough that pre-submitted requests coalesce into one batch.
PASSTHROUGH = ServingConfig(batch_window=0.05, enable_cache=False)


class TestLifecycle:
    def test_context_manager_starts_and_stops(self, service):
        with service.serve(config=PASSTHROUGH) as gateway:
            assert gateway.running
        assert not gateway.running

    def test_submit_after_stop_raises(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        gateway.start()
        gateway.stop()
        with pytest.raises(GatewayClosedError):
            gateway.submit_range(0.0, 50.0, ALPHA, DELTA)

    def test_stop_is_idempotent(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        gateway.start()
        gateway.stop()
        gateway.stop()

    def test_stop_drains_presubmitted_requests(self, service):
        # A never-started gateway still settles every pending future on stop.
        gateway = service.serve(config=PASSTHROUGH)
        future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        gateway.stop()
        assert future.done()
        assert future.exception() is None
        assert len(service.broker.ledger) == 1


class TestEquivalence:
    def test_single_batch_bit_identical_to_answer_many(self):
        """One consumer's coalesced batch == ``answer_many`` on a twin stack."""
        ranges = [RANGES[i % len(RANGES)] for i in range(20)]

        serving = build_service()
        gateway = serving.serve(config=PASSTHROUGH)
        futures = [
            gateway.submit_range(low, high, ALPHA, DELTA, consumer="alice")
            for low, high in ranges
        ]
        with gateway:  # workers pick the whole queue up as one batch
            answers = [f.result(timeout=10.0) for f in futures]

        twin = build_service()
        baseline = twin.answer_many(ranges, ALPHA, DELTA, consumer="alice")

        for got, want in zip(answers, baseline):
            assert got.value == want.value  # bit-identical, not approx
            assert got.raw_value == want.raw_value
            assert got.price == want.price
            assert got.transaction_id == want.transaction_id
        assert serving.broker.ledger.total_revenue() == pytest.approx(
            twin.broker.ledger.total_revenue()
        )
        assert serving.privacy_spent() == pytest.approx(twin.privacy_spent())

    def test_concurrent_consumers_keep_identical_books(self):
        """N threads through the gateway write the same books as the
        equivalent serial batched calls: same ledger length, revenue,
        per-consumer totals, accountant spend, and policy counters."""
        consumers = 4
        per_consumer = 30
        plans = {
            f"c{c}": [
                (RANGES[(c + r) % len(RANGES)], TIERS[r % len(TIERS)])
                for r in range(per_consumer)
            ]
            for c in range(consumers)
        }

        serving = build_service()
        with serving.serve(config=PASSTHROUGH) as gateway:
            futures = []
            lock = threading.Lock()

            def drive(consumer: str) -> None:
                for (low, high), spec in plans[consumer]:
                    future = gateway.submit_range(
                        low, high, spec.alpha, spec.delta, consumer=consumer
                    )
                    with lock:
                        futures.append(future)

            threads = [
                threading.Thread(target=drive, args=(name,))
                for name in plans
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            answers = [f.result(timeout=10.0) for f in futures]
        assert len(answers) == consumers * per_consumer

        twin = build_service()
        for name, requests in plans.items():
            twin.broker.answer_batch(
                [
                    RangeQuery(low=low, high=high, dataset=twin.broker.dataset)
                    for (low, high), _ in requests
                ],
                [spec for _, spec in requests],
                consumer=name,
            )

        assert len(serving.broker.ledger) == len(twin.broker.ledger)
        assert serving.broker.ledger.total_revenue() == pytest.approx(
            twin.broker.ledger.total_revenue()
        )
        assert serving.broker.ledger.revenue_by_consumer() == pytest.approx(
            twin.broker.ledger.revenue_by_consumer()
        )
        assert serving.privacy_spent() == pytest.approx(twin.privacy_spent())
        for name in plans:
            assert serving.broker.policy.purchases_by(name) == per_consumer
            assert serving.broker.policy.epsilon_spent_by(
                name
            ) == pytest.approx(twin.broker.policy.epsilon_spent_by(name))


class TestBatchingWindow:
    """The window runs from the oldest request's arrival, not from pickup,
    and is an upper bound: a batch closes early once arrivals go quiet.

    Timings are generous (tenths of seconds) so the checks cannot flake.
    """

    MAX_BATCH = 8

    def presubmit(self, gateway, count):
        return [
            gateway.submit_range(*RANGES[i % len(RANGES)], ALPHA, DELTA)
            for i in range(count)
        ]

    def test_window_counts_time_spent_queued(self, service):
        # Two batches' worth queued 0.9 s into a 1 s window: the partial
        # second batch must close at its oldest arrival + 1 s, not a full
        # window after the worker picks it up.
        config = ServingConfig(
            batch_window=1.0, max_batch=self.MAX_BATCH, enable_cache=False
        )
        gateway = service.serve(config=config)
        futures = self.presubmit(gateway, self.MAX_BATCH + self.MAX_BATCH // 2)
        time.sleep(0.9)
        start = time.perf_counter()
        with gateway:
            for future in futures:
                future.result(timeout=10.0)
            elapsed = time.perf_counter() - start
        widths = gateway.telemetry.histogram("gateway.batch_width").summary()
        assert (widths["count"], widths["max"]) == (2, self.MAX_BATCH)
        assert elapsed < 0.6

    def test_backlog_older_than_the_window_still_coalesces(self, service):
        config = ServingConfig(
            batch_window=0.2, max_batch=self.MAX_BATCH, enable_cache=False
        )
        gateway = service.serve(config=config)
        futures = self.presubmit(gateway, self.MAX_BATCH + self.MAX_BATCH // 2)
        time.sleep(0.4)
        with gateway:
            for future in futures:
                future.result(timeout=10.0)
        widths = gateway.telemetry.histogram("gateway.batch_width").summary()
        assert (widths["count"], widths["max"], widths["min"]) == (
            2, self.MAX_BATCH, self.MAX_BATCH // 2
        )

    def test_request_inside_an_idle_window_joins_the_batch(self, service):
        config = ServingConfig(batch_window=0.5, enable_cache=False)
        with service.serve(config=config) as gateway:
            first = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
            time.sleep(0.05)
            second = gateway.submit_range(10.0, 60.0, ALPHA, DELTA)
            first.result(timeout=10.0)
            second.result(timeout=10.0)
        widths = gateway.telemetry.histogram("gateway.batch_width")
        assert (widths.count, widths.sum) == (1, 2)

    def test_zero_window_dispatches_one_at_a_time_in_order(self, service):
        config = ServingConfig(batch_window=0.0, enable_cache=False)
        gateway = service.serve(config=config)
        futures = self.presubmit(gateway, 6)
        with gateway:
            answers = [future.result(timeout=10.0) for future in futures]
        widths = gateway.telemetry.histogram("gateway.batch_width").summary()
        assert (widths["count"], widths["max"]) == (6, 1)
        ids = [answer.transaction_id for answer in answers]
        assert ids == sorted(ids) and len(set(ids)) == 6

    def warm_up(self, service):
        """A started gateway (1 s window) whose worker has seen a burst: a
        full batch of ``2 * MAX_BATCH`` and a window-closed one of
        ``MAX_BATCH``, 22 gaps of back-to-back arrivals in all."""
        config = ServingConfig(
            batch_window=1.0, max_batch=2 * self.MAX_BATCH, enable_cache=False
        )
        gateway = service.serve(config=config).start()
        for future in self.presubmit(gateway, 3 * self.MAX_BATCH):
            future.result(timeout=10.0)
        return gateway

    def test_burst_then_silence_dispatches_before_the_window(self, service):
        with self.warm_up(service) as gateway:
            start = time.perf_counter()
            for future in self.presubmit(gateway, self.MAX_BATCH):
                future.result(timeout=10.0)
            elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        counters = gateway.telemetry.snapshot()["counters"]
        assert counters["gateway.batch_close.full"] == 1
        assert counters["gateway.batch_close.window"] == 1
        assert counters["gateway.batch_close.quiet"] >= 1

    def test_paced_stream_without_history_coalesces(self, service):
        config = ServingConfig(batch_window=0.5, enable_cache=False)
        with service.serve(config=config) as gateway:
            futures = []
            for i in range(8):
                futures.append(
                    gateway.submit_range(*RANGES[i % len(RANGES)], ALPHA, DELTA)
                )
                time.sleep(0.02)
            for future in futures:
                future.result(timeout=10.0)
        widths = gateway.telemetry.histogram("gateway.batch_width")
        assert (widths.count, widths.sum) == (1, 8)
        counters = gateway.telemetry.snapshot()["counters"]
        assert counters["gateway.batch_close.window"] == 1

    def test_paced_stream_after_a_burst_still_coalesces(self, service):
        # The burst taught a sub-millisecond quiet gap, far below this
        # stream's 20 ms spacing; the batch still may not close on it
        # before it is as wide as the last one.
        with self.warm_up(service) as gateway:
            futures = []
            for i in range(self.MAX_BATCH):
                time.sleep(0.02)
                futures.append(
                    gateway.submit_range(*RANGES[i % len(RANGES)], ALPHA, DELTA)
                )
            for future in futures:
                future.result(timeout=10.0)
        widths = gateway.telemetry.histogram("gateway.batch_width").summary()
        assert (widths["count"], widths["min"]) == (3, self.MAX_BATCH)


class TestCaching:
    def test_repeat_query_replays_at_zero_epsilon(self, service):
        config = ServingConfig(batch_window=0.001)
        with service.serve(config=config) as gateway:
            first = gateway.answer(0.0, 50.0, ALPHA, DELTA, consumer="alice")
            spent_after_first = service.privacy_spent()
            second = gateway.answer(0.0, 50.0, ALPHA, DELTA, consumer="bob")
        # Same released value, billed again, zero extra ε.
        assert second.value == first.value
        assert service.privacy_spent() == pytest.approx(spent_after_first)
        transactions = service.broker.ledger.transactions
        assert len(transactions) == 2
        assert transactions[0].epsilon_prime > 0.0
        assert transactions[1].epsilon_prime == 0.0
        assert transactions[1].price == pytest.approx(transactions[0].price)
        assert gateway.telemetry.value("gateway.cache_replays") == 1

    def test_in_window_duplicates_coalesce_to_one_release(self, service):
        gateway = service.serve(config=ServingConfig(batch_window=0.05))
        futures = [
            gateway.submit_range(0.0, 50.0, ALPHA, DELTA, consumer=f"c{i}")
            for i in range(3)
        ]
        with gateway:
            answers = [f.result(timeout=10.0) for f in futures]
        assert len({a.value for a in answers}) == 1  # one released value
        transactions = service.broker.ledger.transactions
        assert len(transactions) == 3  # every hand-over is billed
        assert sum(1 for t in transactions if t.epsilon_prime > 0.0) == 1
        plan_epsilon = service.broker.planner.plan(
            TIERS[0], service.station.sampling_rate
        ).epsilon_prime
        assert service.privacy_spent() == pytest.approx(plan_epsilon)

    def test_collection_round_invalidates_cache(self, service):
        config = ServingConfig(batch_window=0.001)
        with service.serve(config=config) as gateway:
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            assert len(gateway.cache) == 1
            spent_before = service.privacy_spent()

            service.collect(service.station.sampling_rate + 0.2)

            assert len(gateway.cache) == 0  # purged on commit
            fresh = gateway.answer(0.0, 50.0, ALPHA, DELTA)
            assert fresh.transaction_id == 2
        # The new store demands a fresh release: ε was spent again.
        assert service.privacy_spent() > spent_before
        assert service.broker.ledger.transactions[1].epsilon_prime > 0.0

    def test_cache_disabled_every_release_is_fresh(self, service):
        with service.serve(config=PASSTHROUGH) as gateway:
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
        transactions = service.broker.ledger.transactions
        assert all(t.epsilon_prime > 0.0 for t in transactions)


class TestLoadShedding:
    def test_full_queue_sheds_with_overload_error(self, service):
        gateway = service.serve(
            config=ServingConfig(queue_depth=1, enable_cache=False)
        )
        first = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        with pytest.raises(ServiceOverloadedError):
            gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        assert isinstance(ServiceOverloadedError("x"), ServingError)
        gateway.stop()
        assert first.result().value is not None
        assert gateway.telemetry.value("gateway.shed") == 1
        # The shed request was never billed and never spent ε.
        assert len(service.broker.ledger) == 1

    def test_quota_refusal_happens_before_any_data_is_touched(self, service):
        admission = AdmissionController()
        gateway = service.serve(
            config=PASSTHROUGH,
            admission=admission,
        )
        price = service.broker.quote(TIERS[0])
        admission.register("alice", deposit=1.5 * price)
        gateway.submit_range(0.0, 50.0, ALPHA, DELTA, consumer="alice")
        with pytest.raises(QuotaExceededError):
            gateway.submit_range(0.0, 60.0, ALPHA, DELTA, consumer="alice")
        gateway.stop()
        # Only the admitted request reached the books.
        assert len(service.broker.ledger) == 1
        assert service.broker.ledger.spend_of("alice") == pytest.approx(price)

    def test_admission_ledger_defaults_to_brokers(self, service):
        admission = AdmissionController()
        gateway = service.serve(config=PASSTHROUGH, admission=admission)
        assert admission.ledger is service.broker.ledger
        gateway.stop()


class TestIntake:
    """The request queue: a count-bounded inbox whose counters are
    published once per dispatch."""

    @staticmethod
    def _dead_and_full(service):
        """A started gateway whose only worker was killed, with a full
        queue: two requests queued at ``queue_depth=2``."""
        gateway = service.serve(
            config=ServingConfig(queue_depth=2, enable_cache=False)
        )
        gateway.start()
        gateway.kill_worker()
        waited = time.monotonic() + 5.0
        while gateway.alive_workers and time.monotonic() < waited:
            time.sleep(0.001)
        assert gateway.alive_workers == 0
        futures = [
            gateway.submit_range(*RANGES[i], ALPHA, DELTA) for i in range(2)
        ]
        return gateway, futures

    @staticmethod
    def _returns(call) -> bool:
        """Whether ``call()`` returns within 5 s (run on its own thread)."""
        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        return not thread.is_alive()

    def test_stop_returns_when_every_worker_is_dead_and_the_queue_full(
        self, service
    ):
        gateway, futures = self._dead_and_full(service)
        assert self._returns(gateway.stop), "stop() blocked on the full queue"
        assert all(f.done() and f.exception() is None for f in futures)
        assert len(service.broker.ledger) == 2

    def test_kill_worker_returns_when_the_queue_is_full(self, service):
        gateway, futures = self._dead_and_full(service)
        assert self._returns(gateway.kill_worker), "kill_worker() blocked"
        gateway.spawn_worker()  # serves the queued requests, then takes the kill
        assert self._returns(gateway.stop)
        assert all(f.done() and f.exception() is None for f in futures)

    def test_queue_depth_is_exact_under_concurrent_submitters(self, service):
        depth, threads, each = 10, 8, 5
        gateway = service.serve(
            config=ServingConfig(queue_depth=depth, enable_cache=False)
        )  # never started: nothing leaves the queue
        start = threading.Barrier(threads)
        queued, shed = [], []

        def submitter(t: int) -> None:
            start.wait(timeout=5.0)
            for i in range(each):
                low, high = RANGES[(t + i) % len(RANGES)]
                try:
                    queued.append(gateway.submit_range(
                        low, high, ALPHA, DELTA, consumer=f"c{t}"
                    ))
                except ServiceOverloadedError:
                    shed.append(t)

        workers = [
            threading.Thread(target=submitter, args=(t,), daemon=True)
            for t in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(queued) == gateway.pending() == depth
        assert len(shed) == threads * each - depth
        assert gateway.telemetry.value("gateway.shed") == len(shed)
        gateway.stop()
        assert all(f.exception() is None for f in queued)
        assert len(service.broker.ledger) == depth

    def test_a_submit_racing_stop_settles_or_is_refused(self, service):
        """A request admitted while ``stop()`` runs either reaches the
        inbox before the drain, and settles, or is refused with its
        admission reservation released; it is never left queued."""

        class SlowAdmission(AdmissionController):
            def admit(self, consumer: str, price: float = 0.0) -> None:
                super().admit(consumer, price)
                time.sleep(0.2)

        admission = SlowAdmission()
        gateway = service.serve(
            config=ServingConfig(enable_cache=False), admission=admission
        ).start()
        price = service.broker.quote(TIERS[0])
        admission.register("slow", deposit=price)
        outcome: list = []

        def submit() -> None:
            try:
                outcome.append(gateway.submit_range(
                    *RANGES[0], ALPHA, DELTA, consumer="slow"
                ))
            except GatewayClosedError as exc:
                outcome.append(exc)

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        time.sleep(0.05)
        gateway.stop()
        submitter.join(timeout=5.0)
        (result,) = outcome
        if isinstance(result, GatewayClosedError):
            assert len(service.broker.ledger) == 0
            admission.admit("slow", price)  # nothing is left reserved
        else:
            assert result.exception(timeout=2.0) is None
            assert len(service.broker.ledger) == 1
        assert gateway.pending() == 0

    def test_submitted_is_served_plus_failed_after_stop(self, service):
        gateway = service.serve(
            config=ServingConfig(batch_window=0.002, max_batch=4)
        ).start()
        futures = [
            gateway.submit_range(*RANGES[i % 6], ALPHA, DELTA) for i in range(12)
        ]
        # A query for another dataset fails in the broker.
        futures.append(gateway.submit(
            RangeQuery(0.0, 50.0, dataset="elsewhere"), TIERS[0]
        ))
        gateway.stop()
        assert futures[-1].exception() is not None
        counters = gateway.snapshot()["counters"]
        assert counters["gateway.submitted"] == 13
        assert counters["gateway.served"] + counters["gateway.failed"] == 13
        assert gateway.telemetry.value("gateway.submitted") == 13
        assert gateway.telemetry.value("gateway.queue_depth") == 0

    def test_snapshot_counts_queued_requests_not_yet_dispatched(self, service):
        gateway = service.serve(config=PASSTHROUGH)  # never started
        for low, high in RANGES[:3]:
            gateway.submit_range(low, high, ALPHA, DELTA)
        assert gateway.snapshot()["counters"]["gateway.submitted"] == 3
        # The registry itself hears of them at the next dispatch.
        assert gateway.telemetry.value("gateway.submitted") == 0
        gateway.stop()
        assert gateway.telemetry.value("gateway.submitted") == 3
        assert gateway.snapshot()["counters"]["gateway.submitted"] == 3

    def test_submit_returns_a_concurrent_future(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        future = gateway.submit_range(0.0, 50.0, ALPHA, DELTA)
        assert isinstance(future, concurrent.futures.Future)
        gateway.stop()
        assert future.result(timeout=0).value is not None


class TestCancellation:
    """A request cancelled while queued leaves its batch when a dispatch
    claims it: never billed, no ε spent, its reservation released."""

    @staticmethod
    def _three_with_the_middle_cancelled(service):
        admission = AdmissionController()
        gateway = service.serve(config=PASSTHROUGH, admission=admission)
        price = service.broker.quote(TIERS[0])
        # Room for exactly three purchases: a reservation left behind by
        # the cancelled request would refuse the third.
        admission.register("alice", deposit=3 * price)
        futures = [
            gateway.submit_range(*RANGES[i], ALPHA, DELTA, consumer="alice")
            for i in range(3)
        ]
        assert futures[1].cancel()
        return gateway, admission, price, futures

    @staticmethod
    def _twin_books(batches):
        """Books of a twin stack that traded only ``batches`` of ranges."""
        twin = build_service()
        for batch in batches:
            twin.broker.answer_batch(
                [RangeQuery(*RANGES[i], dataset=twin.broker.dataset) for i in batch],
                [TIERS[0]] * len(batch),
                consumer="alice",
            )
        return twin

    @staticmethod
    def _assert_same_books(service, twin):
        broker = service.broker
        assert broker.ledger.transactions == twin.broker.ledger.transactions
        assert broker.accountant.history(broker.dataset) == (
            twin.broker.accountant.history(twin.broker.dataset)
        )

    @staticmethod
    def _assert_counts_add_up(gateway, cancelled):
        counters = gateway.snapshot()["counters"]
        assert counters.get("gateway.cancelled", 0) == cancelled
        assert counters["gateway.submitted"] == (
            counters.get("gateway.served", 0)
            + counters.get("gateway.failed", 0)
            + cancelled
        )

    def test_a_started_worker_skips_it_and_stays_alive(self, service):
        gateway, admission, price, futures = self._three_with_the_middle_cancelled(
            service
        )
        gateway.start()
        for i in (0, 2):
            assert futures[i].result(timeout=10.0).value is not None
        assert futures[1].cancelled() and futures[1].done()
        with pytest.raises(concurrent.futures.CancelledError):
            futures[1].result(timeout=0)
        assert gateway.alive_workers == 1
        # The worker serves later requests, and the released reservation
        # leaves room in the deposit for a third purchase.
        fourth = gateway.submit_range(*RANGES[3], ALPHA, DELTA, consumer="alice")
        assert fourth.result(timeout=10.0).value is not None
        gateway.stop()
        self._assert_same_books(service, self._twin_books([(0, 2), (3,)]))
        self._assert_counts_add_up(gateway, cancelled=1)

    def test_stop_drain_skips_it(self, service):
        gateway, admission, price, futures = self._three_with_the_middle_cancelled(
            service
        )
        gateway.stop()  # never started: the drain dispatches the queue
        assert all(futures[i].result(timeout=0).value is not None for i in (0, 2))
        assert futures[1].cancelled()
        admission.admit("alice", price)  # the reservation was released
        self._assert_same_books(service, self._twin_books([(0, 2)]))
        self._assert_counts_add_up(gateway, cancelled=1)

    def test_a_batch_of_only_cancelled_requests_touches_nothing(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        futures = [gateway.submit_range(*RANGES[i], ALPHA, DELTA) for i in range(2)]
        assert all(future.cancel() for future in futures)
        gateway.stop()
        assert all(future.cancelled() for future in futures)
        assert len(service.broker.ledger) == 0
        assert gateway.telemetry.value("gateway.broker_calls") == 0
        self._assert_counts_add_up(gateway, cancelled=2)


    def test_cancels_racing_claims_under_concurrent_submitters(self, service):
        """Every ``cancel()`` that returns True is a request dropped
        untraded; every other request is served: a lost state update on
        the shared condition breaks one of the counts."""
        threads, each = 4, 24
        gateway = service.serve(
            config=ServingConfig(batch_window=0.001, max_batch=8, enable_cache=False)
        ).start()
        start = threading.Barrier(threads)
        futures, cancelled = [], []
        lock = threading.Lock()

        def submitter(t: int) -> None:
            start.wait(timeout=5.0)
            for i in range(each):
                future = gateway.submit_range(
                    *RANGES[(t + i) % len(RANGES)], ALPHA, DELTA, consumer=f"c{t}"
                )
                won = i % 2 == 1 and future.cancel()
                with lock:
                    futures.append(future)
                    if won:
                        cancelled.append(future)

        workers = [
            threading.Thread(target=submitter, args=(t,), daemon=True)
            for t in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        gateway.stop()
        assert all(future.done() for future in futures)
        assert {f for f in futures if f.cancelled()} == set(cancelled)
        served = [f for f in futures if not f.cancelled()]
        assert all(f.exception(timeout=0) is None for f in served)
        assert len(service.broker.ledger) == len(served)
        self._assert_counts_add_up(gateway, cancelled=len(cancelled))


class TestFutureContract:
    """The gateway's futures behave as stock ``concurrent.futures``
    futures, although they share one condition per gateway."""

    def test_wait_first_and_all_completed(self, service):
        gateway = service.serve(config=PASSTHROUGH)  # started below
        futures = [gateway.submit_range(*RANGES[i], ALPHA, DELTA) for i in range(3)]
        starter = threading.Timer(0.05, gateway.start)
        starter.start()
        first = concurrent.futures.wait(
            futures, timeout=10.0, return_when=concurrent.futures.FIRST_COMPLETED
        )
        assert first.done
        every = concurrent.futures.wait(
            futures, timeout=10.0, return_when=concurrent.futures.ALL_COMPLETED
        )
        assert every.done == set(futures) and not every.not_done
        starter.join()
        gateway.stop()

    def test_as_completed_hears_of_a_cancellation_at_the_claim(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        futures = [gateway.submit_range(*RANGES[i], ALPHA, DELTA) for i in range(3)]

        def cancel_then_start() -> None:
            futures[1].cancel()
            gateway.start()

        starter = threading.Timer(0.05, cancel_then_start)
        starter.start()
        # as_completed waits on all three from before the cancel: only
        # the claim's notice lets it yield the cancelled one.
        assert set(concurrent.futures.as_completed(futures, timeout=10.0)) == set(
            futures
        )
        starter.join()
        gateway.stop()
        assert futures[1].cancelled()

    def test_done_callbacks_before_and_after_completion(self, service):
        gateway = service.serve(config=PASSTHROUGH)
        future = gateway.submit_range(*RANGES[0], ALPHA, DELTA)
        before, after = [], []
        future.add_done_callback(before.append)
        assert not before
        gateway.stop()
        assert before == [future]
        future.add_done_callback(after.append)  # runs at once, here
        assert after == [future]

    def test_states_and_cancel_once_claimed(self, service, monkeypatch):
        gateway = service.serve(config=PASSTHROUGH)
        futures = [gateway.submit_range(*RANGES[i], ALPHA, DELTA) for i in range(2)]
        assert [(f.done(), f.running(), f.cancelled()) for f in futures] == [
            (False, False, False)
        ] * 2
        seen = []
        answer_batch = service.broker.answer_batch

        def observing(*args, **kwargs):
            # Mid-dispatch: both requests are claimed and cannot cancel.
            seen.append([(f.running(), f.cancel(), f.done()) for f in futures])
            return answer_batch(*args, **kwargs)

        monkeypatch.setattr(service.broker, "answer_batch", observing)
        gateway.stop()
        assert seen == [[(True, False, False)] * 2]
        assert [(f.done(), f.running(), f.cancelled()) for f in futures] == [
            (True, False, False)
        ] * 2
        assert all(f.cancel() is False for f in futures)

    def test_a_wait_outlives_an_earlier_dispatchs_wake_up(
        self, service, monkeypatch
    ):
        """One condition wakes every waiter at each dispatch: a caller
        waiting on a later dispatch's future must not time out early."""
        gateway = service.serve(
            config=ServingConfig(batch_window=0.0, max_batch=1, enable_cache=False)
        )
        early, late = (gateway.submit_range(*RANGES[i], ALPHA, DELTA) for i in range(2))
        release_late = threading.Event()
        calls = []
        answer_batch = service.broker.answer_batch

        def holding_the_second(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) == 2:
                release_late.wait(timeout=10.0)
            return answer_batch(*args, **kwargs)

        monkeypatch.setattr(service.broker, "answer_batch", holding_the_second)
        outcome = []

        def wait_late() -> None:
            try:
                outcome.append(late.result(timeout=10.0))
            except Exception as exc:  # a spurious TimeoutError lands here
                outcome.append(exc)

        waiter = threading.Thread(target=wait_late, daemon=True)
        waiter.start()
        time.sleep(0.05)  # let the waiter block on the shared condition
        gateway.start()
        assert early.result(timeout=10.0).value is not None
        time.sleep(0.05)  # the early notify_all has reached the waiter
        assert not outcome, f"woken early with {outcome!r}"
        release_late.set()
        waiter.join(timeout=10.0)
        gateway.stop()
        assert len(outcome) == 1 and not isinstance(outcome[0], Exception)
        assert late.exception(timeout=0) is None


class TestTelemetry:
    def test_snapshot_covers_gateway_broker_and_cache(self, service):
        with service.serve() as gateway:
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            gateway.answer(0.0, 50.0, ALPHA, DELTA)
            snap = gateway.snapshot()
        assert snap["counters"]["gateway.served"] == 2
        assert snap["counters"]["broker.answers"] == 1
        assert snap["counters"]["broker.replays"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["histograms"]["gateway.latency_s"]["count"] == 2
        assert "gateway.dispatch_s" in snap["histograms"]
        # One coalescing wait per dispatch, never longer than a window
        # plus the wait for the dispatch lock (idle here).
        coalesce = snap["histograms"]["gateway.coalesce_s"]
        assert coalesce["count"] == snap["histograms"]["gateway.batch_width"]["count"]
        assert coalesce["max"] <= gateway.config.batch_window + 0.5

    def test_every_dispatch_counts_one_close_reason(self, service):
        config = ServingConfig(batch_window=0.01, max_batch=4, enable_cache=False)
        with service.serve(config=config) as gateway:
            for future in [
                gateway.submit_range(*RANGES[i % len(RANGES)], ALPHA, DELTA)
                for i in range(10)
            ]:
                future.result(timeout=10.0)
        # A gateway that never started drains its queue at stop().
        idle = service.serve(config=config)
        idle.submit_range(*RANGES[0], ALPHA, DELTA)
        idle.stop()
        for served, reasons in ((gateway, ("full", "window")), (idle, ("stop",))):
            counters = served.telemetry.snapshot()["counters"]
            closes = {
                name.rsplit(".", 1)[1]: count
                for name, count in counters.items()
                if name.startswith("gateway.batch_close.")
            }
            assert set(closes) <= set(reasons)
            widths = served.telemetry.histogram("gateway.batch_width")
            assert sum(closes.values()) == widths.count

    def test_dispatch_books_everything_before_its_first_future_resolves(self):
        """A dispatch writes every counter and histogram it touches before
        any caller sees an answer, and resolves in settlement order: cache
        hits, fresh rows by consumer in first-arrival order, duplicates."""
        service = build_service()
        released = service.broker.answer(
            RangeQuery(*RANGES[0]), TIERS[0], consumer="carol"
        )
        gateway = service.serve(config=ServingConfig(batch_window=0.05))
        gateway.cache.put(
            AnswerCache.key_for(
                released.query, released.spec,
                service.broker.base_station.store_version,
            ),
            released,
        )
        plan = [
            ("hit", RANGES[0], "alice"),
            ("f1", RANGES[1], "bob"),
            ("f2", RANGES[2], "alice"),
            ("f3", RANGES[3], "bob"),
            ("dup", RANGES[1], "alice"),
            ("f4", RANGES[4], "alice"),
        ]
        order, seen = [], []
        for name, (low, high), consumer in plan:
            future = gateway.submit_range(low, high, ALPHA, DELTA, consumer=consumer)
            future.add_done_callback(
                lambda f, name=name: (
                    order.append(name),
                    seen.append(gateway.telemetry.snapshot()),
                )
            )
        with gateway:  # the worker picks the whole queue up as one batch
            pass
        assert order == ["hit", "f1", "f3", "f2", "f4", "dup"]
        after = gateway.telemetry.snapshot()
        assert seen[0] == after
        counters = after["counters"]
        assert counters["gateway.served"] == 6
        assert counters["gateway.cache_replays"] == 2
        assert after["histograms"]["gateway.latency_s"]["count"] == 6
