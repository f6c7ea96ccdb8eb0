"""The serving gateway: queue, coalesce, dispatch through the batch path.

:class:`ServingGateway` is the traffic-bearing front door to a
:class:`~repro.core.broker.DataBroker`.  Concurrent consumers submit
range-counting requests and get back futures; a worker pool drains the
bounded request queue, coalesces whatever arrives inside a configurable
batching window, and dispatches each coalesced batch through the broker's
vectorized ``answer_batch`` -- so the 30x batched trading path is reached
by *uncoordinated* callers, not only by one caller hand-assembling a
batch.

The window is an upper bound, not a fixed wait.  A worker closes a batch
early once the queue has gone *quiet*: the batch is at least as wide as the
worker's last one, and nothing has arrived for eight times the 90th
percentile of the arrival gaps inside its recent batches.  A closed loop
(every client waiting on this batch) then dispatches as soon as its burst
is in, instead of idling out the window.  A paced stream keeps its width:
its batches close early only if the sender stalls for about eight of its
own gaps once the batch is already as wide as the last.  The 90th
percentile ignores the run of tiny gaps a sender makes when it catches up,
and the width condition ignores a pause part-way through a burst.  A
worker that has seen fewer than 16 gaps waits the full window.

Semantics, relative to direct broker calls:

* **Same books.** Every request is separately noised and separately
  charged; ledger entries, accountant history, and policy counters are
  entry-for-entry what the equivalent serial calls would write.  With the
  cache disabled, a single consumer's requests dispatched in one batch
  are *bit-identical* to ``answer_many`` over the same ranges (same
  generator stream, same order).
* **Reuse is free.** With the privacy-aware answer cache enabled, a
  request identical to an already-released one (same dataset, range,
  tier, and sample-store version) replays the released value: billed at
  list price, **ε′ = 0**, nothing charged to the accountant.  Duplicate
  requests coalesced into the same window are deduplicated the same way
  -- one fresh release, the rest replays.
* **Load is shed early.** Admission (rate limits, deposit quotas) and the
  bounded queue refuse work *before* any data is touched; refusals never
  bill and never spend ε.

Thread model: ``submit`` may be called from any number of threads.  It
takes one short intake lock, to count the request against
``queue_depth`` (an exact bound on admitted requests not yet taken into
a dispatch), and hands the request to an unbounded
:class:`queue.SimpleQueue`; it writes no metric.  Worker sentinels
(``stop``, ``kill_worker``) go through the same queue uncounted, so they
never block.  Workers coalesce independently but dispatch under one
lock -- the broker mutates shared state (RNG stream, ledger,
accountant), so dispatch is serialized by design; concurrency buys
queueing/coalescing overlap and keeps callers unblocked, while
throughput comes from batch width.  Everything a request costs beyond
its future is paid per dispatch on the worker: the dispatch takes its
batch off the queued count and publishes ``gateway.submitted`` and
``gateway.queue_depth`` (counters kept locally, merged when read:
:meth:`ServingGateway.snapshot` adds any count not yet published), then
builds cache keys, coalescing and broker rows column by column.

Each request is its own :class:`concurrent.futures.Future`, and every
request of a gateway shares the gateway's one condition instead of
building a lock of its own.  Futures are claimed and resolved once per
dispatch under that condition: taking a batch claims all its requests at
once (a request cancelled while queued leaves the batch there, before any
data is touched: never billed, no ε spent, its admission reservation
released, counted in ``gateway.cancelled``), and settling a dispatch sets
every outcome, in settlement order, in one acquisition with one
``notify_all``.  Done-callbacks then run in the same order, still under
the dispatch lock, after every book and metric of the dispatch is
written.  Because one condition wakes every waiter of the gateway,
``result()`` and ``exception()`` wait on a predicate (this future
settled), never on a bare wake-up.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
# The stdlib's future states; stable since Python 3.2, and pinned by the
# gateway's future-contract tests.
from concurrent.futures._base import (
    CANCELLED,
    CANCELLED_AND_NOTIFIED,
    FINISHED,
    PENDING,
    RUNNING,
)
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.core.broker import DataBroker
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.errors import (
    BrownoutShedError,
    DeadlineExceededError,
    GatewayClosedError,
    ServiceOverloadedError,
)
from repro.resilience.brownout import BrownoutController, OverloadSignals
from repro.resilience.deadline import Deadline, deadline_scope
from repro.serving.admission import AdmissionController
from repro.serving.answer_cache import AnswerCache, CacheKey
from repro.serving.telemetry import MetricsRegistry

__all__ = ["ServingConfig", "ServingGateway"]

#: Window (dispatched requests) over which the deadline-miss rate that
#: feeds the brownout ladder is measured.
_MISS_RATE_WINDOW = 128

#: Arrival gaps a worker remembers (about four 64-wide batches).
_GAP_HISTORY = 256
#: Gaps a worker must have seen before it closes a batch on a quiet gap.
_MIN_GAPS = 16
#: The quiet gap is this many times the remembered gaps' 90th percentile.
_QUIET_FACTOR = 8.0


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of the gateway.

    Parameters
    ----------
    batch_window:
        Upper bound, in seconds from the oldest queued request's arrival,
        on how long a worker waits for more requests to coalesce into the
        same broker batch.  The worker closes the batch sooner once
        arrivals stop: no new request for a quiet gap it derives from
        the arrival spacing of its past batches, once the batch is as
        wide as its last one (see the module docstring).
        Requests already queued join the batch (up to ``max_batch``) even
        once the window has passed; ``0`` dispatches one request at a
        time.  The fundamental latency/throughput dial: larger windows
        allow wider batches (more amortization) from a paced stream but
        add up to ``batch_window`` of queueing latency per request.
    max_batch:
        Hard cap on coalesced batch width; a full batch dispatches
        immediately without waiting out the window.
    queue_depth:
        Bound on queued (admitted, undispatched) requests; a full queue
        sheds with :class:`~repro.errors.ServiceOverloadedError`.
    workers:
        Worker threads draining the queue.  Dispatch itself is serialized
        (the broker is stateful); extra workers only overlap coalescing
        with dispatch, so 1-2 is almost always right.
    enable_cache:
        Whether to attach a privacy-aware :class:`AnswerCache` (when no
        explicit cache instance is handed to the gateway).
    cache_capacity:
        Capacity of that auto-created cache.
    request_ttl:
        Per-request queueing deadline in seconds (``None`` disables).  A
        request that has sat in the queue longer than this when its batch
        dispatches fails fast with
        :class:`~repro.errors.DeadlineExceededError` instead of riding a
        late batch -- before any data is touched, so it is never billed
        and never spends ε.
    """

    batch_window: float = 0.002
    max_batch: int = 128
    queue_depth: int = 1024
    workers: int = 1
    enable_cache: bool = True
    cache_capacity: int = 4096
    request_ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        if self.request_ttl is not None and self.request_ttl <= 0:
            raise ValueError("request_ttl must be positive (or None)")


#: States in which a future's outcome is fixed: ``result()`` no longer waits.
_SETTLED = frozenset((CANCELLED, CANCELLED_AND_NOTIFIED, FINISHED))


class _Request(Future[PrivateAnswer]):
    """One admitted request on its way to a dispatch, and its own future.

    A stock :class:`~concurrent.futures.Future` whose lock is the
    gateway's one condition: the gateway claims and resolves its requests
    a dispatch at a time under that condition (see the module docstring).
    Only the waits are overridden, because a shared condition wakes every
    waiter at each dispatch; everything else is the stdlib's.
    """

    # Stdlib internals the type stubs leave out.
    _done_callbacks: "List[Callable[[Future[PrivateAnswer]], object]]"
    _invoke_callbacks: Callable[[], None]

    def __init__(
        self,
        condition: threading.Condition,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str,
        admitted_price: float,
        deadline: Optional[Deadline],
    ) -> None:
        # Future.__init__ would build a Condition per request; the
        # gateway's shared one stands in for it.
        self._condition = condition
        self._state = PENDING  # guarded-by: _condition
        self._result = None  # guarded-by: _condition
        self._exception = None  # guarded-by: _condition
        self._waiters = []  # guarded-by: _condition
        self._done_callbacks = []  # guarded-by: _condition
        self.query = query
        self.spec = spec
        self.consumer = consumer
        self.enqueued_at = time.perf_counter()
        #: the quote reserved with admission at submit time (0.0 without
        #: admission); released verbatim on finish/fail so a
        #: brownout-repriced answer can never strand or over-release a
        #: reservation.
        self.admitted_price = admitted_price
        self.deadline = deadline

    @property
    def future(self) -> "_Request":
        """The request's future: the request itself."""
        return self

    def result(self, timeout: Optional[float] = None) -> PrivateAnswer:
        self._wait(timeout)
        return super().result(0)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        self._wait(timeout)
        return super().exception(0)

    def _wait(self, timeout: Optional[float]) -> None:
        """Block until this future settles or ``timeout`` passes.

        The condition is the gateway's, so a wake-up may be another
        dispatch's: wait on the predicate, not on one notification.
        """
        # Benign race: a lock-free fast-path read.  A settled state never
        # changes again; a stale unsettled read just takes the lock.
        if self._state in _SETTLED:  # repro-lint: disable=RL003
            return
        with self._condition:
            self._condition.wait_for(self._settled, timeout)

    def _settled(self) -> bool:  # holds: _condition
        return self._state in _SETTLED


#: A dispatched request, its outcome, and whether it was served as a replay.
_Settled = Tuple[_Request, "PrivateAnswer | Exception", bool]

#: Queue sentinel telling a worker to exit.
_STOP = object()

#: Queue sentinel simulating a worker crash: the receiving worker exits
#: immediately (without closing the gateway), leaving queued requests for
#: a later :meth:`ServingGateway.spawn_worker` or for ``stop()``'s drain.
_KILL = object()


def _quiet_gap(gaps: "Deque[float]") -> Optional[float]:
    """Silence after which a worker may close its batch early, or ``None``
    (wait out the window) while it has seen too few arrival gaps."""
    if len(gaps) < _MIN_GAPS:
        return None
    return _QUIET_FACTOR * sorted(gaps)[int(0.9 * (len(gaps) - 1))]


class ServingGateway:
    """Concurrent, coalescing, cached, admission-controlled query server.

    Parameters
    ----------
    broker:
        The answering :class:`~repro.core.broker.DataBroker`.
    config:
        Gateway tuning; defaults to :class:`ServingConfig()`.
    telemetry:
        Metrics registry; a fresh one is created when omitted and is also
        attached to the broker (if the broker has none) so ``broker.*``
        stage timers land in the same snapshot.
    cache:
        Privacy-aware answer cache; auto-created per
        ``config.enable_cache`` when omitted.  The cache is bound to the
        broker's base station so store commits purge stale entries.
    admission:
        Optional :class:`AdmissionController`; its ledger defaults to the
        broker's billing ledger.
    brownout:
        Optional :class:`~repro.resilience.brownout.BrownoutController`.
        When present the gateway feeds it overload signals at every
        dispatch and applies its ladder decisions to fresh requests;
        omitted means no brownout (current behaviour, bit-identical).
    clock:
        Monotonic-seconds callable used for request deadlines; defaults
        to ``time.monotonic``.  Deterministic drills inject a manual
        clock so deadline misses land identically in same-seed reruns.
    """

    def __init__(
        self,
        broker: DataBroker,
        config: Optional[ServingConfig] = None,
        telemetry: Optional[MetricsRegistry] = None,
        cache: Optional[AnswerCache] = None,
        admission: Optional[AdmissionController] = None,
        brownout: Optional[BrownoutController] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.broker = broker
        self.config = config or ServingConfig()
        self.brownout = brownout
        self.clock: Callable[[], float] = clock or time.monotonic
        #: rolling outcome of recent dispatched requests (True = expired
        #: in queue); guarded by the dispatch lock.
        self._miss_window: Deque[bool] = deque(maxlen=_MISS_RATE_WINDOW)
        self.telemetry = telemetry if telemetry is not None else MetricsRegistry()
        if broker.telemetry is None:
            broker.telemetry = self.telemetry
        if cache is None and self.config.enable_cache:
            cache = AnswerCache(
                capacity=self.config.cache_capacity, telemetry=self.telemetry
            )
        self.cache = cache
        if self.cache is not None:
            if self.cache.telemetry is None:
                self.cache.telemetry = self.telemetry
            self.cache.bind_station(broker.base_station)
        self.admission = admission
        if self.admission is not None and self.admission.ledger is None:
            self.admission.ledger = broker.ledger
        #: Admitted requests and worker sentinels, in arrival order.  The
        #: queue itself is unbounded: ``_queued`` bounds the requests, so
        #: a sentinel never counts against ``queue_depth`` and never blocks.
        self._inbox: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._intake_lock = threading.Lock()
        #: Admitted requests not yet taken into a dispatch.
        self._queued = 0  # guarded-by: _intake_lock
        #: Admitted requests not yet counted in ``gateway.submitted``;
        #: each dispatch publishes them, and :meth:`snapshot` adds them.
        self._unpublished = 0  # guarded-by: _intake_lock
        #: Set by :meth:`stop` before it drains: a request counted and
        #: put on the inbox under this lock before then is drained, and
        #: one that comes after is refused.
        self._intake_closed = False  # guarded-by: _intake_lock
        #: The one condition of every request future of this gateway; it
        #: guards each request's future state (see ``_Request.__init__``).
        #: An ``RLock`` underneath, since ``concurrent.futures.wait`` takes
        #: it once per future.  A dispatch takes it once to claim its
        #: batch and once to resolve it.
        self._condition = threading.Condition()
        self._dispatch_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._threads: List[threading.Thread] = []  # guarded-by: _state_lock
        self._started = False  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _state_lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingGateway":
        """Spawn the worker pool.  Requests may be submitted before this;
        they sit in the queue (in FIFO order) until workers come up."""
        with self._state_lock:
            if self._closed:
                raise GatewayClosedError("gateway already stopped")
            if self._started:
                return self
            self._started = True
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker, name=f"repro-serve-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the queue, settle every pending future, stop the workers.

        Idempotent.  Requests submitted after ``stop`` raise
        :class:`~repro.errors.GatewayClosedError`.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        with self._intake_lock:
            self._intake_closed = True
        for _ in threads:
            self._inbox.put(_STOP)
        for thread in threads:
            thread.join()
        # Never-started gateways (or anything racing past the sentinels)
        # still drain synchronously so no future is left dangling.
        self._drain_remaining()

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        with self._state_lock:
            return self._started and not self._closed

    @property
    def alive_workers(self) -> int:
        """Worker threads currently running (kills and exits excluded)."""
        with self._state_lock:
            return sum(1 for thread in self._threads if thread.is_alive())

    def pending(self) -> int:
        """Requests currently queued (admitted, not yet dispatched)."""
        with self._intake_lock:
            return self._queued

    # ------------------------------------------------------------------
    # fault injection / recovery hooks (used by repro.chaos)
    # ------------------------------------------------------------------
    def kill_worker(self) -> None:
        """Crash one worker: it finishes the batch in hand, then exits.

        The gateway stays open -- queued and later-submitted requests wait
        (FIFO) until :meth:`spawn_worker` brings a replacement up, or
        until ``stop()`` drains them synchronously.  Counted under
        ``gateway.worker_kills``.
        """
        with self._state_lock:
            if self._closed:
                raise GatewayClosedError("gateway already stopped")
            if not self._started:
                raise GatewayClosedError("gateway not started")
        self._inbox.put(_KILL)
        self.telemetry.inc("gateway.worker_kills")

    def spawn_worker(self) -> None:
        """Start one replacement worker (restart after :meth:`kill_worker`).

        Counted under ``gateway.worker_restarts``.
        """
        with self._state_lock:
            if self._closed:
                raise GatewayClosedError("gateway already stopped")
            self._started = True
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-serve-r{len(self._threads)}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self.telemetry.inc("gateway.worker_restarts")

    @contextmanager
    def quiesce(self) -> "Iterator[None]":
        """Hold the dispatch lock: no batch is mid-dispatch while inside.

        The consistent boundary for crash injection and recovery -- the
        broker's journal, ledger, and accountant all agree here, because
        every trade's journal-append and charge happen under this lock.
        """
        with self._dispatch_lock:
            yield

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> "Future[PrivateAnswer]":
        """Enqueue one request; returns a future for its answer.

        Raises (sheds) without queuing anything:
        :class:`~repro.errors.GatewayClosedError` after ``stop``;
        :class:`~repro.errors.RateLimitedError` /
        :class:`~repro.errors.QuotaExceededError` from admission;
        :class:`~repro.errors.ServiceOverloadedError` when the queue is
        full.
        """
        # Benign race: a lock-free fast-path read.  A submit racing stop()
        # is refused under the intake lock below.
        if self._closed:  # repro-lint: disable=RL003
            raise GatewayClosedError("gateway is stopped")
        if self.brownout is not None:
            retry_after = self.brownout.maybe_shed()
            if retry_after is not None:
                self.telemetry.inc("gateway.brownout.shed")
                raise BrownoutShedError(
                    "gateway is at the shed brownout rung; retry after "
                    f"{retry_after:.3f}s",
                    retry_after=retry_after,
                )
        # Only admission reads the quote.
        price = 0.0
        if self.admission is not None:
            price = self.broker.quote(spec)
            self.admission.admit(consumer, price)
        deadline: Optional[Deadline] = None
        if self.config.request_ttl is not None:
            deadline = Deadline.after(self.config.request_ttl, clock=self.clock)
        request = _Request(self._condition, query, spec, consumer, price, deadline)
        # Counted and enqueued in one intake section, so stop() either
        # drains this request or it is refused here.
        with self._intake_lock:
            closed = self._intake_closed
            admitted = not closed and self._queued < self.config.queue_depth
            if admitted:
                self._queued += 1
                self._unpublished += 1
                self._inbox.put(request)
        if not admitted:
            if self.admission is not None:
                self.admission.release(consumer, price)
            if closed:
                raise GatewayClosedError("gateway is stopped")
            self.telemetry.inc("gateway.shed")
            raise ServiceOverloadedError(
                f"request queue is full ({self.config.queue_depth} deep); "
                "retry later or widen the batching window"
            )
        return request

    def submit_range(
        self,
        low: float,
        high: float,
        alpha: float,
        delta: float,
        consumer: str = "anonymous",
    ) -> "Future[PrivateAnswer]":
        """Convenience: build the query/spec pair and :meth:`submit` it."""
        query = RangeQuery(low=low, high=high, dataset=self.broker.dataset)
        return self.submit(query, AccuracySpec(alpha=alpha, delta=delta),
                           consumer=consumer)

    def answer(
        self,
        low: float,
        high: float,
        alpha: float,
        delta: float,
        consumer: str = "anonymous",
        timeout: Optional[float] = None,
    ) -> PrivateAnswer:
        """Blocking submit: wait for the coalesced answer."""
        return self.submit_range(
            low, high, alpha, delta, consumer=consumer
        ).result(timeout=timeout)

    def snapshot(self) -> Dict[str, object]:
        """Telemetry snapshot plus cache stats, JSON-ready.

        ``gateway.submitted`` also counts the requests admitted since the
        last dispatch published the count.
        """
        snap: Dict[str, object] = dict(self.telemetry.snapshot())
        # Read after the snapshot, so it never counts fewer submissions
        # than the snapshot's served and failed requests.
        with self._intake_lock:
            unpublished = self._unpublished
            submitted = self.telemetry.value("gateway.submitted") + unpublished
        if unpublished:
            counters = cast(Dict[str, float], snap["counters"])
            snap["counters"] = dict(
                sorted({**counters, "gateway.submitted": submitted}.items())
            )
        if self.cache is not None:
            stats = self.cache.stats
            snap["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "size": stats.size,
                "hit_rate": stats.hit_rate,
            }
        return snap

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        window = self.config.batch_window
        # What this worker has seen of the stream: the arrival gaps inside
        # its recent batches, and its last batch's width.  Locals, not
        # gateway state: each worker learns on its own, with no lock.
        gaps: Deque[float] = deque(maxlen=_GAP_HISTORY)
        width = self.config.max_batch
        while True:
            first = self._inbox.get()
            if not isinstance(first, _Request):  # _STOP or _KILL
                return
            batch = [first]
            # The window runs from the oldest request's arrival, not from
            # pickup, so time spent queued counts against it.  Once it has
            # passed, a zero timeout still drains what is already queued
            # (up to max_batch); a zero window keeps width-1 batches in
            # FIFO order.
            deadline = first.enqueued_at + window
            quiet = _quiet_gap(gaps)
            last = first.enqueued_at
            reason = "window"
            while window > 0:
                if len(batch) >= self.config.max_batch:
                    reason = "full"
                    break
                # A batch may close on a quiet gap only once it is as wide
                # as the last one: a pause part-way through a burst, or a
                # paced stream slower than the gap estimate, waits on.
                close = deadline
                if quiet is not None and len(batch) >= width:
                    close = min(deadline, last + quiet)
                try:
                    item = self._inbox.get(
                        timeout=max(close - time.perf_counter(), 0.0)
                    )
                except queue.Empty:
                    if close < deadline:
                        reason = "quiet"
                    break
                if not isinstance(item, _Request):  # _STOP or _KILL
                    # A killed worker still dispatches the batch in hand
                    # (requeueing would break FIFO order); surviving a
                    # crash *mid-charge* is the journal's job, not the
                    # queue's.
                    reason = "stop"
                    break
                batch.append(item)
                gaps.append(item.enqueued_at - last)
                last = max(last, item.enqueued_at)
            self.telemetry.inc(f"gateway.batch_close.{reason}")
            self._dispatch(batch)
            if reason == "stop":
                return
            width = len(batch)

    def _drain_remaining(self) -> None:
        batch: List[_Request] = []
        while True:
            try:
                item = self._inbox.get_nowait()
            except queue.Empty:
                break
            if item is _STOP or item is _KILL:
                continue
            batch.append(item)
        if batch:
            self.telemetry.inc("gateway.batch_close.stop")
            self._dispatch(batch)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _take(self, count: int) -> None:
        """Take ``count`` queued requests into a dispatch, and publish the
        intake's counters: once per dispatch, not once per request."""
        with self._intake_lock:
            self._queued -= count
            queued, submitted = self._queued, self._unpublished
            self._unpublished = 0
            # Still under the lock, so snapshot() never counts them twice.
            if submitted:
                self.telemetry.inc("gateway.submitted", submitted)
        self.telemetry.set_gauge("gateway.queue_depth", queued)

    def _dispatch(self, batch: "List[_Request]") -> None:
        self._take(len(batch))
        batch = self._claim(batch)
        if not batch:
            return
        with self._dispatch_lock:
            started = time.perf_counter()
            settled = self._dispatch_locked(batch)
            self._book(settled)
            self.telemetry.observe(
                "gateway.dispatch_s", time.perf_counter() - started
            )
            # Every book and metric of the dispatch is written before any
            # caller sees its answer; futures resolve in settlement order.
            self._resolve(settled)

    def _claim(self, batch: "List[_Request]") -> "List[_Request]":
        """Take a batch's futures into a dispatch, under one acquisition.

        The stdlib's ``set_running_or_notify_cancel``, once per batch: a
        pending request starts running (``cancel()`` now fails); one
        cancelled while queued is marked notified, its ``wait()`` and
        ``as_completed()`` waiters are told, and it leaves the batch
        before any data is touched -- never billed, no ε spent, its
        admission reservation released.
        """
        claimed: List[_Request] = []
        cancelled: List[_Request] = []
        with self._condition:
            for request in batch:
                if request._state == PENDING:
                    request._state = RUNNING
                    claimed.append(request)
                else:  # cancelled while queued
                    request._state = CANCELLED_AND_NOTIFIED
                    for waiter in request._waiters:
                        waiter.add_cancelled(request)
                    cancelled.append(request)
        if cancelled:
            if self.admission is not None:
                for request in cancelled:
                    self.admission.release(request.consumer, request.admitted_price)
            self.telemetry.inc("gateway.cancelled", len(cancelled))
        return claimed

    def _resolve(self, settled: "List[_Settled]") -> None:
        """Set every outcome of a dispatch under one acquisition and one
        ``notify_all``, then run the done-callbacks in settlement order."""
        with self._condition:
            for request, outcome, _ in settled:
                request._state = FINISHED
                if isinstance(outcome, Exception):
                    request._exception = outcome
                    for waiter in request._waiters:
                        waiter.add_exception(request)
                else:
                    request._result = outcome
                    for waiter in request._waiters:
                        waiter.add_result(request)
            self._condition.notify_all()
        for request, _, _ in settled:
            request._invoke_callbacks()

    def _dispatch_locked(self, batch: "List[_Request]") -> "List[_Settled]":
        """Serve one batch: each request with its outcome, in resolution
        order, and whether it was a replay.

        Column-wise: requests are named by their position in the batch,
        and each step is one pass over the positions it concerns.
        """
        self.telemetry.observe("gateway.batch_width", len(batch))
        # batch[0] is the oldest request (the queue is FIFO).
        self.telemetry.observe(
            "gateway.coalesce_s", time.perf_counter() - batch[0].enqueued_at
        )
        settled: "List[_Settled]" = []

        # 0. Deadline check: requests past their deadline fail fast,
        #    before any billing or budget is touched.  Only a gateway
        #    with a request_ttl gives requests a deadline.
        if self.config.request_ttl is None:
            self._miss_window.extend([False] * len(batch))
        else:
            fresh_enough: List[_Request] = []
            for request in batch:
                deadline = cast(Deadline, request.deadline)
                if deadline.expired():
                    self._miss_window.append(True)
                    settled.append((request, DeadlineExceededError(
                        f"request from {request.consumer!r} sat in the queue "
                        f"{-deadline.remaining():.3f}s past its deadline"
                    ), False))
                else:
                    self._miss_window.append(False)
                    fresh_enough.append(request)
            if settled:
                self.telemetry.inc("gateway.deadline_exceeded", len(settled))
            batch = fresh_enough
        self._observe_overload()
        if not batch:
            return settled

        store_version = self.broker.base_station.store_version
        queries = [request.query for request in batch]
        specs = [request.spec for request in batch]
        # Range-aware brokers key cached releases on the route signature
        # too (pruned/exact-cover answers must never alias a broadcast).
        sig_fn = getattr(self.broker, "routing_signature", None)

        def keys_at(
            at_queries: List[RangeQuery], at_specs: List[AccuracySpec], version: int
        ) -> List[CacheKey]:
            routing = (
                None if sig_fn is None else list(map(sig_fn, at_queries, at_specs))
            )
            return AnswerCache.keys_for(at_queries, at_specs, version, routing)

        # 1. Cache hits: identical to an already-released answer at the
        #    current store version -- replayed at list price, ε′ = 0.
        # 2. In-window coalescing of the misses: the first occurrence of
        #    a (query, tier) key is released fresh, later occurrences
        #    replay it -- exactly the cache semantics, inside one window.
        hits: List[int] = []  # batch positions
        found: "List[Optional[PrivateAnswer]]" = []
        fresh: List[int] = []  # batch positions
        dups: List[Tuple[int, int]] = []  # (batch position, index into fresh)
        keys: List[CacheKey] = []
        if self.cache is None:
            fresh = list(range(len(batch)))
        else:
            keys = keys_at(queries, specs, store_version)
            found = self.cache.get_many(keys)
            first: Dict[CacheKey, int] = {}
            for i, hit in enumerate(found):
                if hit is not None:
                    hits.append(i)
                    continue
                source = first.setdefault(keys[i], len(fresh))
                if source == len(fresh):
                    fresh.append(i)
                else:
                    dups.append((i, source))

        # 2b. Brownout ladder: a fresh request may be served at an
        #     explicitly weaker contract (wider α, lower reported δ).
        #     The served spec re-enters the normal plan/price path, so
        #     the weaker contract is the one journaled and billed; the
        #     answer carries both specs for provenance.
        served_specs = [specs[i] for i in fresh]
        rungs: List[str] = []
        live: List[int] = []  # indexes into fresh that were not shed
        if self.brownout is None:
            live = list(range(len(fresh)))
        else:
            rungs = ["none"] * len(fresh)
            for idx, i in enumerate(fresh):
                decision = self.brownout.decide(specs[i])
                if decision.served is None:
                    # The ladder climbed to shed while this request sat
                    # queued.  Refuse it now: never billed, never planned.
                    self.telemetry.inc("gateway.brownout.shed")
                    settled.append((batch[i], BrownoutShedError(
                        "gateway reached the shed brownout rung while the "
                        "request was queued",
                        retry_after=self.brownout.config.retry_after,
                    ), False))
                    continue
                served_specs[idx] = decision.served
                if decision.served != specs[i]:
                    rungs[idx] = decision.rung
                live.append(idx)

        # 3. One broker call for the whole dispatch, rows in this order:
        #    cache hits as replays; fresh releases grouped by consumer
        #    (accounting is per consumer) in first-arrival order; then
        #    in-window duplicates as replays of their source row.  The
        #    kernel admits and deadline-checks each consumer on its own,
        #    so a refusal fails only that consumer's rows; the call runs
        #    under the latest member deadline so shared stages (cluster
        #    fan-out) never abort a row that still has time.
        groups: Dict[str, List[int]] = {}
        for idx in live:
            groups.setdefault(batch[fresh[idx]].consumer, []).append(idx)
        grouped = [idx for members in groups.values() for idx in members]
        first_row = len(hits)
        row_of = dict(zip(grouped, range(first_row, first_row + len(grouped))))
        copies = [(i, source) for i, source in dups if source in row_of]
        hit_answers = cast("List[PrivateAnswer]", [found[i] for i in hits])
        rows = (
            [batch[i] for i in hits]
            + [batch[fresh[idx]] for idx in grouped]
            + [batch[i] for i, _ in copies]
        )
        row_queries = (
            [answer.query for answer in hit_answers]
            + [queries[fresh[idx]] for idx in grouped]
            + [queries[fresh[source]] for _, source in copies]
        )
        row_specs = (
            [answer.spec for answer in hit_answers]
            + [served_specs[idx] for idx in grouped]
            + [served_specs[source] for _, source in copies]
        )
        replays: "Dict[int, PrivateAnswer | int]" = {}
        replays.update(enumerate(hit_answers))
        replays.update(zip(
            range(first_row + len(grouped), len(rows)),
            [row_of[source] for _, source in copies],
        ))
        deadlines: "Optional[List[Optional[Deadline]]]" = None
        latest: Optional[Deadline] = None
        if self.config.request_ttl is not None:
            deadlines = [request.deadline for request in rows]
            known = cast("List[Deadline]", deadlines[first_row:first_row + len(grouped)])
            if known:
                latest = max(known, key=lambda d: d.expires_at)

        outcomes: "Sequence[PrivateAnswer | Exception]" = []
        if rows:
            self.telemetry.inc("gateway.broker_calls")
            try:
                with deadline_scope(latest):
                    outcomes = self.broker.answer_batch(
                        row_queries, row_specs,
                        [request.consumer for request in rows],
                        replays=replays, deadlines=deadlines,
                    )
            except Exception as exc:  # repro-lint: shed -- fail every row of the call
                outcomes = [exc] * len(rows)

        expired = {
            id(outcome) for outcome in outcomes
            if isinstance(outcome, DeadlineExceededError)
        }
        if expired:
            # One count per refused consumer group or replay.
            self.telemetry.inc("gateway.deadline_exceeded", len(expired))

        # Each fresh request's answer (None if refused), under brownout
        # marked with the rung it was served at.
        fresh_outcomes = outcomes[first_row:first_row + len(grouped)]
        fresh_answers: "List[Optional[PrivateAnswer]]" = [None] * len(fresh)
        for idx, outcome in zip(grouped, fresh_outcomes):
            if isinstance(outcome, Exception):
                continue
            if rungs and rungs[idx] != "none":
                self.telemetry.inc(f"gateway.brownout.{rungs[idx]}")
                outcome = replace(
                    outcome,
                    brownout_rung=rungs[idx],
                    requested_spec=specs[fresh[idx]],
                )
            fresh_answers[idx] = outcome

        # 4. Populate the cache at the *post-dispatch* store version (a
        #    top-up during answer_batch bumps it; keys must match future
        #    lookups against the new store).
        if self.cache is not None:
            # Brownout-degraded releases are never cached: once the
            # ladder descends, an identical request must get its full
            # contract again, not a replay of the weakened one.  A
            # mid-dispatch top-up bumps the version and can flip the
            # route; future lookups key against that state.
            cacheable = [
                (i, answer) for i, answer in zip(fresh, fresh_answers)
                if answer is not None and answer.brownout_rung == "none"
            ]
            post_version = self.broker.base_station.store_version
            new_keys = (
                [keys[i] for i, _ in cacheable]
                if post_version == store_version
                else keys_at(
                    [queries[i] for i, _ in cacheable],
                    [specs[i] for i, _ in cacheable],
                    post_version,
                )
            )
            self.cache.put_many(zip(new_keys, [answer for _, answer in cacheable]))

        # 5. Settlement order: cache hits, then fresh rows, then
        #    duplicates as replays of their in-window source.
        settled.extend(self._replayed(list(zip(rows, outcomes[:first_row]))))
        settled.extend(
            (rows[row], outcome if answer is None else answer, False)
            for row, answer, outcome in zip(
                range(first_row, len(rows)),
                [fresh_answers[idx] for idx in grouped],
                fresh_outcomes,
            )
        )
        copy_outcomes = iter(outcomes[first_row + len(grouped):])
        dup_replays: "List[Tuple[_Request, PrivateAnswer | Exception]]" = []
        for i, source in dups:
            # The copy of a shed source has no row of its own.
            copied = next(copy_outcomes) if source in row_of else None
            answer = fresh_answers[source]
            if copied is None or answer is None:
                copied = ServiceOverloadedError(
                    "coalesced source release failed; retry"
                )
            elif not isinstance(copied, Exception) and answer.brownout_rung != "none":
                copied = replace(
                    copied,
                    brownout_rung=answer.brownout_rung,
                    requested_spec=answer.requested_spec,
                )
            dup_replays.append((batch[i], copied))
        settled.extend(self._replayed(dup_replays))
        return settled

    def _observe_overload(self) -> None:
        """Feed one overload sample to the brownout ladder (if attached)."""
        if self.brownout is None:
            return
        open_fraction_fn = getattr(
            self.broker, "breaker_open_fraction", None
        )
        miss_rate = (
            sum(self._miss_window) / len(self._miss_window)
            if self._miss_window
            else 0.0
        )
        level = self.brownout.observe(OverloadSignals(
            queue_fraction=min(1.0, self.pending() / self.config.queue_depth),
            breaker_open_fraction=(
                float(open_fraction_fn()) if open_fraction_fn else 0.0
            ),
            deadline_miss_rate=miss_rate,
        ))
        self.telemetry.set_gauge("gateway.brownout_level", level)

    def _replayed(
        self, replays: "List[Tuple[_Request, PrivateAnswer | Exception]]"
    ) -> "List[_Settled]":
        """Replay outcomes as settled; under brownout, marked ``cache``."""
        settled: "List[_Settled]" = []
        cache_rung = 0
        for request, outcome in replays:
            if isinstance(outcome, Exception):
                settled.append((request, outcome, False))
                continue
            if self.brownout is not None and self.brownout.level >= 1:
                # Rung 1: cache-preferred service under pressure.  A
                # replay costs ε = 0 by construction; annotate so
                # operators can see the ladder working in answer
                # provenance.
                cache_rung += 1
                outcome = replace(outcome, brownout_rung="cache")
            settled.append((request, outcome, True))
        if cache_rung:
            self.telemetry.inc("gateway.brownout.cache", cache_rung)
        return settled

    def _book(self, settled: "List[_Settled]") -> None:
        """Release admission and count a dispatch's outcomes, once each.

        Latencies are stamped now, as the dispatch resolves.
        """
        now = time.perf_counter()
        if self.admission is not None:
            for request, _, _ in settled:
                self.admission.release(request.consumer, request.admitted_price)
        served = [
            request for request, outcome, _ in settled
            if not isinstance(outcome, Exception)
        ]
        failed = len(settled) - len(served)
        replays = sum(replay for _, _, replay in settled)
        telemetry = self.telemetry
        if self.config.request_ttl is not None:
            # Invariant detector, not control flow: dispatch checks and
            # broker-side deadline checkpoints should make this
            # impossible; the overload drill asserts it stays zero.
            late = sum(
                1 for request in served
                if cast(Deadline, request.deadline).expired()
            )
            if late:
                telemetry.inc("gateway.post_deadline_release", late)
        if replays:
            telemetry.inc("gateway.cache_replays", replays)
        if served:
            telemetry.inc("gateway.served", len(served))
            telemetry.observe_many(
                "gateway.latency_s",
                [now - request.enqueued_at for request in served],
            )
        if failed:
            telemetry.inc("gateway.failed", failed)
