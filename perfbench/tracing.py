"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps the public entry points of each layer -- class
attributes and module-level bindings, patched for the timed phase of a
traced round and restored afterwards -- and records one span per call:
name, start, end, parent span (the innermost traced call on the same
thread) and the gateway batch it ran in.  Spans stay in memory; the
per-layer metrics are computed from them after the round.  Nothing is
traced inside ``src/``.

A layer's *self* time is its span's duration minus the part covered by
its child spans.  End-to-end metrics never come from a traced round.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "serving.batch_width": "count",
    "serving.broker_calls_per_dispatch": "count",
    "serving.queue_wait_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.replay_ms": "ms",
    "serving.submit_us": "us",
    "core.answer_batch_self_ms": "ms",
    "core.plan_calls": "count",
    "estimators.estimate_many_ms": "ms",
    "estimators.ranges_per_call": "count",
    "privacy.noise_ms": "ms",
    "privacy.accountant_ms": "ms",
    "privacy.accountant_entries": "count",
    "pricing.ledger_ms": "ms",
    "durability.append_ms": "ms",
    "durability.records_per_append": "count",
    "durability.bytes_per_record": "B",
    "cluster.route_ms": "ms",
    "cluster.shards_touched": "count",
    "cluster.shard_call_ms": "ms",
    "cluster.scatter_parallelism": "ratio",
    "cluster.gather_self_ms": "ms",
    "cluster.shard_book_entries_per_answer": "count",
    "streaming.ingest_ms": "ms",
    "streaming.roll_ms": "ms",
    "streaming.misses_per_epoch": "count",
    "streaming.answer_batch_self_ms": "ms",
    "datasets.generate_s": "s",
    "iot.collect_s": "s",
    "iot.uplink_bytes": "B",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
}

#: (span id, name, start, end, parent id, batch id, size)
Span = Tuple[int, str, float, float, Optional[int], Optional[int], int]

_ACCOUNTANT = ("privacy.can_afford", "privacy.charge_many")
_LEDGER = ("pricing.record", "pricing.record_many")


def _size(position: int) -> Callable[[tuple], int]:
    """Length of the positional argument at ``position`` (0 = ``self``)."""
    return lambda args: len(args[position]) if len(args) > position else 0


def entry_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, size of call)`` for every wrapped entry."""
    import repro.core.broker as core_broker
    import repro.streaming.broker as streaming_broker
    from repro.cluster.broker import ClusterBroker
    from repro.core.planner import QueryPlanner
    from repro.durability.journal import TradeJournal
    from repro.estimators.rank import RankCountingEstimator
    from repro.pricing.ledger import BillingLedger
    from repro.privacy.budget import BudgetAccountant
    from repro.serving.answer_cache import AnswerCache
    from repro.serving.gateway import ServingGateway
    from repro.streaming.runtime import StreamingCluster

    return [
        (ServingGateway, "submit", "serving.submit", None),
        (AnswerCache, "get", "serving.cache_get", None),
        (AnswerCache, "put", "serving.cache_put", None),
        (core_broker.DataBroker, "answer_batch", "core.answer_batch", None),
        (core_broker.DataBroker, "replay", "core.replay", None),
        (ClusterBroker, "answer_batch", "cluster.answer_batch", None),
        (ClusterBroker, "replay", "cluster.replay", None),
        (ClusterBroker, "route_for_range", "cluster.route_for_range", None),
        (streaming_broker.StreamingBroker, "answer_batch", "streaming.answer_batch", None),
        (streaming_broker.StreamingBroker, "replay", "streaming.replay", None),
        (RankCountingEstimator, "estimate_many", "estimators.estimate_many", _size(2)),
        (core_broker, "sample_laplace_many", "privacy.noise", None),
        (streaming_broker, "sample_laplace_many", "privacy.noise", None),
        (BudgetAccountant, "can_afford", "privacy.can_afford", None),
        (BudgetAccountant, "charge_many", "privacy.charge_many", None),
        (BillingLedger, "record", "pricing.record", None),
        (BillingLedger, "record_many", "pricing.record_many", _size(1)),
        (TradeJournal, "append_many", "durability.append_many", _size(1)),
        (StreamingCluster, "ingest", "streaming.ingest", None),
        (StreamingCluster, "roll", "streaming.roll", None),
        (QueryPlanner, "plan", "core.plan", None),
    ]


def _union(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class Tracer:
    """In-memory span recorder around the layers' entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: batch id -> (dispatch start, batch width)
        self.batches: Dict[int, Tuple[float, int]] = {}
        #: id(request future) -> batch id it was dispatched in
        self.batch_of: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, size_of: Optional[Callable]):
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    span_id, name, start, end, parent,
                    getattr(local, "batch", None),
                    size_of(args) if size_of is not None else 0,
                ))

        return traced

    def _wrap_dispatch(self, fn):
        """Tag everything a gateway dispatch calls with its batch id.

        ``ServingGateway._dispatch`` is the one private hook: it is where a
        request meets its batch, which the queue-wait and coverage figures
        need.  It records no span of its own -- a span around the whole
        dispatch would make coverage trivially complete.
        """
        local, ids = self._local, self._ids

        @functools.wraps(fn)
        def traced(gateway, batch):
            batch_id = next(ids)
            self.batches[batch_id] = (time.perf_counter(), len(batch))
            for request in batch:
                self.batch_of[id(request.future)] = batch_id
            local.batch = batch_id
            try:
                return fn(gateway, batch)
            finally:
                local.batch = None

        return traced

    def install(self) -> None:
        from repro.serving.gateway import ServingGateway

        targets = [(ServingGateway, "_dispatch", None, None)] + entry_points()
        for owner, attribute, name, size_of in targets:
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            wrapped = (
                self._wrap_dispatch(original)
                if name is None
                else self._wrap(original, name, size_of)
            )
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # per-layer metrics
    # ------------------------------------------------------------------
    def layer_metrics(self, stack, loop) -> Dict[str, float]:
        spans = self.spans
        by_name: Dict[str, List[Span]] = defaultdict(list)
        children: Dict[int, List[Span]] = defaultdict(list)
        names = {span[0]: span[1] for span in spans}
        for span in spans:
            by_name[span[1]].append(span)
            if span[4] is not None:
                children[span[4]].append(span)

        def durations(*wanted: str, top_of: Tuple[str, ...] = ()) -> List[float]:
            """Durations (ms) of spans named ``wanted``; ``top_of`` drops
            spans nested inside another span of those names."""
            return [
                (s[3] - s[2]) * 1e3
                for name in wanted
                for s in by_name[name]
                if not (top_of and names.get(s[4]) in top_of)
            ]

        def self_ms(name: str) -> List[float]:
            return [
                (s[3] - s[2] - _union(((c[2], c[3]) for c in children[s[0]]), s[2], s[3])) * 1e3
                for s in by_name[name]
            ]

        top = {
            "DataBroker": "core",
            "ClusterBroker": "cluster",
            "StreamingBroker": "streaming",
        }[type(stack.broker).__name__]
        broker_calls = (f"{top}.answer_batch", f"{top}.replay")

        # Per batch: its first broker call, and its top-level spans.
        first_call: Dict[int, float] = {}
        top_level: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        calls_per_batch: Dict[int, int] = defaultdict(int)
        for span in spans:
            batch = span[5]
            if batch is None or span[4] is not None:
                continue
            top_level[batch].append((span[2], span[3]))
            if span[1] in broker_calls:
                first_call[batch] = min(first_call.get(batch, span[2]), span[2])
                if span[1] == broker_calls[0]:
                    calls_per_batch[batch] += 1

        waits: List[float] = []
        covered = latency = 0.0
        for sent, done, future, answer in zip(
            loop.submitted, loop.completed, loop.futures, loop.answers
        ):
            if answer is None:
                continue
            batch = self.batch_of[id(future)]
            start = first_call[batch]
            waits.append((start - sent) * 1e3)
            covered += (start - sent) + _union(top_level[batch], start, done)
            latency += done - sent

        shard_calls = [
            s for s in by_name["core.answer_batch"]
            if names.get(s[4]) == "cluster.answer_batch"
        ]
        gather: List[float] = []
        for s in by_name["cluster.answer_batch"]:
            kids = children[s[0]]
            scatter_end = max(
                (c[3] for c in kids if c[1] == "core.answer_batch"), default=s[2]
            )
            gather.append(
                (s[3] - scatter_end - _union(((c[2], c[3]) for c in kids), scatter_end, s[3])) * 1e3
            )
        scatter_s = stack.gateway.telemetry.histogram("cluster.scatter_s").sum
        shard_call_s = sum(s[3] - s[2] for s in shard_calls)

        appends = by_name["durability.append_many"]
        estimates = by_name["estimators.estimate_many"]
        return {
            "serving.batch_width": _mean([w for _, w in self.batches.values()]),
            "serving.broker_calls_per_dispatch": (
                sum(calls_per_batch.values()) / len(self.batches)
                if self.batches else 0.0
            ),
            "serving.queue_wait_ms": _mean(waits),
            "serving.replay_ms": _mean(durations(broker_calls[1])),
            "serving.submit_us": _mean(durations("serving.submit")) * 1e3,
            "core.answer_batch_self_ms": _mean(self_ms("core.answer_batch")),
            "core.plan_calls": float(len(by_name["core.plan"])),
            "estimators.estimate_many_ms": _mean(durations("estimators.estimate_many")),
            "estimators.ranges_per_call": _mean([s[6] for s in estimates]),
            "privacy.noise_ms": _mean(durations("privacy.noise")),
            "privacy.accountant_ms": _mean(durations(*_ACCOUNTANT, top_of=_ACCOUNTANT)),
            "pricing.ledger_ms": _mean(durations(*_LEDGER, top_of=_LEDGER)),
            "durability.append_ms": _mean(durations("durability.append_many")),
            "durability.records_per_append": _mean([s[6] for s in appends]),
            "cluster.route_ms": _mean(durations("cluster.route_for_range")),
            "cluster.shard_call_ms": _mean([(s[3] - s[2]) * 1e3 for s in shard_calls]),
            "cluster.scatter_parallelism": shard_call_s / scatter_s if scatter_s else 0.0,
            "cluster.gather_self_ms": _mean(gather),
            "streaming.ingest_ms": _mean(durations("streaming.ingest")),
            "streaming.roll_ms": _mean(durations("streaming.roll")),
            "streaming.answer_batch_self_ms": _mean(self_ms("streaming.answer_batch")),
            "trace.coverage": covered / latency if latency else 0.0,
        }


def untraced_layers(stack, loop) -> Dict[str, float]:
    """Layer counts the program keeps itself; valid in every round."""
    broker = stack.broker
    delivered = loop.attempted - loop.failed
    stats = stack.gateway.cache.stats
    lookups = stats.hits + stats.misses
    telemetry = stack.gateway.telemetry
    journal_bytes = stack.journal.path.stat().st_size
    return {
        "serving.cache_hit_ratio": stats.hits / lookups if lookups else 0.0,
        "privacy.accountant_entries": float(
            len(broker.accountant.history(broker.dataset))
        ),
        "durability.bytes_per_record": (
            journal_bytes / len(stack.journal) if len(stack.journal) else 0.0
        ),
        "cluster.shards_touched": telemetry.histogram("cluster.shards_touched").mean,
        "cluster.shard_book_entries_per_answer": (
            sum(len(shard.ledger) for shard in stack.shard_brokers) / delivered
        ),
        "streaming.misses_per_epoch": (
            stats.misses / len(stack.phases) if stack.stream is not None else 0.0
        ),
        "datasets.generate_s": stack.generate_s,
        "iot.collect_s": stack.collect_s,
        "iot.uplink_bytes": float(stack.uplink()),
    }
