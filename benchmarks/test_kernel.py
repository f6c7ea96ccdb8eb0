"""The settlement kernel alone: direct 64-row dispatches, no gateway.

``fresh_trades``'s release path without the serving gateway's batching
window or a closed-loop driver: the plain broker over the paper-scale
CityPulse surrogate (16 devices) with a file-backed trade journal,
driven by 47 direct ``DataBroker.answer_batch`` calls of 64 distinct
``(range, tier)`` rows over 4 consumers -- the shape of one gateway
dispatch.  Each book's bulk entry point is timed where the kernel calls
it, and the report gives microseconds per row for

* ``intake`` -- ``open_batch`` plus ``admit``: the batch's validation,
  policy admission and budget admission;
* ``records`` -- building the dispatch's one columnar record;
* ``journal`` -- ``TradeJournal.append_many`` (one ``TRADES`` frame);
* ``policy``, ``accountant``, ``ledger`` -- the policy settle, the
  accountant's per-consumer ``charge_many`` calls, ``record_many``;
* ``answers`` -- the rest of ``release_batch``: answer assembly;

plus the whole ``release_batch`` and ``answer_batch`` per row, and the
cost of one single-row ``DataBroker.answer()`` call.  Two more views of
the same path:

* a width sweep: ``answer_batch`` at 1, 4, 16 and 64 rows a dispatch,
  in microseconds per row and per dispatch (the fixed cost a dispatch
  pays whatever its width);
* gateway against kernel at width 64: a started ``ServingGateway``
  whose batches close full at 64 requests, timed from the first
  ``submit`` to the last answer, against the direct ``answer_batch``;
  and the objects the cyclic garbage collector tracks per pending
  request (the ``gc.get_objects()`` count added by 64 requests queued on
  a gateway that never starts, then cancelled untraded).

Beside it, the cluster kernel: 47 direct 64-row ``cluster_routed``-shaped
dispatches -- ``ClusterBroker.answer_batch`` on a 4-shard range-sharded
cluster over the same fleet, bimodal routed ranges
(``make_routed_workload``) at the ``ROUTED_TIERS``, 4 consumers, a file
journal -- in microseconds per row, with the ``estimate_many`` calls and
the distinct touched shard sets per dispatch.

Results go to ``benchmarks/results/BENCH_kernel.json`` and
``kernel.txt``.  Set ``REPRO_BENCH_SMOKE=1`` for a short run (CI's
bench-smoke job); nothing here asserts a timing.
"""

from __future__ import annotations

import gc
import os
import time
from collections import defaultdict
from typing import Callable, Dict

import pytest

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.metrics import make_workload
from repro.cluster.bench import DEFAULT_TIERS, ROUTED_TIERS, make_routed_workload
from repro.core import broker as core_broker
from repro.core import settlement
from repro.core.query import RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.serving.gateway import ServingConfig, ServingGateway

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

WIDTH = 64
DISPATCHES = 8 if SMOKE else 47
CONSUMERS = 4
SINGLE_ROW_CALLS = 20 if SMOKE else 200
#: Stages of release_batch timed on their own, in report order.
STAGES = ("records", "journal", "policy", "accountant", "ledger")
#: Dispatch widths of the sweep, and the rows each width trades.
WIDTHS = (1, 4, 16, 64)
SWEEP_ROWS = 64 if SMOKE else 512
#: Width-64 dispatches sent through the gateway.
GATEWAY_DISPATCHES = 4 if SMOKE else 24
#: Shards of the cluster kernel's range-sharded cluster.
CLUSTER_SHARDS = 4


def _timed(seconds: Dict[str, float], stage: str, call: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - started

    return wrapper


def _cluster_dispatches(values, journal_path) -> Dict[str, float]:
    """Direct width-64 ``cluster_routed``-shaped dispatches: microseconds
    per row, estimate calls and touched shard sets per dispatch."""
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICE_COUNT, dataset="ozone", seed=1,
        shards=CLUSTER_SHARDS, partition="range-sharded",
    )
    broker = service.broker
    broker.journal = TradeJournal(path=journal_path)
    broker.ensure_rate(
        max(broker.planner.required_rate(spec) for spec in ROUTED_TIERS)
    )
    rate = broker.base_station.sampling_rate
    ranges = make_routed_workload(values, WIDTH * DISPATCHES, seed=1)
    rows = [
        (RangeQuery(low, high, dataset="ozone"),
         ROUTED_TIERS[i % len(ROUTED_TIERS)], f"c{i % CONSUMERS}")
        for i, (low, high) in enumerate(ranges)
    ]
    routes = [broker.route_for_range(q.low, q.high, spec) for q, spec, _ in rows]
    for query, spec, _ in rows:  # warm the route and plan memos
        broker.planner.plan_for_range(query.low, query.high, spec, rate)
    calls = 0
    estimate_many = broker.estimator.estimate_many

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return estimate_many(*args, **kwargs)

    broker.estimator.estimate_many = counted  # type: ignore[method-assign]
    took = 0.0
    touched = 0
    for start in range(0, len(rows), WIDTH):
        batch = rows[start:start + WIDTH]
        touched += len({r.queried for r in routes[start:start + WIDTH] if r.queried})
        began = time.perf_counter()
        outcomes = broker.answer_batch(
            [query for query, _, _ in batch],
            [spec for _, spec, _ in batch],
            [consumer for _, _, consumer in batch],
        )
        took += time.perf_counter() - began
        assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    assert len(broker.journal) == len(rows)
    return {
        "shards": CLUSTER_SHARDS,
        "dispatches": DISPATCHES,
        "rows": len(rows),
        "answer_batch_us_per_row": took / len(rows) * 1e6,
        "estimate_calls_per_dispatch": calls / DISPATCHES,
        "touched_sets_per_dispatch": touched / DISPATCHES,
    }


def test_kernel_dispatch_cost_per_row(
    citypulse, tmp_path, monkeypatch, save_result, save_json
):
    values = citypulse.values("ozone")
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICE_COUNT, dataset="ozone", seed=1
    )
    broker = service.broker
    broker.journal = TradeJournal(path=tmp_path / "trades.journal")
    broker.base_station.ensure_rate(
        max(broker.planner.required_rate(spec) for spec in DEFAULT_TIERS)
    )
    for spec in DEFAULT_TIERS:
        broker._plan(spec, broker.base_station.sampling_rate)
    sweep_rows = SWEEP_ROWS * len(WIDTHS)
    gateway_rows = WIDTH * GATEWAY_DISPATCHES
    ranges = make_workload(
        values,
        num_queries=WIDTH * DISPATCHES + sweep_rows + gateway_rows,
        seed=1,
    ).ranges
    every_row = [
        (RangeQuery(low, high, dataset="ozone"),
         DEFAULT_TIERS[i % len(DEFAULT_TIERS)], f"c{i % CONSUMERS}")
        for i, (low, high) in enumerate(ranges)
    ]
    rows = every_row[:WIDTH * DISPATCHES]
    sweep = every_row[len(rows):len(rows) + sweep_rows]
    through_gateway = every_row[len(rows) + sweep_rows:]

    seconds: Dict[str, float] = defaultdict(float)
    monkeypatch.setattr(
        core_broker, "open_batch",
        _timed(seconds, "intake", core_broker.open_batch),
    )
    monkeypatch.setattr(
        core_broker, "admit", _timed(seconds, "intake", core_broker.admit)
    )
    monkeypatch.setattr(
        settlement, "_dispatch_record",
        _timed(seconds, "records", settlement._dispatch_record),
    )
    monkeypatch.setattr(
        core_broker, "release_batch",
        _timed(seconds, "release_batch", core_broker.release_batch),
    )
    broker.journal.append_many = _timed(
        seconds, "journal", broker.journal.append_many
    )
    broker.policy.settle_many = _timed(seconds, "policy", broker.policy.settle_many)
    broker.accountant.charge_many = _timed(
        seconds, "accountant", broker.accountant.charge_many
    )
    broker.ledger.record_many = _timed(seconds, "ledger", broker.ledger.record_many)

    for start in range(0, len(rows), WIDTH):
        batch = rows[start:start + WIDTH]
        began = time.perf_counter()
        outcomes = broker.answer_batch(
            [query for query, _, _ in batch],
            [spec for _, spec, _ in batch],
            [consumer for _, _, consumer in batch],
        )
        seconds["answer_batch"] += time.perf_counter() - began
        assert not any(isinstance(outcome, Exception) for outcome in outcomes)

    traded = len(rows)
    assert len(broker.journal) == len(broker.ledger) == traded
    assert len(broker.accountant.history("ozone")) == traded
    journal_bytes = broker.journal.path.stat().st_size
    dispatched = dict(seconds)
    # The stage timers come off: what follows times whole calls.
    monkeypatch.undo()
    for book, method in (
        (broker.journal, "append_many"),
        (broker.policy, "settle_many"),
        (broker.accountant, "charge_many"),
        (broker.ledger, "record_many"),
    ):
        delattr(book, method)

    # One single-row answer() per call: the scalar face of the same path.
    query, spec, _ = rows[0]
    began = time.perf_counter()
    for _ in range(SINGLE_ROW_CALLS):
        broker.answer(query, spec, consumer="solo")
    single_row_us = (time.perf_counter() - began) / SINGLE_ROW_CALLS * 1e6

    # Dispatch cost by width: the same path, 1 to 64 rows a call.
    widths: Dict[str, Dict[str, float]] = {}
    for index, width in enumerate(WIDTHS):
        chunk = sweep[index * SWEEP_ROWS:(index + 1) * SWEEP_ROWS]
        began = time.perf_counter()
        for start in range(0, len(chunk), width):
            batch = chunk[start:start + width]
            broker.answer_batch(
                [query for query, _, _ in batch],
                [spec for _, spec, _ in batch],
                [consumer for _, _, consumer in batch],
            )
        took = time.perf_counter() - began
        widths[str(width)] = {
            "dispatches": len(chunk) // width,
            "us_per_row": took / len(chunk) * 1e6,
            "us_per_dispatch": took / (len(chunk) // width) * 1e6,
        }

    # The same width-64 dispatches through a started gateway: submit,
    # queue, coalesce, dispatch and resolve around the kernel.
    gateway = ServingGateway(
        broker, config=ServingConfig(batch_window=1.0, max_batch=WIDTH)
    ).start()
    gateway_s = submit_s = 0.0
    try:
        for start in range(0, len(through_gateway), WIDTH):
            batch = through_gateway[start:start + WIDTH]
            began = time.perf_counter()
            futures = [
                gateway.submit(query, spec, consumer=consumer)
                for query, spec, consumer in batch
            ]
            submit_s += time.perf_counter() - began
            for future in futures:
                future.result(timeout=60.0)
            gateway_s += time.perf_counter() - began
    finally:
        gateway.stop()
    assert gateway.telemetry.histogram("gateway.batch_width").count == (
        GATEWAY_DISPATCHES
    )

    # What a pending request holds for the cyclic collector: a batch of
    # requests queued on a gateway that never starts, counted while they
    # wait, then cancelled so stop() drains them untraded.
    idle = ServingGateway(
        broker, config=ServingConfig(max_batch=WIDTH, enable_cache=False)
    )
    pending: list = []
    gc.collect()
    tracked = len(gc.get_objects())
    for query, spec, consumer in through_gateway[:WIDTH]:
        pending.append(idle.submit(query, spec, consumer=consumer))
    tracked = len(gc.get_objects()) - tracked
    for future in pending:
        future.cancel()
    idle.stop()
    assert idle.telemetry.value("gateway.cancelled") == WIDTH

    cluster = _cluster_dispatches(values, tmp_path / "cluster.journal")

    per_row = {"intake": dispatched["intake"] / traded * 1e6}
    per_row.update(
        (stage, dispatched[stage] / traded * 1e6) for stage in STAGES
    )
    per_row["answers"] = (
        dispatched["release_batch"] - sum(dispatched[stage] for stage in STAGES)
    ) / traded * 1e6
    results = {
        "width": WIDTH,
        "dispatches": DISPATCHES,
        "rows": traded,
        "us_per_row": per_row,
        "release_batch_us_per_row": dispatched["release_batch"] / traded * 1e6,
        "answer_batch_us_per_row": dispatched["answer_batch"] / traded * 1e6,
        "cluster_answer_batch_us_per_row": cluster["answer_batch_us_per_row"],
        "single_row_answer_us": single_row_us,
        "journal_bytes_per_answer": journal_bytes / traded,
        "widths": widths,
        "gateway_vs_kernel": {
            "width": WIDTH,
            "dispatches": GATEWAY_DISPATCHES,
            "gateway_us_per_row": gateway_s / len(through_gateway) * 1e6,
            "submit_us_per_row": submit_s / len(through_gateway) * 1e6,
            "kernel_us_per_row": dispatched["answer_batch"] / traded * 1e6,
            "gc_objects_per_pending_request": tracked / WIDTH,
        },
        "cluster": cluster,
    }
    save_json("kernel", results)
    lines = [
        f"Kernel: {DISPATCHES} direct {WIDTH}-row fresh_trades dispatches, "
        "file journal",
        f"  {'stage':<14}{'us/row':>10}",
        *(f"  {stage:<14}{value:>10.2f}" for stage, value in per_row.items()),
        f"  {'release_batch':<14}{results['release_batch_us_per_row']:>10.2f}",
        f"  {'answer_batch':<14}{results['answer_batch_us_per_row']:>10.2f}",
        f"  single-row answer(): {single_row_us:.1f} us per call",
        f"  journal bytes per answer: {results['journal_bytes_per_answer']:.1f}",
        f"  {'width':<14}{'us/row':>10}{'us/dispatch':>14}",
        *(
            f"  {width:<14}{cost['us_per_row']:>10.2f}"
            f"{cost['us_per_dispatch']:>14.1f}"
            for width, cost in widths.items()
        ),
        f"  width {WIDTH} through the gateway: "
        f"{results['gateway_vs_kernel']['gateway_us_per_row']:.2f} us/row "
        f"(submit {results['gateway_vs_kernel']['submit_us_per_row']:.2f}), "
        f"kernel alone {results['gateway_vs_kernel']['kernel_us_per_row']:.2f}",
        f"  gc-tracked objects per pending request: "
        f"{results['gateway_vs_kernel']['gc_objects_per_pending_request']:.2f}",
        f"Cluster: {DISPATCHES} direct {WIDTH}-row cluster_routed dispatches, "
        f"{CLUSTER_SHARDS} range-sharded shards, file journal",
        f"  {'answer_batch':<14}{cluster['answer_batch_us_per_row']:>10.2f} us/row",
        f"  estimate calls per dispatch: "
        f"{cluster['estimate_calls_per_dispatch']:.2f}",
        f"  touched shard sets per dispatch: "
        f"{cluster['touched_sets_per_dispatch']:.2f}",
    ]
    save_result("kernel", "\n".join(lines))
    assert all(value >= 0.0 for value in per_row.values()) or pytest.fail(
        f"a stage took negative time: {per_row}"
    )
