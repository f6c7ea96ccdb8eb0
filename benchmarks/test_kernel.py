"""The settlement kernel alone: direct 64-row dispatches, no gateway.

``fresh_trades``'s release path without the serving gateway's batching
window or a closed-loop driver: the plain broker over the paper-scale
CityPulse surrogate (16 devices) with a file-backed trade journal,
driven by 47 direct ``DataBroker.answer_batch`` calls of 64 distinct
``(range, tier)`` rows over 4 consumers -- the shape of one gateway
dispatch.  Each book's bulk entry point is timed where the kernel calls
it, and the report gives microseconds per row for

* ``records`` -- building the dispatch's one columnar record;
* ``journal`` -- ``TradeJournal.append_many`` (one ``TRADES`` frame);
* ``policy``, ``accountant``, ``ledger`` -- the policy settle, the
  accountant's per-consumer ``charge_many`` calls, ``record_many``;
* ``answers`` -- the rest of ``release_batch``: answer assembly;

plus the whole ``release_batch`` and ``answer_batch`` per row, and the
cost of one single-row ``DataBroker.answer()`` call.  Results go to
``benchmarks/results/BENCH_kernel.json`` and ``kernel.txt``.

Set ``REPRO_BENCH_SMOKE=1`` for a short run (CI's bench-smoke job);
nothing here asserts a timing.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Callable, Dict

import pytest

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.metrics import make_workload
from repro.cluster.bench import DEFAULT_TIERS
from repro.core import broker as core_broker
from repro.core import settlement
from repro.core.query import RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

WIDTH = 64
DISPATCHES = 8 if SMOKE else 47
CONSUMERS = 4
SINGLE_ROW_CALLS = 20 if SMOKE else 200
#: Stages of release_batch timed on their own, in report order.
STAGES = ("records", "journal", "policy", "accountant", "ledger")


def _timed(seconds: Dict[str, float], stage: str, call: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - started

    return wrapper


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
    ranges = make_workload(values, num_queries=WIDTH * DISPATCHES, seed=1).ranges
    rows = [
        (RangeQuery(low, high, dataset="ozone"),
         DEFAULT_TIERS[i % len(DEFAULT_TIERS)], f"c{i % CONSUMERS}")
        for i, (low, high) in enumerate(ranges)
    ]

    seconds: Dict[str, float] = defaultdict(float)
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

    # One single-row answer() per call: the scalar face of the same path.
    query, spec, _ = rows[0]
    began = time.perf_counter()
    for _ in range(SINGLE_ROW_CALLS):
        broker.answer(query, spec, consumer="solo")
    single_row_us = (time.perf_counter() - began) / SINGLE_ROW_CALLS * 1e6

    per_row = {stage: dispatched[stage] / traded * 1e6 for stage in STAGES}
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
        "single_row_answer_us": single_row_us,
        "journal_bytes_per_answer": journal_bytes / traded,
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
    ]
    save_result("kernel", "\n".join(lines))
    assert all(value >= 0.0 for value in per_row.values()) or pytest.fail(
        f"a stage took negative time: {per_row}"
    )
