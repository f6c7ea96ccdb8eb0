"""Continuous monitoring: a standing query over streaming pollution data.

A dashboard keeps a standing count of "ozone in the unhealthy band" over
a sliding window of the last four weeks as new readings arrive.  Each
week is one streaming epoch: its arrivals are sampled at a freshly
calibrated rate when the window rolls, and a private release is produced
from the merged window.  Per-epoch budgets expire with their epochs; the
broker's lifetime accountant caps the monitor's total leakage, and the
monitor retires when that cap is reached.

Run:  python examples/continuous_monitoring.py
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import (
    AccuracySpec,
    RangeQuery,
    StreamingConfig,
    build_streaming_cluster,
)
from repro.datasets import generate_citypulse
from repro.datasets.streams import RecordStream
from repro.errors import PrivacyBudgetExceededError
from repro.privacy.budget import BudgetAccountant

WINDOW_WEEKS = 4
LOW, HIGH = 100.0, 150.0


def main() -> None:
    data = generate_citypulse()
    stream = RecordStream(data.values("ozone"), batch_size=288 * 7)  # weekly

    spec = AccuracySpec(alpha=0.1, delta=0.6)
    cluster = build_streaming_cluster(StreamingConfig(
        shards=2,
        devices_per_shard=4,
        window_epochs=WINDOW_WEEKS,
        floor=spec,
        dataset="ozone",
        seed=23,
    ))
    cluster.broker.accountant = BudgetAccountant(capacity=0.04)
    query = RangeQuery(low=LOW, high=HIGH, dataset="ozone")

    print(
        f"standing query: ozone in [{LOW:.0f}, {HIGH:.0f}] over the last "
        f"{WINDOW_WEEKS} weeks, alpha={spec.alpha}, delta={spec.delta}"
    )
    print("privacy capacity: eps' <= 0.04 over the monitor's lifetime\n")
    live: "deque[np.ndarray]" = deque(maxlen=WINDOW_WEEKS)
    releases = 0
    week = 0
    try:
        for batch in stream.batches():
            # Week w's readings all carry timestamps inside epoch w.
            timestamps = week + np.arange(len(batch)) / len(batch)
            cluster.ingest(batch, timestamps)
            rate = cluster.epoch_rate()
            snapshot = cluster.roll()
            week += 1
            live.append(batch)
            answer = cluster.broker.answer(query, spec, consumer="dashboard")
            releases += 1
            window = np.concatenate(live)
            truth = int(np.count_nonzero((window >= LOW) & (window <= HIGH)))
            print(
                f"week {week}: window n={snapshot.record_count:6d}  "
                f"p={rate:.4f}  released {answer.value:8.1f}  "
                f"(true {truth:5d})  eps' so far "
                f"{cluster.broker.accountant.spent('ozone'):.4f}"
            )
    except PrivacyBudgetExceededError:
        print(
            f"\nweek {week}: privacy budget exhausted after {releases} "
            "releases -- the monitor retires rather than leak beyond its cap."
        )


if __name__ == "__main__":
    main()
