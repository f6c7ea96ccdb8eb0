"""Streaming benchmark: continuous private range counting, end to end.

The acceptance claims of the streaming subsystem:

* 8+ epochs through a 4-shard cluster with mixed-tier window queries
  complete with **zero** accounting drift at every layer -- the lifetime
  accountant, the billing ledger, and the per-epoch ledgers all agree
  with the sums recomputed from transactions and journaled charges;
* steady-state ε spend is **bounded**: once the window fills, expired
  epochs' budget is reclaimed on every roll, so the live total plateaus
  instead of growing with stream length;
* the serving cache hits within every epoch (hit rate > 0) yet never
  serves a stale answer across a roll -- push-invalidation via the
  station's commit feed;
* the entire run is a deterministic function of its seed, witnessed by
  three checksums (answer values, merged window, window journal) stable
  across a full rebuild-and-rerun;
* the payload lands in ``BENCH_streaming.json`` for CI trending.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the run for CI smoke.
"""

from __future__ import annotations

import os

from repro.streaming.bench import (
    DEFAULT_TIERS,
    run_streaming_bench,
    streaming_bench_healthy,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

EPOCHS = 8 if SMOKE else 12
SHARDS = 4
DEVICES_PER_SHARD = 4 if SMOKE else 8
WINDOW_EPOCHS = 4
ARRIVALS = 512 if SMOKE else 1024
# A multiple of len(DEFAULT_TIERS): the per-epoch tier mix is then the
# same every epoch, which is what makes the steady-state plateau exact.
RANGES = 3 if SMOKE else 6
SEED = 13


def run(seed=SEED):
    return run_streaming_bench(
        epochs=EPOCHS,
        shards=SHARDS,
        devices_per_shard=DEVICES_PER_SHARD,
        window_epochs=WINDOW_EPOCHS,
        arrivals_per_epoch=ARRIVALS,
        ranges=RANGES,
        tiers=DEFAULT_TIERS,
        consumers=2,
        seed=seed,
    )


def test_streaming_pipeline_invariants(save_result, save_json):
    payload = run()

    # The workload actually ran: every epoch served both passes of every
    # range, nothing failed, nothing dropped.
    assert payload["completed"] == EPOCHS * 2 * RANGES
    assert payload["failed"] == 0

    # Zero accounting drift at all three layers.
    assert abs(payload["epsilon_drift"]) < 1e-6
    assert abs(payload["revenue_drift"]) < 1e-6
    assert abs(payload["epoch_epsilon_drift"]) < 1e-6

    # Bounded steady-state ε: the window has been full for epochs, the
    # live total stopped growing, and expiry actually reclaimed budget.
    assert EPOCHS > 2 * WINDOW_EPOCHS - 2, "bench must outlive warmup"
    assert payload["steady_state_bounded"]
    assert payload["epsilon_reclaimed"] > 0.0
    assert payload["live_epsilon_final"] <= payload["live_epsilon_peak"]

    # Cache correctness across rolls: pass 2 of every epoch replays from
    # the cache (exactly `ranges` hits per epoch, deterministically), and
    # no answer ever crossed a roll.
    assert payload["cache_hit_rate"] > 0.0
    assert payload["cache_hits"] == EPOCHS * RANGES
    assert payload["stale_answers"] == 0
    for row in payload["per_epoch"]:
        assert row["cache_hits"] == RANGES, f"epoch {row['epoch']}"

    # Every roll bumped the store version once; the window ring stayed
    # bounded at W epochs once full.
    versions = [row["store_version"] for row in payload["per_epoch"]]
    assert versions == list(range(1, EPOCHS + 1))
    for row in payload["per_epoch"]:
        assert row["occupancy"] == min(row["epoch"] + 1, WINDOW_EPOCHS)

    # The smoke gate agrees the run is healthy.
    assert streaming_bench_healthy(payload) == []

    lines = [
        "streaming bench: epochs={} shards={} window={} arrivals={}".format(
            EPOCHS, SHARDS, WINDOW_EPOCHS, ARRIVALS
        ),
        "epoch  rate      occ  records  hits  live-eps   reclaimed",
    ]
    for row in payload["per_epoch"]:
        lines.append(
            "{:5d}  {:.6f}  {:3d}  {:7d}  {:4d}  {:.6f}  {:.6f}".format(
                row["epoch"], row["rate"], row["occupancy"],
                row["window_records"], row["cache_hits"],
                row["live_epsilon"], row["reclaimed_total"],
            )
        )
    lines.append(
        "completed={} hit_rate={:.3f} eps_spent={:.4f} reclaimed={:.4f}".format(
            payload["completed"], payload["cache_hit_rate"],
            payload["epsilon_spent"], payload["epsilon_reclaimed"],
        )
    )
    save_result("streaming", "\n".join(lines))
    save_json("streaming", payload)


def test_streaming_same_seed_is_bit_identical():
    a = run()
    b = run()
    # Everything but wall-clock timing is a pure function of the seed.
    assert a["determinism_checksum"] == b["determinism_checksum"]
    assert a["window_checksum"] == b["window_checksum"]
    assert a["journal_checksum"] == b["journal_checksum"]
    assert a["epsilon_spent"] == b["epsilon_spent"]
    assert a["revenue"] == b["revenue"]
    for ra, rb in zip(a["per_epoch"], b["per_epoch"]):
        assert ra["rate"] == rb["rate"]
        assert ra["live_epsilon"] == rb["live_epsilon"]


def test_streaming_different_seed_diverges():
    a = run(seed=13)
    b = run(seed=14)
    assert a["determinism_checksum"] != b["determinism_checksum"]
    assert a["window_checksum"] != b["window_checksum"]
