"""Cluster benchmark: single-station vs sharded serving, with failover.

The acceptance claim of the cluster subsystem at paper scale (k ≥ 64
devices, the full CityPulse surrogate, 500 mixed-tier requests):

* every phase -- single-station, 4-shard, 8-shard -- completes with zero
  failed requests and *zero* accounting drift against the serial
  expectation (one consolidated ledger/accountant entry per fresh
  release, cluster list price, pooled-release ε′);
* killing shard 0's primary mid-run leaves the benchmark unharmed: the
  run completes, answers from the affected shard degrade their reported
  δ instead of erroring, and the failover is visible in telemetry;
* the whole payload lands in ``BENCH_cluster.json`` for CI trending,
  with a seed-reproducible determinism checksum.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the run for CI smoke.
"""

from __future__ import annotations

import os

from benchmarks.conftest import DEVICE_COUNT
from repro.cluster.bench import DEFAULT_TIERS, run_cluster_bench

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The cluster bench runs a bigger fleet than the single-station benches:
#: the paper-scale federation claim is k ≥ 64 devices across the shards.
CLUSTER_DEVICES = 16 if SMOKE else max(64, 4 * DEVICE_COUNT)
SHARD_COUNTS = (2,) if SMOKE else (4, 8)
REQUESTS = 80 if SMOKE else 500
CONSUMERS = 4
RANGES = 8 if SMOKE else 16


def test_cluster_scaling_and_failover(citypulse, save_result, save_json):
    values = citypulse.values("ozone")
    payload = run_cluster_bench(
        values,
        devices=CLUSTER_DEVICES,
        shard_counts=SHARD_COUNTS,
        requests=REQUESTS,
        consumers=CONSUMERS,
        ranges=RANGES,
        tiers=DEFAULT_TIERS,
        seed=11,
    )

    phases = [("single", payload["single"])]
    phases += [
        (f"{s}-shard", payload["clusters"][str(s)]) for s in SHARD_COUNTS
    ]
    phases.append((f"{max(SHARD_COUNTS)}-shard+failover", payload["failover"]))

    for name, phase in phases:
        assert phase["completed"] == CONSUMERS * (REQUESTS // CONSUMERS), name
        assert phase["failed"] == 0, name
        assert abs(phase["epsilon_drift"]) < 1e-6, name
        assert abs(phase["revenue_drift"]) < 1e-6, name

    failover = payload["failover"]
    assert failover["failovers"] >= 1
    assert failover["failover_events"] >= 1
    assert failover["degraded_answers"] > 0
    assert failover["healthy_shards_after"] < max(SHARD_COUNTS)

    # Range-aware routing: on range-sharded partitions the planner must
    # turn sharding from a privacy *tax* into a privacy *win*.  ε spent
    # is deterministic for a fixed seed, so the monotone claim is exact
    # (tiny grace for float accumulation order); latency gets a generous
    # noise band -- the committed BENCH_cluster.json artifact is the
    # flat-or-decreasing exhibit, CI boxes are too jittery to gate hard.
    routed_keys = ["1"] + [str(s) for s in SHARD_COUNTS]
    routed = payload["routed"]
    for key in routed_keys:
        phase = routed[key]
        assert phase["failed"] == 0, f"routed/{key}"
        assert abs(phase["epsilon_drift"]) < 1e-6, f"routed/{key}"
        assert abs(phase["revenue_drift"]) < 1e-6, f"routed/{key}"
    eps_series = [routed[key]["epsilon_spent"] for key in routed_keys]
    for prev, curr in zip(eps_series, eps_series[1:]):
        assert curr <= prev * 1.015, f"routed ε not flat/decreasing: {eps_series}"
    p99_series = [routed[key]["latency_p99_ms"] for key in routed_keys]
    for prev, curr in zip(p99_series, p99_series[1:]):
        assert curr <= max(prev * 2.0, prev + 10.0), (
            f"routed p99 regressed beyond noise: {p99_series}"
        )
    for s in SHARD_COUNTS:
        phase = routed[str(s)]
        # Narrow drill-downs + one-sided overviews: most shards prune,
        # at most ~a couple are actually queried per request.
        assert phase["shards_pruned_mean"] > 0.0, s
        assert 0.0 < phase["shards_touched_mean"] <= 2.0, s
        assert phase["routed_queries"] > 0, s

    save_json("cluster", payload)

    lines = [
        "# cluster: single-station vs sharded scatter-gather, paper scale",
        f"# ({CONSUMERS} consumers, {REQUESTS} requests, {RANGES} ranges, "
        f"{len(DEFAULT_TIERS)} tiers, k={CLUSTER_DEVICES})",
    ]
    for name, phase in phases:
        lines.append(
            f"{name:>22}: {phase['throughput_qps']:9.1f} q/s, "
            f"failed {phase['failed']}, "
            f"eps drift {phase['epsilon_drift']:+.1e}, "
            f"revenue drift {phase['revenue_drift']:+.1e}"
        )
    latency = failover.get("failover_latency_s")
    lines.append(
        f"failover: {int(failover['failovers'])} event(s), "
        f"{int(failover['degraded_answers'])} degraded answer(s), "
        + (
            f"detection-to-first-degraded {latency * 1e3:.1f} ms"
            if latency is not None
            else "detection-to-first-degraded n/a"
        )
    )
    lines.append(
        "# routed: range-sharded partitions + band-aware pooled routing"
    )
    for key in routed_keys:
        phase = routed[key]
        lines.append(
            f"{key + '-shard routed':>22}: "
            f"eps {phase['epsilon_spent']:.5f}, "
            f"p99 {phase['latency_p99_ms']:6.2f} ms, "
            f"{phase['throughput_qps']:9.1f} q/s, "
            f"touched {phase['shards_touched_mean']:.2f}, "
            f"pruned {phase['shards_pruned_mean']:.2f}"
        )
    save_result("cluster_scaling_failover", "\n".join(lines))
