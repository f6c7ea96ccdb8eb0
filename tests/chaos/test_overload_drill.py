"""The deterministic overload drill: invariants 4 and 5 on a live stack.

The drill stacks a limping shard, a brownout-ladder sweep (widen ->
degrade -> shed -> release), and manual-clock deadline storms onto the
standard chaos stream, then checks -- besides the three base chaos
invariants -- that no answer was released after its deadline and that
every delivered ``(α, δ)`` matches its ledger row and the ladder's
published math.  Twin same-seed runs must agree on the full checksum.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultEvent, FaultSchedule, OverloadHarness
from repro.chaos.harness import ChaosConfig
from repro.serving import Workload
from tests.chaos.conftest import RANGES, TIERS, build_overload_stack

TRADES = 60


def overload_schedule(trades: int = TRADES) -> FaultSchedule:
    """An explicit drill schedule engaging every overload mechanism."""
    events = (
        FaultEvent(step=5, kind="slow_shard", target=0),
        FaultEvent(step=10, kind="brownout_level", target=2),
        FaultEvent(step=14, kind="brownout_level", target=3),
        FaultEvent(step=18, kind="brownout_level", target=4),
        FaultEvent(step=22, kind="brownout_level", target=0),
        FaultEvent(step=25, kind="heal_slow_shard", target=0),
        FaultEvent(step=30, kind="clock_jump", target=300),  # > ttl: expires
        FaultEvent(step=40, kind="clock_jump", target=100),  # < ttl: survives
    )
    return FaultSchedule(events=events, seed=7, trades=trades, shards=2)


def _run_drill(schedule: FaultSchedule = None):
    service, journal, gateway = build_overload_stack()
    schedule = schedule or overload_schedule()
    harness = OverloadHarness(
        gateway,
        journal,
        schedule,
        Workload(ranges=RANGES, tiers=TIERS),
        ChaosConfig(trades=schedule.trades),
    )
    try:
        return harness.run()
    finally:
        if gateway.running:
            gateway.stop()


class TestScheduleOverloadEvents:
    def test_default_generate_has_no_overload_events(self):
        schedule = FaultSchedule.generate(seed=3, trades=100, shards=2)
        for kind in ("slow_shard", "heal_slow_shard", "clock_jump",
                     "brownout_level"):
            assert schedule.count(kind) == 0

    def test_generate_pairs_overload_events(self):
        schedule = FaultSchedule.generate(
            seed=3, trades=100, shards=2,
            slow_shards=2, clock_jumps=3, brownout_pins=1,
        )
        assert schedule.count("slow_shard") == 2
        assert schedule.count("heal_slow_shard") == 2
        assert schedule.count("clock_jump") == 3
        assert schedule.count("brownout_level") == 2  # pin + release

    def test_overload_params_do_not_perturb_base_events(self):
        base = FaultSchedule.generate(seed=3, trades=100, shards=2)
        extended = FaultSchedule.generate(
            seed=3, trades=100, shards=2, clock_jumps=2,
        )
        base_kinds = [e for e in extended.events if e.kind != "clock_jump"]
        assert tuple(base_kinds) == base.events

    def test_brownout_rung_bounded(self):
        with pytest.raises(ValueError, match="ladder tops out"):
            FaultSchedule(
                events=(FaultEvent(step=5, kind="brownout_level", target=5),),
                seed=1, trades=30, shards=1,
            )

    def test_slow_shard_target_validated(self):
        with pytest.raises(ValueError, match="targets shard"):
            FaultSchedule(
                events=(FaultEvent(step=5, kind="slow_shard", target=3),),
                seed=1, trades=30, shards=2,
            )


class TestOverloadDrill:
    def test_drill_passes_all_five_invariants(self):
        report = _run_drill()
        assert report.base.all_passed, report.base.failures
        assert report.invariant_no_post_deadline_release, report.failures
        assert report.invariant_rung_honesty, report.failures
        assert report.all_passed

    def test_drill_engages_every_mechanism(self):
        report = _run_drill()
        # The pinned ladder sweep produced honestly-repriced answers ...
        assert report.brownout_answers.get("widen_alpha", 0) > 0
        assert report.brownout_answers.get("degrade_delta", 0) > 0
        # ... the shed rung refused with a typed error ...
        assert report.sheds > 0
        # ... and the >ttl clock jump expired exactly that step's trade
        # before billing (never-billed: base invariants still pass).
        assert report.deadline_exceeded >= 1
        assert report.deadline_failures >= 1
        assert report.post_deadline_releases == 0
        resolved_and_failed = report.base.resolved + report.base.failed
        assert resolved_and_failed == TRADES
        assert report.base.unresolved == 0

    def test_same_seed_runs_are_checksum_identical(self):
        first = _run_drill()
        second = _run_drill()
        assert first.checksum == second.checksum
        assert first.brownout_answers == second.brownout_answers
        assert first.sheds == second.sheds
        assert first.deadline_failures == second.deadline_failures

    def test_delivered_specs_follow_ladder_math(self):
        service, journal, gateway = build_overload_stack()
        schedule = overload_schedule()
        harness = OverloadHarness(
            gateway, journal, schedule,
            Workload(ranges=RANGES, tiers=TIERS),
            ChaosConfig(trades=schedule.trades),
        )
        report = harness.run()
        assert report.all_passed, report.failures
        config = gateway.brownout.config
        widened = [
            (entry, answer) for entry, answer in harness._last_resolved
            if answer.brownout_rung in ("widen_alpha", "degrade_delta")
        ]
        assert widened
        for entry, answer in widened:
            assert answer.requested_spec == entry.spec
            assert answer.spec.alpha == min(
                max(entry.spec.alpha * config.widen_factor, entry.spec.alpha),
                max(config.alpha_max, entry.spec.alpha),
            )
            if answer.brownout_rung == "degrade_delta":
                assert answer.spec.delta == \
                    entry.spec.delta * config.delta_confidence
            else:
                assert answer.spec.delta == entry.spec.delta
            # Weaker contract, honestly cheaper: ε′ and price at or below
            # what the requested tier would have cost.
            quote = gateway.broker.pricing.price(
                entry.spec.alpha, entry.spec.delta
            )
            assert answer.price <= quote
