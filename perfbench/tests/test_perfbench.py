"""The benchmark's own checks, at a size that runs in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import bench
from perfbench.stacks import (
    ClusterRouted,
    FreshTrades,
    StreamDashboard,
    _stale_replays,
)
from perfbench.tracing import LAYER_UNITS, Tracer, entry_points

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "fresh_trades": FreshTrades(
        records=2000, devices=4, requests=120, consumers=2, clients=4
    ),
    "cluster_routed": ClusterRouted(
        records=2000, devices=8, requests=120, consumers=2, clients=4
    ),
    "stream_dashboard": StreamDashboard(
        records=4096,
        epoch_records=512,
        epochs=2,
        requests_per_epoch=48,
        hot_ranges=4,
        chunks_per_epoch=4,
        consumers=4,
        clients=4,
    ),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name, lambda w=workload: w)
    monkeypatch.setattr(bench, "MIN_ROUNDS", 2)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_emits_every_metric_with_its_unit(tiny, capsys, name, trace):
    status = bench.run(name, seed=3, seconds=0.0, trace=trace)
    result = _result(capsys)
    assert status == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    units = LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def _skip_one_charge(stack) -> None:
    """A broker defect: the first batch's first ε′ never reaches the books."""
    accountant = stack.broker.accountant
    charge_many = accountant.charge_many
    skipped = []

    def leaky(dataset, epsilons, labels):
        if not skipped:
            skipped.append(epsilons[0])
            epsilons, labels = epsilons[1:], labels[1:]
        return charge_many(dataset, epsilons, labels)

    accountant.charge_many = leaky


@pytest.mark.parametrize("name", sorted(TINY))
def test_gate_trips_on_a_skipped_accountant_charge(name):
    workload = TINY[name]
    phases = workload.plan(5)
    clean = bench.run_round(workload, 5, phases)
    assert clean.problems == [] and clean.failed == 0
    broken = bench.run_round(workload, 5, phases, tamper=_skip_one_charge)
    assert any("epsilon drift" in p for p in broken.problems)
    assert broken.failed == broken.attempted


def test_gate_flags_an_answer_replayed_across_a_roll():
    phases = TINY["stream_dashboard"].plan(5)[:2]
    same = [SimpleNamespace(raw_value=1.5)] * sum(len(p) for p in phases)
    assert _stale_replays(phases, same)
    fresh = [
        SimpleNamespace(raw_value=float(epoch))
        for epoch, phase in enumerate(phases)
        for _ in phase
    ]
    assert _stale_replays(phases, fresh) == []


def test_traced_run_records_a_span_for_every_entry_point():
    names = set()
    for name, workload in TINY.items():
        phases = workload.plan(7)
        # Repeats reach each broker's replay; a cleared plan memo reaches
        # the planner, which warm-up otherwise keeps out of the timed phase.
        phases[-1] = phases[-1] + phases[-1][:6]
        tracer = Tracer()
        result = bench.run_round(
            workload,
            7,
            phases,
            tracer=tracer,
            tamper=lambda stack: getattr(stack.broker, "_plan_memo", {}).clear(),
        )
        assert result.problems == []
        assert set(LAYER_UNITS) - set(result.layers) == {"trace.overhead_pct"}
        names |= {span[1] for span in tracer.spans}
    assert {entry[2] for entry in entry_points()} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh_trades",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
