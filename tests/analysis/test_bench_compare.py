"""Unit tests for the metric-aware bench artifact differ."""

from __future__ import annotations

import pytest

from repro.analysis.bench_compare import (
    classify_metric,
    compare_bench,
    format_comparison,
)
from repro.cli import main
from repro.serving.loadgen import write_bench_json


def results(**overrides):
    base = {
        "1": {
            "epsilon_spent": 0.0741,
            "epsilon_drift": 0.0,
            "latency_p99_ms": 11.3,
            "throughput_qps": 412.0,
            "shards_pruned_mean": 1.5,
        },
        "checksum": 123456789,
    }
    base.update(overrides)
    return base


class TestClassifyMetric:
    @pytest.mark.parametrize(
        "path",
        [
            "1.throughput_qps",
            "routed.4.latency_p99_ms",
            "phase.duration_s",
            "failover.recovery_wall",
            "warmup.elapsed",
            # Ratios of timings vary by host, not by code.
            "overload.p99_speedup",
        ],
    )
    def test_timing_paths(self, path):
        assert classify_metric(path) == "timing"

    @pytest.mark.parametrize(
        "path",
        [
            "1.epsilon_spent",
            "routed.4.epsilon_drift",
            "checksum",
            "1.shards_pruned_mean",
            # Only the leaf decides: a timing-ish parent does not make
            # the child a timing metric.
            "latency_phase.epsilon_spent",
        ],
    )
    def test_deterministic_paths(self, path):
        assert classify_metric(path) == "deterministic"


class TestCompareBench:
    def test_identical_payloads_pass(self):
        comparison = compare_bench(results(), results())
        assert comparison.ok
        assert all(d.ok for d in comparison.diffs)

    def test_deterministic_drift_fails_tight(self):
        cand = results()
        cand["1"] = dict(cand["1"], epsilon_spent=0.0743)
        comparison = compare_bench(results(), cand, rel_tol=1e-6)
        assert not comparison.ok
        (failure,) = comparison.failures
        assert failure.path == "1.epsilon_spent"
        assert failure.kind == "deterministic"

    def test_deterministic_drift_within_rel_tol_passes(self):
        cand = results()
        cand["1"] = dict(cand["1"], epsilon_spent=0.0741 * (1 + 5e-5))
        assert compare_bench(results(), cand, rel_tol=1e-4).ok

    def test_near_zero_drift_uses_absolute_floor(self):
        cand = results()
        # Float summation order moves the ≈0 drift audit by ~1e-20;
        # relative tolerance alone would flag that as an infinite change.
        cand["1"] = dict(cand["1"], epsilon_drift=1e-20)
        assert compare_bench(results(), cand, rel_tol=1e-6).ok

    def test_timing_ignored_by_default(self):
        cand = results()
        cand["1"] = dict(cand["1"], latency_p99_ms=99.0, throughput_qps=3.0)
        assert compare_bench(results(), cand).ok

    def test_timing_tol_factor_gates_timing(self):
        cand = results()
        cand["1"] = dict(cand["1"], latency_p99_ms=11.3 * 3.0)
        comparison = compare_bench(results(), cand, timing_tol=2.0)
        assert not comparison.ok
        assert comparison.failures[0].kind == "timing"
        assert compare_bench(results(), cand, timing_tol=4.0).ok

    def test_missing_metric_fails_added_passes(self):
        cand = results()
        cand["1"] = {
            k: v for k, v in cand["1"].items() if k != "epsilon_spent"
        }
        cand["1"]["brand_new_metric"] = 7.0
        comparison = compare_bench(results(), cand)
        kinds = {d.path: d.kind for d in comparison.diffs}
        assert kinds["1.epsilon_spent"] == "missing"
        assert kinds["1.brand_new_metric"] == "added"
        assert not comparison.ok
        assert [f.path for f in comparison.failures] == ["1.epsilon_spent"]

    def test_ignore_prefix_skips_subtree(self):
        base = results(failover={"killed_at": 50, "recovered": 1})
        cand = results(failover={"killed_at": 120, "recovered": 0})
        assert not compare_bench(base, cand).ok
        assert compare_bench(base, cand, ignore=("failover",)).ok
        # The prefix match is path-segment aware: "fail" must not
        # swallow "failover".
        assert not compare_bench(base, cand, ignore=("fail",)).ok

    def test_envelopes_and_name_mismatch(self):
        base = {"benchmark": "cluster", "results": results()}
        cand = {"benchmark": "serving", "results": results()}
        with pytest.raises(ValueError):
            compare_bench(base, cand)
        same = {"benchmark": "cluster", "results": results()}
        assert compare_bench(base, same).ok

    def test_string_leaves_compared_exactly(self):
        base = results(journal_checksum="7da933fb", mode="closed")
        cand = results(journal_checksum="7da933fc", mode="closed")
        comparison = compare_bench(base, cand, rel_tol=1.0)
        assert [(f.path, f.kind) for f in comparison.failures] == [
            ("journal_checksum", "exact")
        ]
        assert "'7da933fb'" in format_comparison(comparison)
        assert compare_bench(base, cand, ignore=("journal_checksum",)).ok
        assert compare_bench(base, dict(base)).ok

    def test_list_leaves_compared_by_index(self):
        base = results(series=[1.0, 2.0, 3.0])
        cand = results(series=[1.0, 2.5, 3.0])
        comparison = compare_bench(base, cand)
        assert [f.path for f in comparison.failures] == ["series[1]"]


class TestFormatComparison:
    def test_reports_failures_and_summary(self):
        cand = results()
        cand["1"] = dict(cand["1"], epsilon_spent=0.9)
        text = format_comparison(compare_bench(results(), cand))
        assert "FAIL" in text
        assert "1.epsilon_spent" in text
        ok_text = format_comparison(compare_bench(results(), results()))
        assert "all gated metrics within tolerance" in ok_text

    def test_verbose_lists_every_metric(self):
        text = format_comparison(
            compare_bench(results(), results()), verbose=True
        )
        assert "1.latency_p99_ms" in text
        assert "[timing]" in text


class TestCli:
    def test_bench_compare_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        write_bench_json(base, "cluster", results())
        drifted = results()
        drifted["1"] = dict(drifted["1"], epsilon_spent=0.9)
        write_bench_json(cand, "cluster", drifted)
        assert main(["bench-compare", str(base), str(base)]) == 0
        assert main(["bench-compare", str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "1.epsilon_spent" in out

    def test_bench_compare_ignore_flag(self, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        write_bench_json(base, "cluster", results(failover={"kills": 1}))
        write_bench_json(cand, "cluster", results(failover={"kills": 3}))
        assert main(["bench-compare", str(base), str(cand)]) == 1
        assert (
            main(
                ["bench-compare", str(base), str(cand), "--ignore", "failover"]
            )
            == 0
        )
