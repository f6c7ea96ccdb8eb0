"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

# Small scales keep CLI tests fast.
SMALL = ["--records", "2000", "--devices", "4"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_exits_2(self):
        assert main(["bogus"]) == 2

    def test_quote_requires_alpha(self):
        assert main(["quote", "--delta", "0.5"]) == 2


class TestQuote:
    def test_quote_outputs_price(self, capsys):
        code = main(["quote", "--alpha", "0.1", "--delta", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "price" in out
        assert "delivered_variance" in out

    def test_quote_scales_with_base_price(self, capsys):
        main(["quote", "--alpha", "0.1", "--delta", "0.5",
              "--base-price", "1"])
        first = capsys.readouterr().out
        main(["quote", "--alpha", "0.1", "--delta", "0.5",
              "--base-price", "100"])
        second = capsys.readouterr().out
        assert first != second


class TestAnswer:
    def test_answer_end_to_end(self, capsys):
        code = main(
            ["answer", "--low", "70", "--high", "110", "--alpha", "0.15",
             "--delta", "0.5", *SMALL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "released_count" in out
        assert "epsilon_prime" in out
        assert "true_count" not in out

    def test_answer_show_truth(self, capsys):
        code = main(
            ["answer", "--low", "70", "--high", "110", "--alpha", "0.2",
             "--delta", "0.4", "--show-truth", *SMALL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "true_count" in out

    def test_answer_rejects_unknown_index(self):
        assert main(["answer", "--low", "0", "--high", "1",
                     "--index", "methane"]) == 2


class TestAnswerBatch:
    def test_batch_end_to_end(self, capsys, tmp_path):
        ranges = tmp_path / "ranges.csv"
        ranges.write_text("low,high\n70,110\n20,60\n0,200\n")
        code = main(
            ["answer-batch", "--ranges-csv", str(ranges), "--alpha", "0.15",
             "--delta", "0.5", *SMALL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "released_count" in out
        assert "3 queries answered in one batch" in out

    def test_batch_headerless_csv(self, capsys, tmp_path):
        ranges = tmp_path / "ranges.csv"
        ranges.write_text("70,110\n20,60\n")
        code = main(["answer-batch", "--ranges-csv", str(ranges), *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 queries answered in one batch" in out

    def test_batch_missing_file(self, capsys, tmp_path):
        code = main(
            ["answer-batch", "--ranges-csv", str(tmp_path / "nope.csv"),
             *SMALL]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_malformed_row(self, capsys, tmp_path):
        ranges = tmp_path / "ranges.csv"
        ranges.write_text("low,high\n70\n")
        code = main(["answer-batch", "--ranges-csv", str(ranges), *SMALL])
        assert code == 2
        assert "expected two columns" in capsys.readouterr().err

    def test_batch_empty_file(self, capsys, tmp_path):
        ranges = tmp_path / "ranges.csv"
        ranges.write_text("low,high\n")
        code = main(["answer-batch", "--ranges-csv", str(ranges), *SMALL])
        assert code == 2
        assert "no ranges found" in capsys.readouterr().err

    def test_batch_requires_csv_flag(self):
        assert main(["answer-batch", *SMALL]) == 2


class TestExperiment:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig6",
                                      "estimators"])
    def test_experiments_run_small(self, capsys, name):
        code = main(
            ["experiment", name, "--records", "1500", "--devices", "4",
             "--queries", "4", "--trials", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "#" in out  # titled table

    def test_fig5_runs_small(self, capsys):
        code = main(
            ["experiment", "fig5", "--records", "800", "--devices", "4",
             "--queries", "4", "--trials", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ozone" in out

    def test_unknown_experiment(self):
        assert main(["experiment", "fig9"]) == 2


class TestHistogram:
    def test_histogram_runs(self, capsys):
        code = main(
            ["histogram", "--buckets", "4", "--epsilon", "1.0", *SMALL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "released_count" in out
        assert "parallel composition" in out

    def test_histogram_bucket_count(self, capsys):
        main(["histogram", "--buckets", "3", *SMALL])
        out = capsys.readouterr().out
        # Three bucket rows plus header, rule and the trailing note.
        assert out.count("[") >= 3


class TestQuantile:
    def test_quantile_runs(self, capsys):
        code = main(["quantile", "--q", "0.5", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "released_value" in out

    def test_quantile_requires_q(self):
        assert main(["quantile"]) == 2

    def test_quantile_rejects_bad_q(self, capsys):
        with pytest.raises(ValueError):
            main(["quantile", "--q", "1.5", *SMALL])


class TestCheckPricing:
    def test_inverse_passes(self, capsys):
        code = main(["check-pricing", "inverse"])
        out = capsys.readouterr().out
        assert code == 0
        assert "True" in out

    def test_power_law_fails_with_attack(self, capsys):
        code = main(["check-pricing", "power", "--exponent", "2.0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "attack:" in out

    def test_linear_fails(self, capsys):
        assert main(["check-pricing", "linear"]) == 1

    def test_tiered_fails(self, capsys):
        assert main(["check-pricing", "tiered"]) == 1

    def test_violations_truncated(self, capsys):
        main(["check-pricing", "power", "--exponent", "2.0"])
        out = capsys.readouterr().out
        assert "more violations" in out


CLUSTER_SMALL = ["--records", "2000", "--devices", "4", "--shards", "2"]


class TestClusterServe:
    def test_cluster_serve_end_to_end(self, capsys, tmp_path):
        csv = tmp_path / "requests.csv"
        csv.write_text(
            "consumer,low,high,alpha,delta\n"
            "web,60,100,0.15,0.5\n"
            "web,40,80,0.2,0.5\n"
            "mobile,60,100,0.15,0.5\n"
        )
        code = main(
            ["cluster-serve", "--requests-csv", str(csv), *CLUSTER_SMALL]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "released_count" in out
        assert "3 requests served" in out

    def test_cluster_serve_missing_csv_exits_2(self, capsys, tmp_path):
        code = main(
            ["cluster-serve", "--requests-csv", str(tmp_path / "nope.csv"),
             *CLUSTER_SMALL]
        )
        assert code == 2

    def test_cluster_serve_requires_csv_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster-serve"])


class TestLoadgen:
    def test_loadgen_reports_one_broker_call_per_dispatch(self, capsys, tmp_path):
        out_json = tmp_path / "BENCH_gateway.json"
        code = main(
            ["loadgen", *SMALL, "--consumers", "2", "--requests", "40",
             "--ranges", "4", "--json", str(out_json), "--assert-healthy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "at most one broker call per dispatch" in out
        import json

        results = json.loads(out_json.read_text())["results"]
        assert 0 < results["broker_calls"] <= results["dispatches"]


class TestClusterBench:
    def test_cluster_bench_smoke_healthy(self, capsys, tmp_path):
        out_json = tmp_path / "BENCH_cluster.json"
        code = main(
            ["cluster-bench", "--records", "2000", "--devices", "4",
             "--shards", "2", "--requests", "24", "--consumers", "2",
             "--ranges", "4", "--seed", "11", "--json", str(out_json),
             "--assert-healthy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failover engaged" in out
        assert out_json.exists()
        import json

        payload = json.loads(out_json.read_text())
        assert payload["benchmark"] == "cluster_bench"
        results = payload["results"]
        assert results["failover"]["failovers"] >= 1
        assert results["failover"]["degraded_answers"] > 0
        assert "determinism_checksum" in results

    def test_cluster_bench_rejects_bad_tiers(self, capsys):
        code = main(
            ["cluster-bench", "--tiers", "bogus", "--records", "2000",
             "--devices", "4", "--shards", "2", "--requests", "8"]
        )
        assert code == 2

    def test_cluster_bench_rejects_bad_shards(self, capsys):
        code = main(
            ["cluster-bench", "--shards", "two", "--records", "2000",
             "--devices", "4", "--requests", "8"]
        )
        assert code == 2
