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
        assert results["mean_batch_width"] == pytest.approx(
            results["completed"] / results["dispatches"]
        )


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


#: ``repro journal-dump`` of the trades in
#: ``test_kernel_trades_dump_exactly_as_before``, as printed before journal
#: format v3 (and after it).
DUMPED = (
    '{"alpha": 0.2, "answer_id": 1, "consumer": "ann", "dataset": "default", "delta": 0.6, "epsilon_prime": 0.01714711127595905, "format": "repro.trade-journal", "high": 60.0, "kind": "release", "label": "ann:[10.0,60.0]", "low": 10.0, "price": 0.00025, "store_version": 1, "version": 2}\n'
    '{"alpha": 0.2, "answer_id": 2, "consumer": "b\\u00f6", "dataset": "default", "delta": 0.6, "epsilon_prime": 0.01714711127595905, "format": "repro.trade-journal", "high": 70.0, "kind": "release", "label": "b\\u00f6:[20,70]", "low": 20.0, "price": 0.00025, "store_version": 1, "version": 2}\n'
    '{"alpha": 0.2, "answer_id": 3, "consumer": "ann", "dataset": "default", "delta": 0.6, "epsilon_prime": 0.0, "format": "repro.trade-journal", "high": 60.0, "kind": "replay", "label": "ann:[10.0,60.0]", "low": 10.0, "price": 0.00025, "store_version": 1, "version": 2}\n'
    '{"alpha": 0.2, "answer_id": 4, "consumer": "cy", "dataset": "default", "delta": 0.6, "epsilon_prime": 0.0, "format": "repro.trade-journal", "high": 60.0, "kind": "replay", "label": "cy:[10.0,60.0]", "low": 10.0, "price": 0.00025, "store_version": 1, "version": 2}\n'
    '{"alpha": 0.0, "answer_id": 5, "consumer": "", "dataset": "default", "delta": 0.0, "epsilon_prime": 0.2809298036201614, "format": "repro.trade-journal", "high": 100.0, "kind": "charge", "label": "histogram[0.0,100.0]x4", "low": 0.0, "price": 0.0, "store_version": 1, "version": 2}\n'
)


class TestJournalDump:
    def test_trade_journal_prints_one_json_object_per_entry(
        self, tmp_path, capsys
    ):
        import json

        from repro.durability.journal import TradeJournal

        path = tmp_path / "trades.journal"
        record = dict(
            kind="release", consumer="käufer", dataset="d", low=-0.0,
            high=10.0, alpha=0.1, delta=0.5, epsilon_prime=0.02, price=1.5,
            store_version=3, label="käufer:[0,10]",
        )
        with TradeJournal(path=path) as journal:
            entries = journal.append_many(
                [record, dict(record, kind="replay", epsilon_prime=0.0)]
            )
        # A torn tail is reported on stderr, not printed as an entry.
        with path.open("ab") as handle:
            handle.write(b"\x20\x00\x00")
        assert main(["journal-dump", str(path)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [json.loads(line) for line in lines] == [
            entry.to_payload() for entry in entries
        ]
        assert json.loads(lines[0])["format"] == "repro.trade-journal"
        assert "torn tail" in captured.err

    def test_kernel_trades_dump_exactly_as_before(self, tmp_path, capsys):
        """Journal format v3 derives kernel labels on read and batches
        each dispatch into one frame; the dumped entries are what journal
        format v2 printed, byte for byte."""
        import numpy as np

        from repro.core.query import AccuracySpec, RangeQuery
        from repro.core.service import PrivateRangeCountingService
        from repro.durability.journal import TradeJournal

        path = tmp_path / "trades.journal"
        service = PrivateRangeCountingService.from_values(
            np.random.default_rng(0).uniform(0, 100, 500), k=4, seed=3
        )
        service.collect(0.5)
        broker = service.broker
        broker.journal = TradeJournal(path=path)
        spec = AccuracySpec(0.2, 0.6)
        ranges = [RangeQuery(10.0, 60.0), RangeQuery(20, 70), RangeQuery(10.0, 60.0)]
        first = broker.answer_batch(
            ranges, spec, ["ann", "bö", "ann"], replays={2: 0}
        )
        broker.answer_batch(
            [RangeQuery(10.0, 60.0)], spec, ["cy"], replays={0: first[0]}
        )
        service.histogram(0.0, 100.0, 4, 0.5)
        broker.journal.close()
        assert main(["journal-dump", str(path)]) == 0
        assert capsys.readouterr().out == DUMPED

    def test_window_log_is_told_apart_by_its_header(self, tmp_path, capsys):
        import json

        import numpy as np

        from repro.streaming.journal import WindowLog

        path = tmp_path / "window.journal"
        with WindowLog(path) as log:
            log.append(
                "roll", shard_id=1, epoch=0, record_count=3, rate=0.5,
                nodes=[[7, 3, np.array([1.5, 2.5]), np.array([1, 3])]],
            )
            log.append_charge("d", [0], 0.25, "q")
        assert main(["journal-dump", str(path)]) == 0
        roll, charge = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert roll["format"] == "repro.stream-journal"
        assert roll["data"]["nodes"] == [[7, 3, [1.5, 2.5], [1, 3]]]
        assert charge["data"] == {
            "dataset": "d", "epochs": [0], "epsilon": 0.25, "label": "q",
        }

    def test_empty_file_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "empty.journal"
        path.write_bytes(b"")
        assert main(["journal-dump", str(path)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("content", [None, b'{"format": "json"}\n'])
    def test_missing_or_foreign_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "trades.jsonl"
        if content is not None:
            path.write_bytes(content)
        assert main(["journal-dump", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_refuses_an_existing_journal(self, tmp_path, capsys):
        path = tmp_path / "trades.journal"
        path.write_bytes(b"\x89RPJ\x02\x00\x01\x00")
        code = main(
            ["chaos", *SMALL, "--trades", "20", "--journal", str(path)]
        )
        assert code == 2
        assert "load" in capsys.readouterr().err
