"""CLI behaviour: exit codes, formats, baseline workflow, and the
meta-assertion that the checked-in tree is clean."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

RL005_FIXTURE = textwrap.dedent(
    """
    def pump(queue):
        try:
            queue.drain()
        except Exception:
            pass
    """
)


def _make_tree(tmp_path: Path, rel_path: str, source: str) -> Path:
    target = tmp_path / "src" / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return tmp_path


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/ok.py", "X = 1\n")
    assert lint_main(["--root", str(root)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/bad.py", RL005_FIXTURE)
    assert lint_main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "RL005" in out


def test_missing_path_exits_two(tmp_path):
    assert lint_main(["--root", str(tmp_path), "nonexistent"]) == 2


def test_json_format_payload(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/bad.py", RL005_FIXTURE)
    assert lint_main(["--root", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "repro.lint-report"
    assert payload["by_rule"] == {"RL005": 1}
    assert payload["findings"][0]["rule"] == "RL005"
    assert payload["findings"][0]["fingerprint"]


def test_update_baseline_then_fail_on_new_is_clean(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/bad.py", RL005_FIXTURE)
    assert lint_main(["--root", str(root), "--update-baseline"]) == 0
    assert (root / ".lint-baseline.json").exists()
    # Old debt is absorbed...
    assert lint_main(["--root", str(root), "--fail-on-new"]) == 0
    # ...but still fails without --fail-on-new,
    assert lint_main(["--root", str(root)]) == 1
    # and a *new* violation alongside the baselined one fails again.
    _make_tree(root, "repro/serving/worse.py", RL005_FIXTURE)
    assert lint_main(["--root", str(root), "--fail-on-new"]) == 1
    capsys.readouterr()


def test_output_file_written(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/bad.py", RL005_FIXTURE)
    report = tmp_path / "report.json"
    lint_main(["--root", str(root), "--format", "json", "--output", str(report)])
    capsys.readouterr()
    assert json.loads(report.read_text())["by_rule"] == {"RL005": 1}


@pytest.mark.parametrize(
    "rel_path, fixture",
    [
        (
            "repro/core/broker.py",
            """
            class DataBroker:
                def answer(self, query):
                    estimate = self.estimator.estimate(samples, query.low, query.high)
                    return PrivateAnswer(value=float(estimate.estimate))
            """,
        ),
        ("repro/iot/device.py", "import numpy as np\nnp.random.seed(1)\n"),
        (
            "repro/serving/registry.py",
            """
            import threading

            class R:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._state = {}  # guarded-by: _lock

                def peek(self):
                    return len(self._state)
            """,
        ),
        (
            "repro/pricing/sheet.py",
            "def same(price, quoted):\n    return price == quoted\n",
        ),
        ("repro/serving/pump.py", RL005_FIXTURE),
    ],
    ids=["RL001", "RL002", "RL003", "RL004", "RL005"],
)
def test_each_rule_fixture_injected_into_src_fails(tmp_path, capsys, rel_path, fixture):
    """Acceptance criterion: injecting any rule fixture into src/ makes
    ``repro lint --fail-on-new`` exit non-zero."""
    root = _make_tree(tmp_path, rel_path, textwrap.dedent(fixture))
    assert lint_main(["--root", str(root), "--fail-on-new"]) == 1
    capsys.readouterr()


def test_head_tree_is_clean(capsys):
    """Meta-test: ``repro lint --fail-on-new`` exits 0 on the checked-in tree."""
    assert lint_main(["--root", str(REPO_ROOT), "--fail-on-new"]) == 0
    capsys.readouterr()


def test_head_tree_is_clean_interprocedurally(capsys):
    """Meta-test: the whole-program rules (RL001, RL009) raise no findings
    when src/ and tests/ are linted as one program."""
    assert (
        lint_main(["--root", str(REPO_ROOT), "src", "tests", "--fail-on-new"]) == 0
    )
    capsys.readouterr()


def test_interprocedural_fixture_fails_via_cli(tmp_path, capsys):
    root = _make_tree(
        tmp_path,
        "repro/core/broker.py",
        textwrap.dedent(
            """
            class DataBroker:
                def answer(self, query):
                    estimate = self.estimator.estimate(samples, query.low, query.high)
                    value = self._finish(estimate.estimate)
                    self._journal_trades([dict(kind="release")])
                    self.accountant.charge(self.dataset, 0.1)
                    return PrivateAnswer(value=value)

                def _finish(self, raw):
                    return raw
            """
        ),
    )
    # Plain ``repro lint`` follows the call into ``_finish``.
    assert lint_main(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "RL001 DataBroker.answer builds PrivateAnswer(value=...)" in out
    assert "_finish" in out
    assert "    via " in out  # the call chain is printed


def test_unknown_rule_id_exits_two(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/ok.py", "X = 1\n")
    assert lint_main(["--root", str(root), "--rules", "RL999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_retired_rl007_is_an_unknown_rule_id(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/ok.py", "X = 1\n")
    assert lint_main(["--root", str(root), "--rules", "RL007"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_retired_rl001i_is_an_unknown_rule_id(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/ok.py", "X = 1\n")
    assert lint_main(["--root", str(root), "--rules", "RL001i"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_interprocedural_flag_is_gone(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/ok.py", "X = 1\n")
    with pytest.raises(SystemExit) as exit_info:
        lint_main(["--root", str(root), "--interprocedural"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --interprocedural" in capsys.readouterr().err


def test_rules_flag_splits_across_registries(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/bad.py", RL005_FIXTURE)
    # A project-rule id is accepted alongside per-file ids.
    assert lint_main(["--root", str(root), "--rules", "RL005,RL009"]) == 1
    out = capsys.readouterr().out
    assert "RL005" in out


def test_bench_json_records_timing_and_cache_stats(tmp_path, capsys):
    root = _make_tree(tmp_path, "repro/serving/ok.py", "X = 1\n")
    bench = root / "BENCH_lint.json"
    assert (
        lint_main(
            [
                "--root",
                str(root),
                "--cache",
                "--bench-json",
                str(bench),
            ]
        )
        == 0
    )
    capsys.readouterr()
    payload = json.loads(bench.read_text())
    assert payload["bench"] == "lint"
    assert payload["seconds"] >= 0
    assert payload["files_scanned"] == 1
    assert "interprocedural" not in payload
    assert payload["cache"]["enabled"] is True
    assert payload["cache"]["misses"] == 1
    assert (root / ".lint-cache").is_dir()


def test_repro_cli_subcommand_dispatches(capsys):
    assert repro_main(["lint", "--root", str(REPO_ROOT), "--fail-on-new"]) == 0
    out = capsys.readouterr().out
    assert "finding(s)" in out
