"""SARIF 2.1.0 output: result shape, code flows for interprocedural
traces, fingerprints, and baseline states."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.lint.cli import main as lint_main
from repro.lint.sarif import render_sarif

BROKER_SRC = textwrap.dedent(
    """
    class DataBroker:
        def answer(self, query):
            estimate = self.estimator.estimate(samples, query.low, query.high)
            value = self._finish(estimate.estimate)
            return PrivateAnswer(value=value)

        def _finish(self, raw):
            return raw
    """
)


def _make_tree(tmp_path: Path) -> Path:
    broker = tmp_path / "src" / "repro" / "core" / "broker.py"
    broker.parent.mkdir(parents=True, exist_ok=True)
    broker.write_text(BROKER_SRC, encoding="utf-8")
    return tmp_path


def _sarif_via_cli(tmp_path, capsys, *extra) -> dict:
    root = _make_tree(tmp_path)
    lint_main(["--root", str(root), "--format", "sarif", *extra])
    return json.loads(capsys.readouterr().out)


def test_sarif_run_shape_and_rule_metadata(tmp_path, capsys):
    payload = _sarif_via_cli(tmp_path, capsys, "--interprocedural")
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    # Both registries are described, so code-scanning UIs can show help
    # text for every rule that may appear.
    assert {"RL001", "RL005", "RL001i", "RL007", "RL009"} <= rule_ids
    assert all(rule["fullDescription"]["text"] for rule in run["tool"]["driver"]["rules"])


def test_sarif_interprocedural_result_carries_code_flow(tmp_path, capsys):
    payload = _sarif_via_cli(tmp_path, capsys, "--interprocedural")
    results = payload["runs"][0]["results"]
    flows = [r for r in results if r["ruleId"] == "RL001i"]
    assert flows, "expected an RL001i result"
    result = flows[0]
    assert result["level"] == "error"
    assert result["partialFingerprints"]["reproLint/fingerprint/v1"]
    locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
    # Execution order: source first, sink last.
    assert "taint source" in locations[0]["location"]["message"]["text"]
    assert locations[-1]["location"]["message"]["text"] == "released/reported here"
    uri = locations[0]["location"]["physicalLocation"]["artifactLocation"]
    assert uri["uri"] == "src/repro/core/broker.py"
    assert uri["uriBaseId"] == "SRCROOT"


def test_sarif_baseline_state_tracks_the_baseline(tmp_path, capsys):
    root = _make_tree(tmp_path)
    # Accept current findings, then ask for SARIF: everything unchanged.
    lint_main(["--root", str(root), "--interprocedural", "--update-baseline"])
    capsys.readouterr()
    payload = _sarif_via_cli(tmp_path, capsys, "--interprocedural")
    states = {r["baselineState"] for r in payload["runs"][0]["results"]}
    assert states == {"unchanged"}


def test_sarif_without_baseline_marks_results_new(tmp_path, capsys):
    payload = _sarif_via_cli(tmp_path, capsys, "--interprocedural")
    states = {r["baselineState"] for r in payload["runs"][0]["results"]}
    assert states == {"new"}


def test_render_sarif_with_no_findings_is_an_empty_run():
    payload = json.loads(render_sarif([], []))
    assert payload["runs"][0]["results"] == []


def test_intra_only_results_have_no_code_flows(tmp_path, capsys):
    payload = _sarif_via_cli(tmp_path, capsys)  # no --interprocedural
    for result in payload["runs"][0]["results"]:
        assert "codeFlows" not in result
