"""Cross-boundary suppressions: a ``# repro-lint: disable=`` pragma at
the source, the sink, or any intermediate hop of an interprocedural
trace suppresses exactly that finding."""

from __future__ import annotations

from typing import Dict, Optional

from tests.lint.conftest import synth_contexts

from repro.lint import default_registry
from repro.lint.flow import run_project_rules

# A two-hop RL001 chain: answer() -> _finish() -> raw estimate.
BROKER_SRC = """
class DataBroker:
    def answer(self, query):
        estimate = self.estimator.estimate(samples, query.low, query.high)
        value = self._finish(estimate.estimate)
        return PrivateAnswer(value=value, raw_value=value)

    def _finish(self, raw):
        return raw
"""


def _run(broker_src: str = BROKER_SRC, extra: Optional[Dict[str, str]] = None):
    files = {"repro/core/broker.py": broker_src}
    files.update(extra or {})
    return run_project_rules(
        synth_contexts(files), default_registry.create(only=["RL001"])
    )


def test_unsuppressed_trace_reports_with_full_chain():
    findings, suppressed = _run()
    assert [f.rule_id for f in findings] == ["RL001", "RL001"]
    assert suppressed == 0
    rendered = findings[0].render_text()
    # The message prints every hop of the chain, sink-to-source.
    assert "_finish" in rendered
    assert "taint source" in rendered
    assert rendered.count("    via ") == len(findings[0].trace)


def test_pragma_at_sink_suppresses():
    src = BROKER_SRC.replace(
        "        return PrivateAnswer(value=value, raw_value=value)",
        "        return PrivateAnswer(value=value, raw_value=value)  # repro-lint: disable=RL001",
    )
    findings, suppressed = _run(src)
    assert findings == []
    assert suppressed == 2


def test_pragma_at_intermediate_hop_suppresses():
    src = BROKER_SRC.replace(
        "        return raw",
        "        return raw  # repro-lint: disable=RL001",
    )
    findings, suppressed = _run(src)
    assert findings == []
    assert suppressed == 2


def test_pragma_at_source_suppresses():
    src = BROKER_SRC.replace(
        "        estimate = self.estimator.estimate(samples, query.low, query.high)",
        "        estimate = self.estimator.estimate(samples, query.low, query.high)  # repro-lint: disable=RL001",
    )
    findings, suppressed = _run(src)
    assert findings == []
    assert suppressed == 2


def test_pragma_suppresses_only_the_named_rule():
    src = BROKER_SRC.replace(
        "        return raw",
        "        return raw  # repro-lint: disable=RL009",
    )
    findings, suppressed = _run(src)
    assert [f.rule_id for f in findings] == ["RL001", "RL001"]
    assert suppressed == 0


def test_pragma_on_one_trace_leaves_independent_traces_alone():
    # Two independent sinks share a source; a pragma on one sink's hop
    # suppresses only that trace.
    src = """
class DataBroker:
    def answer(self, query):
        estimate = self.estimator.estimate(samples, query.low, query.high)
        value = self._finish(estimate.estimate)
        return PrivateAnswer(value=value)  # repro-lint: disable=RL001

    def answer_other(self, query):
        estimate = self.estimator.estimate(samples, query.low, query.high)
        value = self._finish(estimate.estimate)
        return PrivateAnswer(value=value)

    def _finish(self, raw):
        return raw
"""
    findings, suppressed = _run(src)
    assert [f.rule_id for f in findings] == ["RL001"]
    assert findings[0].line_text.strip().startswith("return PrivateAnswer(value=value)")
    assert "answer_other" in findings[0].message or findings[0].line > 7
    assert suppressed == 1
