"""Journal-before-release fixtures, checked by RL007.

These are the fixtures of the retired intra-function RL006 rule, ported
to the whole-program RL007 budget-conservation rule that replaced it:
RL006 could only see a journal append written in the broker's own
``answer*`` body, while every broker now journals inside the settlement
kernel.  Each fixture still demonstrates the defect (or the clean shape)
it was written for.
"""

from __future__ import annotations

from tests.lint.conftest import synth_contexts

from repro.lint.flow import run_project_rules

UNJOURNALED_RELEASE = """
class Broker:
    def answer(self, query, spec, consumer):
        self.accountant.charge(self.dataset, 0.1)
        txn = self.ledger.record(consumer=consumer)
        return self._build_answer(query, txn)
"""

JOURNALED_RELEASE = """
class Broker:
    def answer(self, query, spec, consumer):
        self._journal_trades([dict(kind="release")])
        self.accountant.charge(self.dataset, 0.1)
        txn = self.ledger.record(consumer=consumer)
        return self._build_answer(query, txn)
"""

DIRECT_APPEND = """
class Broker:
    def answer_batch(self, queries, spec, consumer):
        self.journal.append_many(records)
        txns = self.ledger.record_many(sales)
        return [self._build(q, t) for q, t in zip(queries, txns)]
"""

JOURNAL_AFTER_RETURN_PATH = """
class Broker:
    def replay(self, cached, consumer):
        if consumer in self.blocked:
            return self._refuse(cached)
        self._journal_trades([dict(kind="replay")])
        return self._rebrand(cached, consumer)
"""

DELEGATING_RETURN = """
class Broker:
    def answer_one(self, query, spec, consumer):
        return self.answer_batch([query], spec, consumer)[0]
"""

BARE_RETURN = """
class Broker:
    def answer(self, query, spec, consumer):
        if not self.running:
            return
        self._journal_trades([dict(kind="release")])
        self.accountant.charge(self.dataset, 0.1)
        return self._build_answer(query)
"""

SUPPRESSED = """
class Broker:
    def answer(self, query, spec, consumer):
        return self._cached[query]  # repro-lint: disable=RL007
"""

NON_BROKER_MODULE = """
class Gateway:
    def answer(self, query):
        return self.backend.get(query)
"""

HELPER_METHOD = """
class Broker:
    def settle(self, consumer, epsilon):
        return self.accountant.charge(self.dataset, epsilon)
"""


def _rl007(source: str, rel_path: str = "repro/core/broker.py"):
    findings, suppressed, _ = run_project_rules(
        synth_contexts({rel_path: source}), only=["RL007"]
    )
    return findings, suppressed


def _journal_findings(findings):
    return [f for f in findings if "write-ahead journal" in f.message]


def test_release_without_journal_is_flagged():
    findings, _ = _rl007(UNJOURNALED_RELEASE)
    assert [f.rule_id for f in findings] == ["RL007"]
    assert _journal_findings(findings) == findings


def test_journal_before_return_is_clean():
    findings, _ = _rl007(JOURNALED_RELEASE)
    assert findings == []


def test_direct_journal_append_counts():
    # The fixture never charges, so RL007 reports exactly that -- and
    # nothing about the journal, which the direct append satisfied.
    findings, _ = _rl007(DIRECT_APPEND)
    assert [f.rule_id for f in findings] == ["RL007"]
    assert _journal_findings(findings) == []
    assert "accountant is never charged" in findings[0].message


def test_early_return_before_journal_is_flagged():
    # A replay owes the journal commit (but no charge) on every path.
    findings, _ = _rl007(JOURNAL_AFTER_RETURN_PATH)
    assert [f.rule_id for f in findings] == ["RL007"]
    assert findings[0].line == 5
    assert _journal_findings(findings) == findings


def test_delegating_return_is_exempt():
    findings, _ = _rl007(DELEGATING_RETURN)
    assert findings == []


def test_bare_return_releases_nothing():
    findings, _ = _rl007(BARE_RETURN)
    assert findings == []


def test_pragma_suppresses():
    findings, suppressed = _rl007(SUPPRESSED)
    assert findings == []
    # Both obligations (charge and journal) are missing on that line.
    assert suppressed == 2


def test_rule_scopes_to_broker_modules():
    flagged, _ = _rl007(NON_BROKER_MODULE, rel_path="repro/core/broker.py")
    assert _journal_findings(flagged) != []
    ignored, _ = _rl007(NON_BROKER_MODULE, rel_path="repro/serving/gateway.py")
    assert ignored == []
    for rel_path in ("repro/cluster/broker.py", "repro/core/settlement.py"):
        findings, _ = _rl007(UNJOURNALED_RELEASE, rel_path=rel_path)
        assert [f.rule_id for f in findings] == ["RL007"], rel_path


def test_non_answer_methods_are_ignored():
    findings, _ = _rl007(HELPER_METHOD)
    assert findings == []
