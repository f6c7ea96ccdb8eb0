"""Acceptance tests for the interprocedural rules over the real tree.

Each test applies one of the ISSUE's seeded mutations to a HEAD source
file in memory and asserts (1) the whole-program rule fires with a full
call-chain trace and (2) the corresponding intra-procedural rule stays
blind to it -- the defect only exists across a call boundary.
"""

from __future__ import annotations

from tests.lint.conftest import REPO_ROOT, rule_ids

from repro.lint import LintEngine, default_registry
from repro.lint.flow import run_project_rules

BROKER = "src/repro/core/broker.py"
CLUSTER = "src/repro/cluster/broker.py"
STREAMING = "src/repro/streaming/broker.py"
SETTLEMENT = "src/repro/core/settlement.py"
TELEMETRY = "src/repro/serving/telemetry.py"

# ----------------------------------------------------------------------
# seeded mutations (exact anchors into the HEAD sources)
# ----------------------------------------------------------------------
MUTATION_RL001I = {
    BROKER: [
        (
            "            raw_values = self._perturb(estimates, plans)\n",
            "            raw_values = self._release_value(estimates, plans)\n",
        ),
        (
            "    def answer_batch(",
            "    def _release_value(self, raw, plans):\n"
            "        return raw\n"
            "\n"
            "    def answer_batch(",
        ),
    ]
}

#: The settlement kernel's accountant charge moved into a helper that
#: only charges "large" batches -- every broker settles through the
#: kernel, so all three ``answer_batch`` paths release uncharged.
MUTATION_RL007 = {
    SETTLEMENT: [
        (
            "    broker.accountant.charge_many(dataset, charges, charge_labels)\n",
            "    _charge_large(broker, charges, charge_labels)\n",
        ),
        (
            "def release_batch(",
            "def _charge_large(broker, charges, labels):\n"
            "    if sum(charges) > 1.0:\n"
            "        broker.accountant.charge_many(broker.dataset, charges, labels)\n"
            "\n"
            "\n"
            "def release_batch(",
        ),
    ]
}

#: The kernel stops journaling: journal-before-release is gone for every
#: broker at once (the defect the retired intra-function RL006 could no
#: longer see once the append moved into the kernel).
MUTATION_KERNEL_JOURNAL = {
    SETTLEMENT: [
        ("    _journal_trades(broker.journal, records)\n", ""),
    ]
}

#: The hedged duplicate-release bug: a refactor routes the cluster's
#: settlement through a helper that skips the accountant whenever a
#: hedge won the race -- on the (wrong) theory that the losing lane
#: already billed.  The hedge's exactly-once claim means the loser never
#: touched the books, so the hedged branch releases answers uncharged.
MUTATION_RL007_HEDGE = {
    CLUSTER: [
        (
            "            merged = release_batch(\n"
            "                self,\n"
            "                batch,\n",
            "            merged = self._settle_and_bill(\n"
            "                batch,\n",
        ),
        (
            "    def answer_batch(",
            "    def _settle_and_bill(self, batch, **columns):\n"
            "        if self.hedging is None or self.hedging.hedges_won == 0:\n"
            "            return release_batch(self, batch, **columns)\n"
            "        self.journal.append_many(self._trade_records(batch))\n"
            "        txns = self.ledger.record_many(self._sales(batch))\n"
            "        return self._assemble(batch, txns, **columns)\n"
            "\n"
            "    def answer_batch(",
        ),
    ]
}

MUTATION_RL009 = {
    TELEMETRY: [
        (
            "    def counter(self, name: str) -> Counter:\n",
            "    def sync_admission(self, consumer: str) -> None:\n"
            "        with self._lock:\n"
            "            self._admission.release(consumer, 0.0)\n"
            "\n"
            "    def counter(self, name: str) -> Counter:\n",
        ),
    ]
}


def _intra_findings(mutations, rules):
    """Intra-procedural findings for each mutated file."""
    engine = LintEngine(rules=default_registry.create(only=rules))
    out = []
    for rel, replacements in mutations.items():
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        for old, new in replacements:
            assert old in source, f"mutation anchor not found in {rel}"
            source = source.replace(old, new, 1)
        result = engine.lint_source(source, rel.removeprefix("src/"))
        out.extend(result.findings)
    return out


# ----------------------------------------------------------------------
# the clean tree
# ----------------------------------------------------------------------
def test_head_tree_has_no_interprocedural_findings(head_contexts):
    findings, _suppressed, _project = run_project_rules(head_contexts)
    assert findings == []


# ----------------------------------------------------------------------
# (a) RL001i: Laplace deleted in a helper called by the answer path
# ----------------------------------------------------------------------
def test_rl001i_taint_through_helper_return(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL001I, only=["RL001i"])
    assert [f.rule_id for f in findings] == ["RL001i", "RL001i"]
    for finding in findings:
        assert finding.path == BROKER
        assert len(finding.trace) >= 2, "expected a multi-hop call chain"
        notes = [hop.note for hop in finding.trace]
        assert any("_release_value" in note for note in notes)
        assert "taint source" in notes[-1]
        # The rendered message prints the whole chain.
        rendered = finding.render_text()
        assert rendered.count("    via ") == len(finding.trace)


def test_rl001i_mutation_is_invisible_to_intra_rl001():
    assert _intra_findings(MUTATION_RL001I, ["RL001"]) == []


# ----------------------------------------------------------------------
# (b) RL007: charge moved to a callee that only charges on one branch
# ----------------------------------------------------------------------
def test_rl007_conditional_charge_in_callee(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL007, only=["RL007"])
    # One kernel defect, one finding per broker that settles through it.
    assert [f.rule_id for f in findings] == ["RL007"] * 3
    assert {f.path for f in findings} == {BROKER, CLUSTER, STREAMING}
    for finding in findings:
        assert "answer_batch" in finding.message
        assert "accountant is never charged" in finding.message
        notes = [hop.note for hop in finding.trace]
        assert any(
            "release_batch" in note and "some of its paths" in note
            for note in notes
        )
        assert any("_charge_large" in note for note in notes)


def test_rl007_mutation_is_invisible_to_intra_rules():
    assert _intra_findings(MUTATION_RL007, ["RL001"]) == []


def test_rl007_catches_a_kernel_that_stops_journaling(mutated_project):
    findings, _, _ = mutated_project(MUTATION_KERNEL_JOURNAL, only=["RL007"])
    assert [f.rule_id for f in findings] == ["RL007"] * 3
    assert {f.path for f in findings} == {BROKER, CLUSTER, STREAMING}
    for finding in findings:
        assert "answer_batch" in finding.message
        assert "never committed to the write-ahead journal" in finding.message


# ----------------------------------------------------------------------
# (b') RL007: hedged duplicate release -- charge skipped when a hedge won
# ----------------------------------------------------------------------
def test_rl007_hedged_duplicate_release_is_caught(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL007_HEDGE, only=["RL007"])
    assert [f.rule_id for f in findings] == ["RL007"]
    finding = findings[0]
    assert finding.path == CLUSTER
    assert "accountant is never charged" in finding.message
    assert "on every path of the callee" in finding.message
    notes = [hop.note for hop in finding.trace]
    assert any(
        "_settle_and_bill" in note and "some of its paths" in note
        for note in notes
    )


def test_rl007_hedged_mutation_is_invisible_to_intra_rules():
    assert _intra_findings(MUTATION_RL007_HEDGE, ["RL001"]) == []


# ----------------------------------------------------------------------
# (c) RL009: inverted two-lock acquisition across modules
# ----------------------------------------------------------------------
def test_rl009_lock_order_inversion_across_modules(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL009"])
    assert [f.rule_id for f in findings] == ["RL009"]
    finding = findings[0]
    assert "lock-order cycle" in finding.message
    assert "AdmissionController._lock" in finding.message
    assert "MetricsRegistry._lock" in finding.message
    # The trace walks both halves of the cycle, through both modules.
    paths = {hop.path for hop in finding.trace}
    assert paths == {
        "src/repro/serving/admission.py",
        "src/repro/serving/telemetry.py",
    }


def test_rl009_reports_each_cycle_once(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL009"])
    messages = [f.message for f in findings]
    assert len(messages) == len(set(messages)) == 1


# ----------------------------------------------------------------------
# rule selection
# ----------------------------------------------------------------------
def test_project_rules_can_be_subset(mutated_project):
    # Running only RL007 over the RL009 mutation reports nothing.
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL007"])
    assert findings == []


def test_finding_fingerprints_survive_unrelated_refactors(mutated_project, head_sources):
    """Summary-hash versioning: renaming an intermediate local variable
    between source and sink leaves the fingerprint unchanged."""
    base, _, _ = mutated_project(MUTATION_RL001I, only=["RL001i"])
    renamed = {
        BROKER: MUTATION_RL001I[BROKER]
        + [
            (
                "            released = np.clip(raw_values, 0.0, float(self.base_station.n))",
                "            bounded = raw_values\n"
                "            released = np.clip(bounded, 0.0, float(self.base_station.n))",
            ),
        ]
    }
    after, _, _ = mutated_project(renamed, only=["RL001i"])
    assert {f.fingerprint for f in base} == {f.fingerprint for f in after}
