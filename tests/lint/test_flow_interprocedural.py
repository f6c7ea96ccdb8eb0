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
TELEMETRY = "src/repro/serving/telemetry.py"

# ----------------------------------------------------------------------
# seeded mutations (exact anchors into the HEAD sources)
# ----------------------------------------------------------------------
#: The release pipeline's perturbation moved into a helper that returns
#: the raw estimates -- every broker releases through the pipeline, so
#: all three ``answer_batch`` paths leak.
MUTATION_RL001I = {
    BROKER: [
        (
            "            raw_values = estimates + noise\n",
            "            raw_values = _release_value(estimates, noise)\n",
        ),
        (
            "def release_views(",
            "def _release_value(raw, noise):\n"
            "    return raw\n"
            "\n"
            "\n"
            "def release_views(",
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
    # Every broker releases through the pipeline: each one's
    # answer_batch, the one-row replay that calls it, and the shared
    # Trading.answer, whose self.answer_batch reaches every broker's, leak.
    assert [f.rule_id for f in findings] == ["RL001i"] * 7
    assert {f.message.split(" ", 1)[0] for f in findings} == {
        f"{broker}.{entry}"
        for broker in ("DataBroker", "ClusterBroker", "StreamingBroker")
        for entry in ("answer_batch", "replay")
    } | {"Trading.answer"}
    assert {f.path for f in findings} == {BROKER, CLUSTER, STREAMING}
    for finding in findings:
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
# (b) RL009: inverted two-lock acquisition across modules
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
    # Running only RL001i over the RL009 mutation reports nothing.
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL001i"])
    assert findings == []


def test_finding_fingerprints_survive_unrelated_refactors(mutated_project, head_sources):
    """Summary-hash versioning: renaming an intermediate local variable
    between source and sink leaves the fingerprint unchanged."""
    base, _, _ = mutated_project(MUTATION_RL001I, only=["RL001i"])
    renamed = {
        BROKER: MUTATION_RL001I[BROKER]
        + [
            (
                "            released = np.clip(raw_values, 0.0, views[0].bound)",
                "            bounded = raw_values\n"
                "            released = np.clip(bounded, 0.0, views[0].bound)",
            ),
        ]
    }
    after, _, _ = mutated_project(renamed, only=["RL001i"])
    assert {f.fingerprint for f in base} == {f.fingerprint for f in after}
