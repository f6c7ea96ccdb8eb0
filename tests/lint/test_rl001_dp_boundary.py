"""RL001 dp-boundary: taint tracking from count estimates to released answers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.flow import run_project_rules
from repro.lint.summaries import PROPAGATORS
from tests.lint.conftest import rule_ids, synth_contexts

REPO_ROOT = Path(__file__).resolve().parents[2]

LEAKY = """
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        samples = self.base_station.current_samples()
        estimate = self.estimator.estimate(samples, query.low, query.high)
        released = float(estimate.estimate)
        return PrivateAnswer(
            value=released,
            raw_value=estimate.estimate,
            sample_estimate=estimate.estimate,
        )
"""

NOISED = """
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        samples = self.base_station.current_samples()
        estimate = self.estimator.estimate(samples, query.low, query.high)
        noise = float(sample_laplace(plan.noise_scale, self.rng))
        raw_value = estimate.estimate + noise
        released = float(min(max(raw_value, 0.0), float(self.base_station.n)))
        return PrivateAnswer(
            value=released,
            raw_value=raw_value,
            sample_estimate=estimate.estimate,
        )
"""

TAINTED_RETURN = """
class DataBroker:
    def answer_exact(self, query):
        estimate = self.estimator.estimate(samples, query.low, query.high)
        return float(estimate.estimate)
"""


def test_unperturbed_answer_is_flagged(lint_snippet):
    result = lint_snippet(LEAKY, rules=["RL001"])
    ids = rule_ids(result)
    assert ids.count("RL001") == 2  # value= and raw_value=
    assert "sample_laplace" in result.findings[0].message


def test_laplace_perturbed_answer_is_clean(lint_snippet):
    result = lint_snippet(NOISED, rules=["RL001"])
    assert rule_ids(result) == []


def test_tainted_bare_return_is_flagged(lint_snippet):
    result = lint_snippet(TAINTED_RETURN, rules=["RL001"])
    assert rule_ids(result) == ["RL001"]
    assert "returns a count-derived value" in result.findings[0].message


def test_rule_is_scoped_to_broker_modules(lint_snippet):
    # The same leak outside the broker modules (e.g. an estimator
    # returning its own estimate) is not a DP-boundary violation.
    result = lint_snippet(LEAKY, rel_path="repro/estimators/rank.py", rules=["RL001"])
    assert rule_ids(result) == []


def test_inline_suppression_is_honoured(lint_snippet):
    suppressed = LEAKY.replace(
        "value=released,",
        "value=released,  # repro-lint: disable=RL001",
    ).replace(
        "raw_value=estimate.estimate,",
        "raw_value=estimate.estimate,  # repro-lint: disable=RL001",
    )
    result = lint_snippet(suppressed, rules=["RL001"])
    assert rule_ids(result) == []
    assert result.suppressed == 2


def test_real_broker_sources_are_clean(lint_snippet):
    for rel in (
        "src/repro/core/broker.py",
        "src/repro/core/settlement.py",
        "src/repro/cluster/broker.py",
        "src/repro/streaming/broker.py",
    ):
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        result = lint_snippet(source, rel_path=rel.removeprefix("src/"), rules=["RL001"])
        assert rule_ids(result) == [], rel


def test_kernel_release_columns_are_sinks(lint_snippet):
    """The settlement kernel builds answers from ``release_batch``'s
    ``value=`` / ``raw_value=`` columns, so raw estimates handed to it
    are a leak exactly like ``PrivateAnswer(value=raw)``."""
    source = """
class StreamingBroker:
    def answer_batch(self, queries, spec, consumer="anonymous"):
        estimates = self.estimator.estimate_many(samples, ranges)
        return release_batch(self, batch, value=estimates, raw_value=estimates)
"""
    result = lint_snippet(source, rel_path="repro/streaming/broker.py", rules=["RL001"])
    assert rule_ids(result) == ["RL001", "RL001"]


#: Every broker's answer_batch, and the one-row replay that calls it:
#: each releases through the one pipeline in ``core/broker.py``.
LANE_ENTRIES = {
    f"{broker}.{entry}"
    for broker in ("DataBroker", "ClusterBroker", "StreamingBroker")
    for entry in ("answer_batch", "replay")
}


def _entries(findings):
    return {f.message.split(" ", 1)[0] for f in findings}


def test_seeded_mutation_of_answer_batch_is_caught(mutated_project):
    """Acceptance criterion: deleting the Laplace perturbation from the
    release pipeline's single draw produces findings on every broker's
    ``answer_batch``.  The draw lives in ``release_views``, which each
    ``answer_batch`` calls, so the whole-program RL001i, which follows
    the call, is the rule that sees it."""
    findings, _, _ = mutated_project(
        {
            "src/repro/core/broker.py": [
                (
                    "noise = sample_laplace_many(scales, broker.rng)",
                    "noise = np.zeros_like(scales)",
                )
            ]
        },
        only=["RL001i"],
    )
    assert {f.rule_id for f in findings} == {"RL001i"}
    assert _entries(findings) == LANE_ENTRIES


def test_element_stores_carry_taint_and_noise(lint_snippet):
    """``col[rows] += estimate_many(...)`` taints ``col``; an element
    store of a Laplace draw noises its container."""
    source = """
class ClusterBroker:
    def answer_batch(self, queries, spec, consumer="anonymous"):
        estimates = np.zeros(len(queries))
        estimates[rows] += self.estimator.estimate_many(samples, ranges)
        noise = np.zeros(len(queries))
        noise[rows] = sample_laplace_many(scales, self.rng)
        return release_batch(self, batch, value=estimates + noise, raw_value=estimates)
"""
    result = lint_snippet(source, rel_path="repro/cluster/broker.py", rules=["RL001"])
    assert rule_ids(result) == ["RL001"]
    assert "raw_value" in result.findings[0].message


def test_seeded_mutation_of_cluster_draw_is_caught(mutated_project, lint_snippet):
    """Acceptance criterion: deleting the pipeline's one Laplace draw
    releases the cluster's pooled estimates raw -- and every other
    lane's -- so RL001i fires on each ``answer_batch``, while the
    unmutated cluster source is clean."""
    rel = "src/repro/cluster/broker.py"
    source = (REPO_ROOT / rel).read_text(encoding="utf-8")
    assert rule_ids(lint_snippet(
        source, rel_path=rel.removeprefix("src/"), rules=["RL001"]
    )) == []
    findings, _, _ = mutated_project(
        {
            "src/repro/core/broker.py": [
                ("            noise = sample_laplace_many(scales, broker.rng)\n", ""),
            ]
        },
        only=["RL001i"],
    )
    assert _entries(findings) == LANE_ENTRIES
    assert rel in {f.path for f in findings}


def test_seeded_mutation_of_scalar_answer_is_caught(lint_snippet):
    """A scalar ``answer`` that stops delegating to the batch path and
    returns the raw estimate is an intra-function leak."""
    source = (REPO_ROOT / "src/repro/core/broker.py").read_text(encoding="utf-8")
    mutated = source.replace(
        "        return self.answer_batch([query], spec, consumer)[0]",
        "        samples = self.base_station.samples()\n"
        "        return self.estimator.estimate(samples, query.low, query.high).estimate",
    )
    assert mutated != source, "mutation target not found; fixture out of date"
    result = lint_snippet(mutated, rules=["RL001"])
    assert "RL001" in rule_ids(result)


def test_cluster_release_of_listed_estimates_is_caught(mutated_project):
    """Releasing the pooled estimates raw through ``list(...)`` in the
    release pipeline: the kernel's answers carry the taint of the value
    column they release, so every lane's ``answer_batch`` -- the cluster's
    included -- returns it, through ``list``."""
    rel = "src/repro/core/broker.py"
    source = (REPO_ROOT / rel).read_text(encoding="utf-8")
    assert source.count("value=released,") == 1, "fixture out of date"
    findings, _, _ = mutated_project(
        {rel: [("value=released,", "value=list(estimates),")]},
        only=["RL001i"],
    )
    assert _entries(findings) == LANE_ENTRIES
    assert "src/repro/cluster/broker.py" in {f.path for f in findings}
    assert all("never Laplace-perturbed" in f.message for f in findings)


@pytest.mark.parametrize("propagator", sorted(PROPAGATORS))
def test_every_propagator_carries_taint_to_the_answer(lint_snippet, propagator):
    source = f"""
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        estimate = self.estimator.estimate(samples, query.low, query.high)
        return PrivateAnswer(value={propagator}(estimate))
"""
    result = lint_snippet(source, rules=["RL001"])
    assert rule_ids(result) == ["RL001"]
    assert "PrivateAnswer(value=...)" in result.findings[0].message


# ----------------------------------------------------------------------
# RL001 and RL001i report a leak once between them
# ----------------------------------------------------------------------
LAUNDERED_IN_PLACE = """
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        self.last = self.estimator.estimate(samples, query.low, query.high)
        return PrivateAnswer(value=self.last)
"""

LAUNDERED_ACROSS_CALLS = """
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        self.last = self._fetch(query)
        return PrivateAnswer(value=self.last)

    def _fetch(self, query):
        return self.estimator.estimate(samples, query.low, query.high)
"""


def _both_rules(source, lint_snippet):
    from repro.lint.flow import run_project_rules
    from tests.lint.conftest import synth_contexts

    intra = rule_ids(lint_snippet(source, rules=["RL001"]))
    project, _, _ = run_project_rules(
        synth_contexts({"repro/core/broker.py": source}), only=["RL001i"]
    )
    return intra + [finding.rule_id for finding in project]


def test_a_leak_through_self_inside_one_function_is_reported_once(lint_snippet):
    """The trace never leaves ``answer``: RL001's finding, not RL001i's."""
    assert _both_rules(LAUNDERED_IN_PLACE, lint_snippet) == ["RL001"]


def test_the_same_leak_split_across_functions_is_rl001i(lint_snippet):
    """The trace runs through ``_fetch``: RL001 cannot see the source."""
    assert _both_rules(LAUNDERED_ACROSS_CALLS, lint_snippet) == ["RL001i"]


def test_a_settling_helper_returns_the_taint_of_its_value_column():
    """A helper that settles through the kernel and returns its answers
    hands its caller the taint of the ``value`` it released: RL001i
    reports the caller's return when the value is raw, and nothing when
    it is noised."""
    files = synth_contexts({
        "src/repro/core/broker.py": """
            def settle(broker, batch, estimates, noise):
                return release_batch(broker, batch, value=estimates + noise)


            def leak(broker, batch, estimates):
                return release_batch(broker, batch, value=list(estimates))


            class DataBroker:
                def answer_batch(self, queries, spec, consumer="anonymous"):
                    estimates = self.estimator.estimate_many(samples, ranges)
                    return settle(self, batch, estimates, sample_laplace_many(scales, self.rng))

                def answer_leaky(self, queries, spec, consumer="anonymous"):
                    estimates = self.estimator.estimate_many(samples, ranges)
                    return leak(self, batch, estimates)
        """,
    })
    findings, _, _ = run_project_rules(files, only=["RL001i"])
    assert [f.message.split(" ", 1)[0] for f in findings] == ["DataBroker.answer_leaky"]
    assert "returns a count-derived value" in findings[0].message
