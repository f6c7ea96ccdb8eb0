"""RL001 dp-boundary: taint tracking from count estimates to released answers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.summaries import PROPAGATORS
from tests.lint.conftest import rule_ids

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


def test_seeded_mutation_of_answer_batch_is_caught(mutated_project):
    """Acceptance criterion: deleting the Laplace perturbation from
    ``DataBroker``'s batch release path produces findings on
    ``answer_batch``.  The draw lives in the ``_perturb`` helper, so the
    whole-program RL001i, which follows the call, is the rule that sees
    it."""
    findings, _, _ = mutated_project(
        {
            "src/repro/core/broker.py": [
                (
                    "noise = sample_laplace_many(scales, self.rng)",
                    "noise = np.zeros_like(scales)",
                )
            ]
        },
        only=["RL001i"],
    )
    assert "RL001i" in [f.rule_id for f in findings]
    assert any("answer_batch" in f.message for f in findings)


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


def test_seeded_mutation_of_cluster_draw_is_caught(lint_snippet):
    """Acceptance criterion: deleting the coordinator's one Laplace draw
    from ``ClusterBroker.answer_batch`` releases the pooled estimates
    raw.  The pooled ``estimate_many`` and the draw both sit in
    ``answer_batch``, so the intra-function RL001 sees it."""
    rel = "src/repro/cluster/broker.py"
    source = (REPO_ROOT / rel).read_text(encoding="utf-8")
    mutated = source.replace(
        "                noise[drawn] = sample_laplace_many(\n"
        "                    [plans[k].noise_scale for k in drawn], self.rng\n"
        "                )\n",
        "",
    )
    assert mutated != source, "mutation target not found; fixture out of date"
    assert rule_ids(lint_snippet(
        source, rel_path=rel.removeprefix("src/"), rules=["RL001"]
    )) == []
    result = lint_snippet(mutated, rel_path=rel.removeprefix("src/"), rules=["RL001"])
    assert rule_ids(result) == ["RL001", "RL001"]
    assert all("answer_batch" in f.message for f in result.findings)


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


def test_cluster_release_of_listed_estimates_is_caught(lint_snippet):
    """Releasing the coordinator's pooled estimates raw through
    ``list(...)`` is a single-hop leak: RL001i leaves it to RL001, so
    RL001 must see taint through ``list``."""
    rel = "src/repro/cluster/broker.py"
    source = (REPO_ROOT / rel).read_text(encoding="utf-8")
    assert source.count("value=released,") == 1, "fixture out of date"
    mutated = source.replace("value=released,", "value=list(estimates),")
    result = lint_snippet(mutated, rel_path=rel.removeprefix("src/"), rules=["RL001"])
    assert rule_ids(result) == ["RL001"]
    assert "release_batch(value=...)" in result.findings[0].message


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
