"""Unit tests for the call graph and per-function summaries that back
the whole-program rules (RL001, RL009)."""

from __future__ import annotations

import ast
from typing import List

from tests.lint.conftest import synth_contexts

from repro.lint.callgraph import CallGraph, call_name, dotted_name
from repro.lint.flow import ProjectContext
from repro.lint.summaries import (
    CLEAN,
    TAINTED,
    header_exprs,
    iter_calls,
)


def _graph(files) -> CallGraph:
    return CallGraph.build(synth_contexts(files))


def _project(files) -> ProjectContext:
    return ProjectContext(synth_contexts(files))


# ----------------------------------------------------------------------
# call graph resolution
# ----------------------------------------------------------------------
def test_resolves_module_qualified_calls_across_files():
    graph = _graph(
        {
            "repro/core/noise.py": """
            def sample_laplace(scale, rng):
                return rng.laplace(scale)
            """,
            "repro/core/broker.py": """
            from repro.core.noise import sample_laplace

            def release(scale, rng):
                return sample_laplace(scale, rng)
            """,
        }
    )
    caller = graph.functions["repro.core.broker:release"]
    call = next(
        node for node in ast.walk(caller.node) if isinstance(node, ast.Call)
    )
    targets = graph.resolve_call(call, caller)
    assert [t.fid for t in targets] == ["repro.core.noise:sample_laplace"]


def test_resolves_methods_via_class_attribute_types():
    graph = _graph(
        {
            "repro/core/broker.py": """
            class Estimator:
                def estimate(self, samples):
                    return len(samples)

            class DataBroker:
                def __init__(self):
                    self.estimator = Estimator()

                def answer(self, samples):
                    return self.estimator.estimate(samples)
            """,
        }
    )
    caller = graph.functions["repro.core.broker:DataBroker.answer"]
    call = next(
        node for node in ast.walk(caller.node) if isinstance(node, ast.Call)
    )
    targets = graph.resolve_call(call, caller)
    assert [t.fid for t in targets] == ["repro.core.broker:Estimator.estimate"]


def test_resolves_duck_typed_broker_attrs_via_alias_table():
    # `self.accountant` is never assigned a concrete type here; the alias
    # table maps the attribute name to BudgetAccountant.
    graph = _graph(
        {
            "repro/privacy/accountant.py": """
            class BudgetAccountant:
                def charge(self, dataset, epsilon, label=""):
                    pass
            """,
            "repro/core/broker.py": """
            class DataBroker:
                def answer(self, plan):
                    self.accountant.charge("d", plan.epsilon_prime)
            """,
        }
    )
    caller = graph.functions["repro.core.broker:DataBroker.answer"]
    call = next(
        node for node in ast.walk(caller.node) if isinstance(node, ast.Call)
    )
    targets = graph.resolve_call(call, caller)
    assert [t.fid for t in targets] == [
        "repro.privacy.accountant:BudgetAccountant.charge"
    ]


def test_dotted_and_call_name_helpers():
    call = ast.parse("self.accountant.charge(x)").body[0].value
    assert dotted_name(call.func) == "self.accountant.charge"
    assert call_name(call) == "charge"


def test_iter_calls_skips_nested_function_bodies():
    tree = ast.parse(
        "def outer():\n"
        "    first()\n"
        "    def inner():\n"
        "        hidden()\n"
        "    second()\n"
    )
    names = []
    for stmt in tree.body[0].body:
        names.extend(call_name(c) for c in iter_calls(stmt))
    assert names == ["first", "second"]


def test_header_exprs_only_sees_compound_statement_headers():
    stmt = ast.parse(
        "if check(x):\n"
        "    in_body()\n"
    ).body[0]
    calls: List[str] = []
    for expr in header_exprs(stmt):
        calls.extend(call_name(c) for c in ast.walk(expr) if isinstance(c, ast.Call))
    assert calls == ["check"]


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def test_taint_summary_identity_helper_is_param_symbolic():
    project = _project(
        {
            "repro/core/broker.py": """
            class DataBroker:
                def _passthrough(self, raw):
                    return raw

                def _noised(self, raw, scale):
                    return raw + sample_laplace(scale, self.rng)
            """,
        }
    )
    passthrough = project.graph.functions["repro.core.broker:DataBroker._passthrough"]
    summary = project.taint_summary(passthrough)
    # Output taint depends on param 0 (`raw` after dropping self) ...
    assert summary.level == CLEAN
    assert summary.deps == frozenset({0})
    # ... while the Laplace-perturbing sibling launders any input taint.
    noised = project.graph.functions["repro.core.broker:DataBroker._noised"]
    assert project.taint_summary(noised).deps == frozenset()


def test_taint_summary_source_in_helper_is_tainted_regardless_of_args():
    project = _project(
        {
            "repro/core/broker.py": """
            class DataBroker:
                def _raw_count(self, samples, query):
                    estimate = self.estimator.estimate(samples, query.low, query.high)
                    return estimate.estimate
            """,
        }
    )
    decl = project.graph.functions["repro.core.broker:DataBroker._raw_count"]
    summary = project.taint_summary(decl)
    assert summary.level == TAINTED
    assert any("taint source" in hop.note for hop in summary.trace)


def test_lock_summary_keys_are_class_qualified_and_edges_transitive():
    project = _project(
        {
            "repro/serving/cachemod.py": """
            import threading

            class AnswerCache:
                def __init__(self):
                    self._lock = threading.Lock()

                def get(self, key):
                    with self._lock:
                        return self._entries.get(key)
            """,
            "repro/serving/gateway.py": """
            import threading

            class ServingGateway:
                def __init__(self):
                    self._dispatch_lock = threading.Lock()

                def dispatch(self, key):
                    with self._dispatch_lock:
                        return self.cache.get(key)
            """,
        }
    )
    decl = project.graph.functions["repro.serving.gateway:ServingGateway.dispatch"]
    summary = project.lock_summary(decl)
    assert "repro.serving.gateway.ServingGateway._dispatch_lock" in summary.acquires
    edges = {(edge.src, edge.dst) for edge in summary.edges}
    assert (
        "repro.serving.gateway.ServingGateway._dispatch_lock",
        "repro.serving.cachemod.AnswerCache._lock",
    ) in edges


def test_recursive_functions_do_not_hang_summary_computation():
    project = _project(
        {
            "repro/core/broker.py": """
            class DataBroker:
                def _spin(self, raw, depth):
                    if depth == 0:
                        return raw
                    return self._spin(raw, depth - 1)
            """,
        }
    )
    decl = project.graph.functions["repro.core.broker:DataBroker._spin"]
    summary = project.taint_summary(decl)
    assert summary.deps == frozenset({0})
