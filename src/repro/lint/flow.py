"""Whole-program rules of ``repro lint``.

:class:`ProjectContext` owns the project :class:`~repro.lint.callgraph.
CallGraph` and a demand-driven, memoized propagator over the per-function
summaries of :mod:`repro.lint.summaries`: a summary is computed the first
time any caller asks for it, callee summaries are requested recursively,
and recursion cycles resolve to the empty summary (one-pass
approximation; the answer paths under check are acyclic).

Two project rules run on top, in every ``repro lint`` run, over the
files it is given:

* **RL001 dp-boundary** -- the one DP-boundary rule: one
  :class:`~repro.lint.summaries.TaintWalker` per broker ``answer*`` /
  ``replay*`` function, with raw-estimate taint tracked *through project
  calls*, returns, and attribute stores until a ``repro.privacy``
  sanitizer is reached.  Each tainted return or answer construction is
  reported once, whether its source lies in the function itself or
  across a call chain.
* **RL009 lock-order** -- the global lock acquisition graph (``with``
  statements plus ``# holds:`` entry annotations, class-level lock
  keys, transitive callee acquisitions) must be acyclic; cycles are
  reported as potential deadlocks with one finding per cycle.

Findings carry :class:`~repro.lint.findings.Hop` traces (sink first,
source last) and flow through the standard suppression machinery: a
``# repro-lint: disable=RLxxx`` pragma at the finding line *or at any
hop of its trace* suppresses exactly that trace.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import CallGraph, FunctionDecl
from repro.lint.engine import FileContext, ProjectRule, default_registry
from repro.lint.findings import Finding, Hop
from repro.lint.summaries import (
    EMPTY_LOCKS,
    TAINTED,
    LockEdge,
    LockSummary,
    TaintSummary,
    TaintWalker,
    compute_lock_summary,
    compute_taint_summary,
)

__all__ = [
    "ProjectContext",
    "DpBoundaryRule",
    "LockOrderRule",
    "run_project_rules",
    "BROKER_MODULES",
]

#: Modules whose ``answer*``/``replay*`` paths release answers, plus the
#: settlement kernel they all release through: the scope of RL001.
#: ``repro.resilience`` is inside the scope because
#: brownout/hedging helpers sit on the release path: any future
#: ``answer*`` helper that moves there keeps the same static guarantees.
BROKER_MODULES = (
    "repro.core.broker",
    "repro.core.settlement",
    "repro.cluster.broker",
    "repro.streaming.broker",
    "repro.resilience.brownout",
    "repro.resilience.hedging",
)

_EMPTY_TAINT = TaintSummary()


class ProjectContext:
    """Call graph plus memoized per-function summaries for one tree."""

    def __init__(self, files: Mapping[str, FileContext]) -> None:
        #: rel_path -> FileContext for every parsed file in the run.
        self.files: Dict[str, FileContext] = dict(files)
        self.graph = CallGraph.build(self.files)
        self._taint: Dict[str, TaintSummary] = {}
        self._taint_active: Set[str] = set()
        self._locks: Dict[str, LockSummary] = {}
        self._locks_active: Set[str] = set()

    def ctx_for(self, decl: FunctionDecl) -> FileContext:
        return self.files[decl.rel_path]

    # ------------------------------------------------------------------
    # summary stores (demand-driven, cycle-guarded)
    # ------------------------------------------------------------------
    def taint_summary(self, decl: FunctionDecl) -> TaintSummary:
        key = decl.fid
        cached = self._taint.get(key)
        if cached is not None:
            return cached
        if key in self._taint_active:
            return _EMPTY_TAINT
        self._taint_active.add(key)
        try:
            summary = compute_taint_summary(
                decl, self.ctx_for(decl), self.taint_callback(decl)
            )
        finally:
            self._taint_active.discard(key)
        self._taint[key] = summary
        return summary

    def taint_callback(
        self, caller: FunctionDecl
    ) -> Callable[[ast.Call], List[Tuple[FunctionDecl, TaintSummary]]]:
        """The ``summarize_call`` hook a :class:`TaintWalker` needs."""

        def resolve(node: ast.Call) -> List[Tuple[FunctionDecl, TaintSummary]]:
            return [
                (decl, self.taint_summary(decl))
                for decl in self.graph.resolve_call(node, caller)
            ]

        return resolve

    def lock_summary(self, decl: FunctionDecl) -> LockSummary:
        cached = self._locks.get(decl.fid)
        if cached is not None:
            return cached
        if decl.fid in self._locks_active:
            return EMPTY_LOCKS
        self._locks_active.add(decl.fid)
        try:
            summary = compute_lock_summary(
                decl,
                self.ctx_for(decl),
                lambda call: self.merged_locks(call, decl),
                entry_held=self.entry_held(decl),
            )
        finally:
            self._locks_active.discard(decl.fid)
        self._locks[decl.fid] = summary
        return summary

    def merged_locks(
        self, call: ast.Call, caller: FunctionDecl
    ) -> Optional[LockSummary]:
        decls = self.graph.resolve_call(call, caller)
        if not decls:
            return None
        acquires: Dict[str, Tuple[Hop, ...]] = {}
        edges: List[LockEdge] = []
        for decl in decls:
            summary = self.lock_summary(decl)
            for key, hops in summary.acquires.items():
                acquires.setdefault(key, hops)
            edges.extend(summary.edges)
        return LockSummary(acquires=acquires, edges=tuple(edges))

    def entry_held(self, decl: FunctionDecl) -> FrozenSet[str]:
        """Lock keys a ``# holds:`` annotation declares held on entry."""
        node = decl.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ctx = self.ctx_for(decl)
        holds = ctx.comments.holds(node.lineno)
        if holds is None and node.decorator_list:
            holds = ctx.comments.holds(node.decorator_list[0].lineno)
        if holds is None:
            return frozenset()
        owner = decl.cls or decl.name
        return frozenset({f"{decl.module}.{owner}.{holds}"})


# ======================================================================
# RL001 -- dp-boundary
# ======================================================================


class DpBoundaryRule(ProjectRule):
    """RL001: count-derived values must be noised before release."""

    rule_id = "RL001"
    name = "dp-boundary"
    rationale = (
        "An exact or sampled count escaping the broker without Laplace "
        "perturbation voids the paper's (eps, eps') guarantee (Def 2.2 / "
        "Theorem 3.5); taint follows calls, returns and attribute stores "
        "until a repro.privacy sanitizer."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for decl in project.graph.functions_in_module_prefix(BROKER_MODULES):
            if not decl.name.startswith(("answer", "replay")):
                continue
            ctx = project.ctx_for(decl)
            walker = TaintWalker(ctx, project.taint_callback(decl))
            node = decl.node
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            walker.run(node)
            for event in walker.events:
                if event.value.level != TAINTED or event.settled:
                    continue
                if event.kind == "return":
                    message = (
                        f"{decl.qualname} returns a count-derived value "
                        "that is never Laplace-perturbed along its call "
                        "chain; route it through sample_laplace/"
                        "sample_laplace_many"
                    )
                else:
                    message = (
                        f"{decl.qualname} builds {event.detail} from an "
                        "unperturbed count estimate; route it through "
                        "sample_laplace/sample_laplace_many or the eps'=0 "
                        "replay path"
                    )
                yield ctx.finding(
                    self.rule_id,
                    getattr(event.node, "lineno", 1),
                    getattr(event.node, "col_offset", 0),
                    message,
                    event.value.hops,
                )


# ======================================================================
# RL009 -- lock order
# ======================================================================


class LockOrderRule(ProjectRule):
    """RL009: the global lock acquisition graph must be acyclic."""

    rule_id = "RL009"
    name = "lock-order"
    rationale = (
        "Two code paths acquiring the same pair of locks in opposite "
        "orders deadlock under load; the serving/cluster/streaming/"
        "worker layers share locks across module boundaries, so the "
        "acquisition graph is checked whole-program."
    )

    _PREFIXES = ("repro",)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        edges: Dict[Tuple[str, str], LockEdge] = {}
        for decl in project.graph.functions_in_module_prefix(self._PREFIXES):
            summary = project.lock_summary(decl)
            for edge in summary.edges:
                if edge.src == edge.dst:
                    # Same class-level key on both sides is usually two
                    # *instances* (hand-over-hand); instance-level
                    # re-entry is RL003's concern.
                    continue
                edges.setdefault((edge.src, edge.dst), edge)

        adjacency: Dict[str, Set[str]] = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())

        seen_cycles: Set[Tuple[str, ...]] = set()
        for component in _strongly_connected(adjacency):
            if len(component) < 2:
                continue
            cycle = _cycle_through(adjacency, component)
            if cycle is None:
                continue
            canonical = _canonical_cycle(cycle)
            if canonical in seen_cycles:
                continue
            seen_cycles.add(canonical)
            cycle_edges = [
                edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
                for i in range(len(cycle))
            ]
            trace: List[Hop] = []
            for edge in cycle_edges:
                trace.extend(edge.hops)
            first = cycle_edges[0].hops[0]
            pretty = " -> ".join([*cycle, cycle[0]])
            yield Finding(
                rule_id=self.rule_id,
                path=first.path,
                line=first.line,
                col=0,
                message=(
                    f"lock-order cycle (potential deadlock): {pretty}; "
                    "acquire these locks in one global order or annotate "
                    "the intended nesting with # holds:"
                ),
                line_text=first.line_text,
                trace=tuple(trace),
            )


def _strongly_connected(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Iterative Tarjan SCC over the lock graph (deterministic order)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index:
            continue
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(adjacency[root])))
        ]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(adjacency[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def _cycle_through(
    adjacency: Dict[str, Set[str]], component: List[str]
) -> Optional[List[str]]:
    """A simple cycle through ``min(component)`` inside the component."""
    members = set(component)
    start = component[0]
    path = [start]
    visited = {start}

    def dfs(node: str) -> bool:
        for nxt in sorted(adjacency.get(node, ())):
            if nxt == start and len(path) > 1:
                return True
            if nxt in members and nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                if dfs(nxt):
                    return True
                path.pop()
        return False

    return path if dfs(start) else None


def _canonical_cycle(cycle: List[str]) -> Tuple[str, ...]:
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


# ======================================================================
# driver
# ======================================================================

default_registry.register(DpBoundaryRule)
default_registry.register(LockOrderRule)


def _is_suppressed(finding: Finding, files: Mapping[str, FileContext]) -> bool:
    """Trace-aware suppression: a disable pragma at the finding line or
    at *any* hop of its trace suppresses exactly this finding."""
    ctx = files.get(finding.path)
    if ctx is not None and finding.rule_id in ctx.comments.disabled_rules(
        finding.line
    ):
        return True
    for hop in finding.trace:
        hop_ctx = files.get(hop.path)
        if hop_ctx is not None and finding.rule_id in hop_ctx.comments.disabled_rules(
            hop.line
        ):
            return True
    return False


def run_project_rules(
    files: Mapping[str, FileContext], rules: Sequence[ProjectRule]
) -> Tuple[List[Finding], int]:
    """Run ``rules`` over ``files`` as one project.

    Returns ``(findings, suppressed_count)``.
    """
    project = ProjectContext(files)
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check_project(project):
            if _is_suppressed(finding, files):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed
