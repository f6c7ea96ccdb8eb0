"""Whole-program interprocedural rules (``repro lint --interprocedural``).

:class:`ProjectContext` owns the project :class:`~repro.lint.callgraph.
CallGraph` and a demand-driven, memoized propagator over the per-function
summaries of :mod:`repro.lint.summaries`: a summary is computed the first
time any caller asks for it, callee summaries are requested recursively,
and recursion cycles resolve to the empty summary (one-pass
approximation; the accounting/answer paths under check are acyclic).

Three project rules run on top:

* **RL001i dp-boundary-flow** -- the same
  :class:`~repro.lint.summaries.TaintWalker` RL001 runs, but raw-estimate
  taint is tracked *through project calls*, returns, and attribute
  stores until a ``repro.privacy`` sanitizer is reached.  Only findings
  whose trace leaves the reporting function are reported: a single-hop
  leak, or one whose hops all lie in the function itself (laundered
  through ``self.x``, say), is RL001's finding.
* **RL007 budget-conservation** -- every path of a broker ``answer*``
  function that releases an answer must first be charged to the budget
  accountant AND committed to the write-ahead journal, across calls
  (the brokers discharge both through the settlement kernel); an
  ε′ = 0 ``replay*`` path owes the journal commit only.  Conditional
  effects in the *own* body are accepted (an all-replay batch
  legitimately charges nothing); an obligation discharged through a
  resolved callee requires the callee to perform it on **every** path.
  This subsumes the retired intra-function RL006 journal-before-release,
  which could not see a journal append made inside the kernel.
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
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import CallGraph, FunctionDecl, call_name
from repro.lint.engine import FileContext
from repro.lint.findings import Finding, Hop
from repro.lint.summaries import (
    EFFECT_CHARGE,
    EFFECT_JOURNAL,
    EMPTY_EFFECTS,
    EMPTY_LOCKS,
    TAINTED,
    EffectSummary,
    LockEdge,
    LockSummary,
    TaintSummary,
    TaintWalker,
    compute_effect_summary,
    compute_lock_summary,
    compute_taint_summary,
    header_exprs,
    intrinsic_effects,
    iter_calls,
)

__all__ = [
    "ProjectContext",
    "ProjectRule",
    "project_registry",
    "create_project_rules",
    "run_project_rules",
    "BROKER_MODULES",
]

#: Modules whose ``answer*``/``replay*`` paths release answers, plus the
#: settlement kernel they all release through: the scope of RL001,
#: RL001i and RL007.  ``repro.resilience`` is inside the scope because
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
        self._effects: Dict[str, EffectSummary] = {}
        self._effects_active: Set[str] = set()
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

    def effect_summary(self, decl: FunctionDecl) -> EffectSummary:
        cached = self._effects.get(decl.fid)
        if cached is not None:
            return cached
        if decl.fid in self._effects_active:
            return EMPTY_EFFECTS
        self._effects_active.add(decl.fid)
        try:
            summary = compute_effect_summary(
                decl,
                self.ctx_for(decl),
                lambda call: self.merged_effects(call, decl),
            )
        finally:
            self._effects_active.discard(decl.fid)
        self._effects[decl.fid] = summary
        return summary

    def merged_effects(
        self, call: ast.Call, caller: FunctionDecl
    ) -> Optional[EffectSummary]:
        """Join of every resolved candidate: must=AND, may=OR."""
        decls = self.graph.resolve_call(call, caller)
        if not decls:
            return None
        summaries = [self.effect_summary(decl) for decl in decls]
        must = frozenset.intersection(*(s.must for s in summaries))
        may = frozenset().union(*(s.may for s in summaries))
        sites: Dict[str, Tuple[Hop, ...]] = {}
        for summary in summaries:
            for effect, hops in summary.sites.items():
                sites.setdefault(effect, hops)
        return EffectSummary(must=must, may=may, sites=sites)

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

    # ------------------------------------------------------------------
    # finding construction
    # ------------------------------------------------------------------
    def finding(
        self,
        rule_id: str,
        decl_or_ctx: object,
        node: ast.AST,
        message: str,
        trace: Sequence[Hop] = (),
    ) -> Finding:
        ctx = (
            decl_or_ctx
            if isinstance(decl_or_ctx, FileContext)
            else self.ctx_for(decl_or_ctx)  # type: ignore[arg-type]
        )
        line = getattr(node, "lineno", 1)
        return Finding(
            rule_id=rule_id,
            path=ctx.rel_path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            line_text=ctx.line_text(line),
            trace=tuple(trace),
        )


# ======================================================================
# rule plumbing
# ======================================================================


class ProjectRule:
    """Base class for whole-program rules (one run per project, not per
    file -- suppression is trace-aware and handled by the driver)."""

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRuleRegistry:
    def __init__(self) -> None:
        self._factories: Dict[str, Callable[[], ProjectRule]] = {}

    def register(self, factory: Callable[[], ProjectRule]) -> Callable[[], ProjectRule]:
        probe = factory()
        if not probe.rule_id:
            raise ValueError(f"project rule {factory!r} has no rule_id")
        if probe.rule_id in self._factories:
            raise ValueError(f"duplicate project rule id {probe.rule_id}")
        self._factories[probe.rule_id] = factory
        return factory

    def rule_ids(self) -> List[str]:
        return sorted(self._factories)

    def create(self, only: Optional[Sequence[str]] = None) -> List[ProjectRule]:
        if only is None:
            wanted = self.rule_ids()
        else:
            # ``--rules`` lists intra and project ids together; silently
            # take the subset that belongs to this registry.
            wanted = [rid for rid in only if rid in self._factories]
        return [self._factories[rid]() for rid in wanted]


project_registry = ProjectRuleRegistry()


def create_project_rules(only: Optional[Sequence[str]] = None) -> List[ProjectRule]:
    return project_registry.create(only=only)


# ======================================================================
# RL001i -- interprocedural dp-boundary
# ======================================================================


def _within(hops: Sequence[Hop], path: str, func: ast.AST) -> bool:
    """Whether every hop of a trace lies inside ``func`` (in ``path``)."""
    first = getattr(func, "lineno", 0)
    last = getattr(func, "end_lineno", None) or first
    return all(hop.path == path and first <= hop.line <= last for hop in hops)


class InterproceduralDpBoundaryRule(ProjectRule):
    """RL001i: raw-count taint tracked across project calls."""

    rule_id = "RL001i"
    name = "dp-boundary-flow"
    rationale = (
        "Moving the Laplace draw into a helper (or deleting it there) "
        "must not blind the DP boundary check: taint follows calls, "
        "returns and attribute stores until a repro.privacy sanitizer."
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
                if len(event.value.hops) < 2 or _within(
                    event.value.hops, ctx.rel_path, node
                ):
                    # The source is visible right here (one hop, or a
                    # chain that never leaves this function, such as a
                    # value laundered through ``self.x``): RL001's finding.
                    continue
                if event.kind == "return":
                    message = (
                        f"{decl.qualname} returns a count-derived value "
                        "that is never Laplace-perturbed anywhere along "
                        "the call chain (interprocedural dp-boundary)"
                    )
                elif event.kind == "answer":
                    message = (
                        f"{decl.qualname} builds {event.detail} from an "
                        "unperturbed estimate produced across a call "
                        "chain; route it through sample_laplace/"
                        "sample_laplace_many before release"
                    )
                else:
                    continue
                yield project.finding(
                    self.rule_id, ctx, event.node, message, event.value.hops
                )


# ======================================================================
# RL007 -- budget conservation
# ======================================================================


def _is_delegation(expr: Optional[ast.expr]) -> bool:
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Call) and call_name(node).startswith(
        ("answer", "replay")
    )


class _ReleaseWalker:
    """Path walk of one ``answer*`` / ``replay*`` body checking that the
    ``required`` effects (charge and journal; journal only for a replay)
    dominate each release (non-delegating ``return <value>``).

    ``have`` accumulates effects observed on the current path.  Own-body
    intrinsics merge may-style across branches (the author sees the
    condition; an all-replay batch charges nothing by design), while a
    resolved callee only contributes its **must** effects -- a callee
    that charges on just one branch does not discharge the obligation.
    """

    def __init__(
        self,
        project: ProjectContext,
        decl: FunctionDecl,
        required: Tuple[str, ...],
    ) -> None:
        self.project = project
        self.decl = decl
        #: Effects every release of this function owes.
        self.required = required
        self.ctx = project.ctx_for(decl)
        self.findings: List[Finding] = []
        #: effect -> trace hops of a site where it only *may* happen
        #: (conditional inside a callee) -- used to sharpen messages.
        self.weak: Dict[str, Tuple[Hop, ...]] = {}

    def _hop(self, node: ast.AST, note: str) -> Hop:
        line = getattr(node, "lineno", 1)
        return Hop(
            path=self.ctx.rel_path,
            line=line,
            note=note,
            line_text=self.ctx.line_text(line).strip(),
        )

    def _absorb_calls(self, part: ast.AST, have: Set[str]) -> None:
        for node in iter_calls(part):
            have |= intrinsic_effects(node)
            summary = self.project.merged_effects(node, self.decl)
            if summary is None:
                continue
            have |= summary.must
            for effect in summary.may - summary.must:
                if effect not in self.weak:
                    inner = summary.sites.get(effect, ())
                    self.weak[effect] = (
                        self._hop(
                            node,
                            f"`{call_name(node)}(...)` performs the "
                            f"{effect} only on some of its paths",
                        ),
                    ) + inner

    def walk(self, stmts: Sequence[ast.stmt], have: Set[str]) -> bool:
        """Returns True when every path through ``stmts`` terminated."""
        for stmt in stmts:
            for part in header_exprs(stmt):
                self._absorb_calls(part, have)
            if isinstance(stmt, ast.Return):
                if stmt.value is not None and not _is_delegation(stmt.value):
                    self._check_release(stmt, have)
                return True
            if isinstance(stmt, ast.Raise):
                return True
            if isinstance(stmt, ast.If):
                branch_have = set(have)
                else_have = set(have)
                body_done = self.walk(stmt.body, branch_have)
                else_done = self.walk(stmt.orelse, else_have)
                if body_done and else_done:
                    return True
                survivors = [
                    state
                    for state, done in (
                        (branch_have, body_done),
                        (else_have, else_done),
                    )
                    if not done
                ]
                have.clear()
                have.update(*survivors)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                loop_have = set(have)
                self.walk(stmt.body, loop_have)
                self.walk(stmt.orelse, loop_have)
                have |= loop_have
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                if self.walk(stmt.body, have):
                    return True
            elif isinstance(stmt, ast.Try):
                body_have = set(have)
                self.walk(stmt.body, body_have)
                have |= body_have
                for handler in stmt.handlers:
                    handler_have = set(have)
                    self.walk(handler.body, handler_have)
                    have |= handler_have
                else_have = set(have)
                self.walk(stmt.orelse, else_have)
                have |= else_have
                if self.walk(stmt.finalbody, have):
                    return True
        return False

    def _check_release(self, stmt: ast.Return, have: Set[str]) -> None:
        for effect, what, fix in (
            (
                EFFECT_CHARGE,
                "the budget accountant is never charged",
                "charge the accountant (accountant.charge/charge_many)",
            ),
            (
                EFFECT_JOURNAL,
                "the trade is never committed to the write-ahead journal",
                "append the trade (self._journal_trades or journal.append)",
            ),
        ):
            if effect in have or effect not in self.required:
                continue
            trace: Tuple[Hop, ...] = ()
            detail = ""
            if effect in self.weak:
                trace = self.weak[effect]
                detail = " on every path of the callee it delegates to"
            self.findings.append(
                self.project.finding(
                    "RL007",
                    self.ctx,
                    stmt,
                    f"{self.decl.qualname} releases an answer on a path "
                    f"where {what}; {fix}{detail} before the return "
                    "(budget conservation)",
                    trace,
                )
            )


class BudgetConservationRule(ProjectRule):
    """RL007: release sites dominated by accountant charge + journal."""

    rule_id = "RL007"
    name = "budget-conservation"
    rationale = (
        "An answer released without a matching accountant charge and "
        "journal commit breaks the paper's eps' accounting invariant: "
        "the spend either never happens or cannot be recovered after a "
        "crash.  The eps'=0 replay path charges nothing by construction "
        "but still owes the journal commit."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for decl in project.graph.functions_in_module_prefix(BROKER_MODULES):
            if decl.name.startswith("answer"):
                required: Tuple[str, ...] = (EFFECT_CHARGE, EFFECT_JOURNAL)
            elif decl.name.startswith("replay"):
                required = (EFFECT_JOURNAL,)
            else:
                continue
            node = decl.node
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            walker = _ReleaseWalker(project, decl, required)
            walker.walk(node.body, set())
            yield from walker.findings


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

project_registry.register(InterproceduralDpBoundaryRule)
project_registry.register(BudgetConservationRule)
project_registry.register(LockOrderRule)


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
    files: Mapping[str, FileContext],
    only: Optional[Sequence[str]] = None,
    project: Optional[ProjectContext] = None,
) -> Tuple[List[Finding], int, ProjectContext]:
    """Run every project rule over ``files``.

    Returns ``(findings, suppressed_count, project_context)``; the
    context is returned so callers (the cache layer) can persist its
    memoized summaries.
    """
    if project is None:
        project = ProjectContext(files)
    findings: List[Finding] = []
    suppressed = 0
    for rule in create_project_rules(only):
        for finding in rule.check_project(project):
            if _is_suppressed(finding, files):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings, suppressed, project
