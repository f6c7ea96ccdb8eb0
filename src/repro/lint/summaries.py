"""Per-function summaries for the interprocedural lint layer.

Three summary families are computed per project function, each by one
structural walk of the function body, with callee knowledge supplied by
the demand-driven propagator in :mod:`repro.lint.flow`:

* **Taint** (:class:`TaintSummary`) -- does the return value derive from
  a taint source (``estimate*`` / ``true_count``), does it pass through
  a sanitizer (``sample_laplace*``), and which *parameters* flow to the
  return unsanitized?  The parameter dependency set is what makes the
  analysis interprocedural: a helper that merely returns its argument
  propagates the caller's taint, and a helper that noises its argument
  cleanses it.
* **Effects** (:class:`EffectSummary`) -- which accounting effects the
  function performs transitively (``charge``: the budget accountant is
  debited; ``journal``: the write-ahead trade journal is appended to),
  split into **must** (on every path) and **may** (on some path), with
  call-chain trace hops to the first site.
* **Locks** (:class:`LockSummary`) -- which locks the function acquires
  transitively (``with self._lock`` plus ``# holds:`` annotations), and
  the *ordering edges* observed inside it: lock B acquired -- directly
  or through a callee -- while lock A is held.

This module is the one home of the DP taint analysis: the lattice
``CLEAN`` < ``NOISED`` < ``TAINTED`` (in expression combination NOISED
dominates -- ``estimate + noise`` is perturbed -- at branch merges
TAINTED dominates -- raw on any path is a leak), the vocabulary of
sources, sanitizers, propagators and sinks, and :class:`TaintWalker`.
Both DP-boundary rules run that walker: RL001
(:mod:`repro.lint.rules`) with no call resolution, RL001i
(:mod:`repro.lint.flow`) with callee summaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import FunctionDecl, call_name, dotted_name
from repro.lint.engine import FileContext
from repro.lint.findings import Hop

__all__ = [
    "CLEAN",
    "NOISED",
    "TAINTED",
    "Abstract",
    "TaintSummary",
    "TaintWalker",
    "SinkEvent",
    "EffectSummary",
    "EMPTY_EFFECTS",
    "compute_effect_summary",
    "intrinsic_effects",
    "iter_calls",
    "header_exprs",
    "EFFECT_CHARGE",
    "EFFECT_JOURNAL",
    "LockSummary",
    "LockEdge",
    "EMPTY_LOCKS",
    "compute_lock_summary",
    "compute_taint_summary",
]

CLEAN, NOISED, TAINTED = 0, 1, 2

_EMPTY_DEPS: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Abstract:
    """Abstract value: taint level, parameter deps, trace to the source."""

    level: int = CLEAN
    deps: FrozenSet[int] = _EMPTY_DEPS
    hops: Tuple[Hop, ...] = ()


_CLEAN_VAL = Abstract()


def _combine_expr(values: Iterable[Abstract]) -> Abstract:
    """Join inside one expression: noise cleanses taint."""
    level = CLEAN
    deps: Set[int] = set()
    hops: Tuple[Hop, ...] = ()
    for val in values:
        if val.level == NOISED:
            return Abstract(NOISED)
        if val.level == TAINTED and level != TAINTED:
            level = TAINTED
            hops = val.hops
        deps.update(val.deps)
    return Abstract(level, frozenset(deps), hops)


def _merge_branch(a: Abstract, b: Abstract) -> Abstract:
    """Join across control-flow branches: taint on any path survives."""
    if a.level >= b.level:
        level, hops = a.level, a.hops or b.hops
    else:
        level, hops = b.level, b.hops or a.hops
    return Abstract(level, a.deps | b.deps, hops)


#: The DP taint channel.  Calls that return raw counts:
TAINT_SOURCES = frozenset({"estimate", "estimate_many", "true_count", "exact_count"})
#: Attributes that hold raw counts:
TAINT_SOURCE_ATTRS = frozenset({"sample_estimate"})
#: The ``repro.privacy`` noise draws that cleanse taint:
SANITIZERS = frozenset(
    {"sample_laplace", "sample_laplace_many", "sample_noise", "sample_geometric"}
)
#: Calls whose result carries their arguments' taint:
PROPAGATORS = frozenset(
    {
        "float", "int", "abs", "min", "max", "sum", "round", "tuple", "list",
        "asarray", "array", "clip", "where", "maximum", "minimum",
        "copy", "astype", "reshape", "zeros_like",
    }
)
#: ``*Answer(value=..., raw_value=...)`` construction is a sink.
ANSWER_FIELDS = ("value", "raw_value")
#: Calls whose ``ANSWER_FIELDS`` *keywords* are sinks too: the settlement
#: kernel assembles released answers from them, so the answers it returns
#: carry the taint of the ``value`` column they release.
RELEASE_SINKS = frozenset({"release_batch"})


@dataclass(frozen=True)
class TaintSummary:
    """How taint moves through one function, seen from a call site."""

    level: int = CLEAN
    deps: FrozenSet[int] = _EMPTY_DEPS
    #: For ``level == TAINTED``: hops from the function's return down to
    #: its internal taint source.
    trace: Tuple[Hop, ...] = ()
    #: For dep-carrying returns: hops inside the callee the caller's
    #: argument taint flows through (typically the return statement).
    through: Tuple[Hop, ...] = ()


EMPTY_TAINT = TaintSummary()


@dataclass(frozen=True)
class SinkEvent:
    """One potential sink the walker saw (rules decide what fires)."""

    kind: str  #: ``return`` / ``answer``
    node: ast.AST
    value: Abstract
    detail: str = ""
    #: A ``return`` of the kernel's answers (``return release_batch(...)``):
    #: its columns are sinks of their own, so rules report those instead.
    settled: bool = False


#: Resolves a call to ``[(callee decl, its taint summary), ...]``.
SummarizeCall = Callable[[ast.Call], List[Tuple[FunctionDecl, TaintSummary]]]


class TaintWalker:
    """Generic forward taint walk over one function body.

    The one DP taint walk.  ``summarize_call`` resolves project calls to
    their :class:`TaintSummary`: RL001 passes ``lambda call: []`` (every
    call it does not know by name is clean), RL001i and the summary
    computation pass the project's resolver.  Attribute stores
    (``self.x = raw`` then ``self.x`` later) are tracked via dotted
    environment keys.
    """

    def __init__(
        self,
        ctx: FileContext,
        summarize_call: SummarizeCall,
        param_env: Optional[Dict[str, Abstract]] = None,
    ) -> None:
        self.ctx = ctx
        self.summarize_call = summarize_call
        self.env: Dict[str, Abstract] = dict(param_env or {})
        self.events: List[SinkEvent] = []

    # -- plumbing ------------------------------------------------------
    def _hop(self, node: ast.AST, note: str) -> Hop:
        line = getattr(node, "lineno", 1)
        return Hop(
            path=self.ctx.rel_path,
            line=line,
            note=note,
            line_text=self.ctx.line_text(line).strip(),
        )

    # -- statement walk -------------------------------------------------
    def run(self, func: ast.AST) -> None:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._walk_block(func.body)

    def _walk_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._check_sinks(stmt)
            if isinstance(stmt, ast.Assign):
                value_state = self.classify(stmt.value)
                for target in stmt.targets:
                    self._bind(target, value_state)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind(stmt.target, self.classify(stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                merged = _combine_expr(
                    (self.classify(stmt.target), self.classify(stmt.value))
                )
                self._bind(stmt.target, merged)
            elif isinstance(stmt, ast.If):
                saved = dict(self.env)
                self._walk_block(stmt.body)
                body_env = self.env
                self.env = dict(saved)
                self._walk_block(stmt.orelse)
                else_env = self.env
                self.env = saved
                for var in set(body_env) | set(else_env):
                    self.env[var] = _merge_branch(
                        body_env.get(var, _CLEAN_VAL),
                        else_env.get(var, _CLEAN_VAL),
                    )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind(stmt.target, self.classify(stmt.iter))
                self._walk_block(stmt.body)
                self._walk_block(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._walk_block(stmt.body)
                self._walk_block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self.classify(item.context_expr)
                self._walk_block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body)
                for handler in stmt.handlers:
                    self._walk_block(handler.body)
                self._walk_block(stmt.orelse)
                self._walk_block(stmt.finalbody)
            elif isinstance(stmt, (ast.Expr, ast.Return, ast.Raise)):
                value = getattr(stmt, "value", None) or getattr(stmt, "exc", None)
                if value is not None:
                    self.classify(value)
            # Nested function/class definitions are deliberately skipped:
            # closures are RL003's concern, not a release path.

    def _check_sinks(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            settled = (
                isinstance(stmt.value, ast.Call)
                and call_name(stmt.value) in RELEASE_SINKS
            )
            self.events.append(SinkEvent(
                "return", stmt, self.classify(stmt.value), settled=settled
            ))
        if isinstance(
            stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return)
        ):
            value = getattr(stmt, "value", None)
            if value is not None:
                self._check_answer_calls(value)

    def _check_answer_calls(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            is_answer = callee.endswith("Answer")
            if not is_answer and callee not in RELEASE_SINKS:
                continue
            fields = ANSWER_FIELDS
            positional = node.args[: len(fields)] if is_answer else []
            for pos, arg in enumerate(positional):
                val = self.classify(arg)
                if val.level == TAINTED:
                    self.events.append(
                        SinkEvent("answer", arg, val, detail=f"{callee}({fields[pos]}=...)")
                    )
            for kw in node.keywords:
                if kw.arg in fields:
                    val = self.classify(kw.value)
                    if val.level == TAINTED:
                        self.events.append(
                            SinkEvent("answer", kw.value, val, detail=f"{callee}({kw.arg}=...)")
                        )

    # -- expression classification --------------------------------------
    def _bind(self, target: ast.expr, value: Abstract) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                self.env[dotted] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, value)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value)
        elif isinstance(target, ast.Subscript):
            # An element store joins into its container (a weak update).
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                self.env[base.id] = _merge_branch(
                    self.env.get(base.id, _CLEAN_VAL), value
                )

    def classify(self, node: ast.expr) -> Abstract:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _CLEAN_VAL)
        if isinstance(node, ast.Constant):
            return _CLEAN_VAL
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None and dotted in self.env:
                stored = self.env[dotted]
                if stored.level == TAINTED:
                    # Add a hop for the attribute store so the trace
                    # (and RL001i's two-hop filter) see the indirection.
                    return Abstract(
                        TAINTED,
                        deps=stored.deps,
                        hops=(
                            self._hop(node, f"reads `{dotted}` stored earlier"),
                        )
                        + stored.hops,
                    )
                return stored
            if node.attr in TAINT_SOURCE_ATTRS:
                return Abstract(
                    TAINTED,
                    hops=(self._hop(node, f"reads raw `.{node.attr}`"),),
                )
            return self.classify(node.value)
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        if isinstance(node, ast.BinOp):
            return _combine_expr(
                (self.classify(node.left), self.classify(node.right))
            )
        if isinstance(node, ast.UnaryOp):
            return self.classify(node.operand)
        if isinstance(node, ast.BoolOp):
            return _combine_expr(self.classify(value) for value in node.values)
        if isinstance(node, ast.IfExp):
            self.classify(node.test)
            return _merge_branch(
                self.classify(node.body), self.classify(node.orelse)
            )
        if isinstance(node, (ast.Subscript, ast.Starred)):
            return self.classify(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _CLEAN_VAL
            for element in node.elts:
                out = _merge_branch(out, self.classify(element))
            return out
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            saved = dict(self.env)
            for comp in node.generators:
                self._bind(comp.target, self.classify(comp.iter))
            result = self.classify(node.elt)
            self.env = saved
            return result
        if isinstance(node, ast.NamedExpr):
            value = self.classify(node.value)
            self._bind(node.target, value)
            return value
        return _CLEAN_VAL

    def _classify_call(self, node: ast.Call) -> Abstract:
        callee = call_name(node)
        if callee in SANITIZERS:
            for arg in node.args:
                self.classify(arg)
            return Abstract(NOISED)
        if callee in TAINT_SOURCES:
            return Abstract(
                TAINTED,
                hops=(self._hop(node, f"taint source: `{callee}(...)`"),),
            )
        if callee in RELEASE_SINKS:
            # A helper that settles through the kernel and returns its
            # answers hands its callers whatever ``value`` it released.
            for kw in node.keywords:
                if kw.arg == ANSWER_FIELDS[0]:
                    return self.classify(kw.value)
            return _CLEAN_VAL
        resolved = self.summarize_call(node)
        if resolved:
            return self._apply_summaries(node, callee, resolved)
        arg_states = [self.classify(arg) for arg in node.args]
        arg_states.extend(
            self.classify(kw.value) for kw in node.keywords if kw.value is not None
        )
        if callee in PROPAGATORS:
            return _combine_expr(arg_states)
        return _CLEAN_VAL

    def _arg_for_param(
        self, node: ast.Call, decl: FunctionDecl, index: int
    ) -> Optional[ast.expr]:
        if index < len(node.args):
            arg = node.args[index]
            return None if isinstance(arg, ast.Starred) else arg
        if index < len(decl.params):
            wanted = decl.params[index]
            for kw in node.keywords:
                if kw.arg == wanted:
                    return kw.value
        return None

    def _apply_summaries(
        self,
        node: ast.Call,
        callee: str,
        resolved: List[Tuple[FunctionDecl, TaintSummary]],
    ) -> Abstract:
        results: List[Abstract] = []
        for decl, summary in resolved:
            call_hop = self._hop(
                node, f"calls `{decl.qualname}` ({decl.rel_path}:{decl.line})"
            )
            parts: List[Abstract] = []
            if summary.level == NOISED:
                parts.append(Abstract(NOISED))
            elif summary.level == TAINTED:
                parts.append(
                    Abstract(TAINTED, hops=(call_hop,) + summary.trace)
                )
            for dep in summary.deps:
                arg = self._arg_for_param(node, decl, dep)
                if arg is None:
                    continue
                aval = self.classify(arg)
                if aval.level == TAINTED:
                    parts.append(
                        Abstract(
                            TAINTED,
                            deps=aval.deps,
                            hops=(call_hop,) + summary.through + aval.hops,
                        )
                    )
                else:
                    parts.append(Abstract(aval.level, aval.deps))
            results.append(_combine_expr(parts) if parts else _CLEAN_VAL)
        out = results[0]
        for other in results[1:]:
            out = _merge_branch(out, other)
        return out


def compute_taint_summary(
    decl: FunctionDecl,
    ctx: FileContext,
    summarize_call: SummarizeCall,
) -> TaintSummary:
    """Summarise ``decl``'s DP taint (callees via callback)."""
    param_env = {
        name: Abstract(CLEAN, frozenset({i}))
        for i, name in enumerate(decl.params)
    }
    walker = TaintWalker(ctx, summarize_call, param_env)
    walker.run(decl.node)
    level = CLEAN
    deps: Set[int] = set()
    trace: Tuple[Hop, ...] = ()
    through: Tuple[Hop, ...] = ()
    for event in walker.events:
        if event.kind != "return":
            continue
        val = event.value
        if val.level == TAINTED and level != TAINTED:
            level = TAINTED
            trace = (
                walker._hop(event.node, f"`{decl.qualname}` returns it raw"),
            ) + val.hops
        elif val.level == NOISED and level == CLEAN:
            level = NOISED
        if val.deps and not through:
            through = (
                walker._hop(
                    event.node,
                    f"`{decl.qualname}` returns the parameter unsanitized",
                ),
            )
        deps.update(val.deps)
    return TaintSummary(
        level=level,
        deps=frozenset(deps),
        trace=trace,
        through=through,
    )


# ======================================================================
# accounting effects (charge / journal)
# ======================================================================

EFFECT_CHARGE = "charge"
EFFECT_JOURNAL = "journal"


@dataclass(frozen=True)
class EffectSummary:
    """Accounting effects a function performs, transitively."""

    must: FrozenSet[str] = frozenset()
    may: FrozenSet[str] = frozenset()
    sites: Dict[str, Tuple[Hop, ...]] = field(default_factory=dict)

    @property
    def conditional(self) -> FrozenSet[str]:
        """Effects present on some but not all paths."""
        return self.may - self.must


EMPTY_EFFECTS = EffectSummary()

#: Resolves a call to the merged EffectSummary of its project callees
#: (or None when unresolved).
ResolveEffects = Callable[[ast.Call], Optional[EffectSummary]]


def iter_calls(node: ast.AST) -> Iterable[ast.Call]:
    """Calls under ``node`` without entering nested function/lambda bodies."""
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


def header_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The parts of ``stmt`` that execute unconditionally when ``stmt``
    is reached -- its header for compound statements, the whole thing
    for simple ones.  Branch/loop/handler bodies are *not* included;
    structural walkers recurse into those themselves."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def intrinsic_effects(node: ast.Call) -> FrozenSet[str]:
    """Effects a call performs by name, independent of resolution.

    A journal append is a ``_journal*`` helper call, ``append`` /
    ``append_many`` on a journal, or a window log's ``append_charge``;
    a charge is ``charge`` / ``charge_many`` / ``charge_window`` on a
    dotted receiver containing ``accountant``.
    """
    callee = call_name(node)
    effects: Set[str] = set()
    dotted = dotted_name(node.func) or ""
    if callee.startswith("_journal"):
        effects.add(EFFECT_JOURNAL)
    elif callee in ("append", "append_many") and "journal" in dotted.lower():
        effects.add(EFFECT_JOURNAL)
    elif callee == "append_charge" and (
        "log" in dotted.lower() or "journal" in dotted.lower()
    ):
        effects.add(EFFECT_JOURNAL)
    if callee in ("charge", "charge_many", "charge_window") and (
        "accountant" in dotted.lower()
    ):
        effects.add(EFFECT_CHARGE)
    return frozenset(effects)


class _EffectWalker:
    """Must/may effect analysis of one function body."""

    def __init__(
        self,
        ctx: FileContext,
        decl: FunctionDecl,
        resolve: ResolveEffects,
    ) -> None:
        self.ctx = ctx
        self.decl = decl
        self.resolve = resolve
        self.sites: Dict[str, Tuple[Hop, ...]] = {}

    def _hop(self, node: ast.AST, note: str) -> Hop:
        line = getattr(node, "lineno", 1)
        return Hop(
            path=self.ctx.rel_path,
            line=line,
            note=note,
            line_text=self.ctx.line_text(line).strip(),
        )

    def _effects_of_call(self, node: ast.Call) -> Tuple[Set[str], Set[str]]:
        """(must, may) effects of one call, recording first sites."""
        must: Set[str] = set(intrinsic_effects(node))
        may: Set[str] = set(must)
        for effect in must:
            self.sites.setdefault(
                effect,
                (self._hop(node, f"{effect} happens here"),),
            )
        callee_summary = self.resolve(node)
        if callee_summary is not None:
            must |= set(callee_summary.must)
            may |= set(callee_summary.may)
            for effect in callee_summary.may:
                inner = callee_summary.sites.get(effect, ())
                self.sites.setdefault(
                    effect,
                    (self._hop(node, f"calls into `{call_name(node)}`"),) + inner,
                )
        return must, may

    def walk(self, stmts: Sequence[ast.stmt]) -> Tuple[Set[str], Set[str], bool]:
        """Returns (must, may, terminated) for a statement block."""
        must: Set[str] = set()
        may: Set[str] = set()
        for stmt in stmts:
            # Calls in the statement *header* run when the statement
            # runs; calls in branch/loop bodies are handled by the
            # structural recursion below.  (Short-circuit operands are
            # approximated as executed; the accounting paths under
            # check do not hide charges in `and` chains.)
            for part in header_exprs(stmt):
                for node in iter_calls(part):
                    call_must, call_may = self._effects_of_call(node)
                    must |= call_must
                    may |= call_may
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return must, may, True
            if isinstance(stmt, ast.If):
                body_must, body_may, body_term = self.walk(stmt.body)
                else_must, else_may, else_term = self.walk(stmt.orelse)
                may |= body_may | else_may
                if body_term and else_term:
                    must |= body_must & else_must
                    return must, may, True
                if body_term:
                    must |= else_must
                elif else_term:
                    must |= body_must
                else:
                    must |= body_must & else_must
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                _, loop_may, _ = self.walk(stmt.body)
                _, else_may, _ = self.walk(stmt.orelse)
                may |= loop_may | else_may
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_must, inner_may, inner_term = self.walk(stmt.body)
                must |= inner_must
                may |= inner_may
                if inner_term:
                    return must, may, True
            elif isinstance(stmt, ast.Try):
                _, body_may, _ = self.walk(stmt.body)
                may |= body_may
                for handler in stmt.handlers:
                    _, handler_may, _ = self.walk(handler.body)
                    may |= handler_may
                _, else_may, _ = self.walk(stmt.orelse)
                may |= else_may
                final_must, final_may, final_term = self.walk(stmt.finalbody)
                must |= final_must
                may |= final_may
                if final_term:
                    return must, may, True
        return must, may, False


def compute_effect_summary(
    decl: FunctionDecl, ctx: FileContext, resolve: ResolveEffects
) -> EffectSummary:
    walker = _EffectWalker(ctx, decl, resolve)
    node = decl.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    must, may, _ = walker.walk(node.body)
    return EffectSummary(
        must=frozenset(must), may=frozenset(may), sites=dict(walker.sites)
    )


# ======================================================================
# lock acquisition structure
# ======================================================================


@dataclass(frozen=True)
class LockEdge:
    """Lock ``dst`` acquired while ``src`` is held, with trace hops."""

    src: str
    dst: str
    hops: Tuple[Hop, ...]


@dataclass(frozen=True)
class LockSummary:
    """Locks a function acquires, transitively, plus ordering edges."""

    acquires: Dict[str, Tuple[Hop, ...]] = field(default_factory=dict)
    edges: Tuple[LockEdge, ...] = ()


EMPTY_LOCKS = LockSummary()

#: Resolves a call to the merged LockSummary of its project callees.
ResolveLocks = Callable[[ast.Call], Optional[LockSummary]]

_LOCKISH_TOKENS = ("lock", "cond", "cv", "mutex")


def _is_lockish(attr: str) -> bool:
    lowered = attr.lower()
    return any(token in lowered for token in _LOCKISH_TOKENS)


def lock_key_for(
    expr: ast.expr, decl: FunctionDecl
) -> Optional[str]:
    """Canonical class-qualified key for a lock acquisition expression.

    ``with self._lock`` inside ``ClusterBroker`` (module
    ``repro.cluster.broker``) keys as
    ``repro.cluster.broker.ClusterBroker._lock``; two instances of one
    class share a key (the standard class-level abstraction for order
    checking).  Non-lock context managers return ``None``.
    """
    node: ast.expr = expr
    if isinstance(node, ast.Call):
        # ``with lock.acquire_timeout(...)`` style -- key on the receiver.
        if isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return None
    if isinstance(node, ast.Attribute):
        if not _is_lockish(node.attr):
            return None
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                owner = decl.cls or decl.name
                return f"{decl.module}.{owner}.{node.attr}"
            # ``handle.lock`` -- key on the receiver name's alias class
            # when known, else on the bare name (still stable per module).
            from repro.lint.callgraph import ALIAS_TABLE

            aliased = ALIAS_TABLE.get(base.id.lstrip("_"))
            if aliased:
                return f"{decl.module}.{aliased[0]}.{node.attr}"
            return f"{decl.module}.{base.id}.{node.attr}"
        dotted = dotted_name(node)
        if dotted is not None:
            return f"{decl.module}.{dotted}"
        return None
    if isinstance(node, ast.Name) and _is_lockish(node.id):
        return f"{decl.module}.{node.id}"
    return None


class _LockWalker:
    def __init__(
        self,
        ctx: FileContext,
        decl: FunctionDecl,
        resolve: ResolveLocks,
    ) -> None:
        self.ctx = ctx
        self.decl = decl
        self.resolve = resolve
        self.acquires: Dict[str, Tuple[Hop, ...]] = {}
        self.edges: List[LockEdge] = []

    def _hop(self, node: ast.AST, note: str) -> Hop:
        line = getattr(node, "lineno", 1)
        return Hop(
            path=self.ctx.rel_path,
            line=line,
            note=note,
            line_text=self.ctx.line_text(line).strip(),
        )

    def walk(self, stmts: Sequence[ast.stmt], held: FrozenSet[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: Set[str] = set()
                for item in stmt.items:
                    key = lock_key_for(item.context_expr, self.decl)
                    if key is None:
                        continue
                    hop = self._hop(
                        item.context_expr,
                        f"`{self.decl.qualname}` acquires {key}",
                    )
                    self.acquires.setdefault(key, (hop,))
                    for prior in sorted(held):
                        self.edges.append(
                            LockEdge(
                                src=prior,
                                dst=key,
                                hops=(
                                    self._hop(
                                        item.context_expr,
                                        f"acquires {key} while holding {prior}",
                                    ),
                                ),
                            )
                        )
                    acquired.add(key)
                for item in stmt.items:
                    self._scan_calls_in_expr(item.context_expr, held)
                self.walk(stmt.body, held | frozenset(acquired))
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # closures: RL003 territory
            if isinstance(stmt, ast.If):
                self._scan_calls_in_expr(stmt.test, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_calls_in_expr(stmt.iter, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.While):
                self._scan_calls_in_expr(stmt.test, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.Try):
                self.walk(stmt.body, held)
                for handler in stmt.handlers:
                    self.walk(handler.body, held)
                self.walk(stmt.orelse, held)
                self.walk(stmt.finalbody, held)
                continue
            for part in header_exprs(stmt):
                self._scan_calls_in_expr(part, held)

    def _scan_calls_in_expr(self, expr: ast.AST, held: FrozenSet[str]) -> None:
        for node in iter_calls(expr):
            self._apply_callee(node, held)

    def _apply_callee(self, node: ast.Call, held: FrozenSet[str]) -> None:
        summary = self.resolve(node)
        if summary is None:
            return
        callee = call_name(node)
        for key, inner_hops in summary.acquires.items():
            call_hop = self._hop(
                node, f"calls `{callee}(...)` which acquires {key}"
            )
            self.acquires.setdefault(key, (call_hop,) + inner_hops)
            for prior in sorted(held):
                if prior == key:
                    continue  # re-entry through self is RL003's concern
                self.edges.append(
                    LockEdge(
                        src=prior,
                        dst=key,
                        hops=(
                            self._hop(
                                node,
                                f"calls `{callee}(...)` while holding {prior}",
                            ),
                        )
                        + inner_hops,
                    )
                )


def compute_lock_summary(
    decl: FunctionDecl,
    ctx: FileContext,
    resolve: ResolveLocks,
    entry_held: FrozenSet[str] = frozenset(),
) -> LockSummary:
    walker = _LockWalker(ctx, decl, resolve)
    node = decl.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    walker.walk(node.body, entry_held)
    return LockSummary(
        acquires=dict(walker.acquires), edges=tuple(walker.edges)
    )
