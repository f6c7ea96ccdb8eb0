"""The domain rules of ``repro.lint``.

Each rule encodes one invariant of the trading system that generic
linters cannot see:

* **RL001 dp-boundary** -- nothing derived from an exact or estimated
  count may leave the broker answer paths without passing through a
  ``repro.privacy`` mechanism (Laplace perturbation); the ε′ = 0
  ``replay`` path is post-processing and therefore exempt by
  construction (it re-releases already-noised values).  It runs the
  one taint walk of :mod:`repro.lint.summaries`, without call resolution.
* **RL002 rng-discipline** -- the determinism contract (bit-identical
  scalar/batch/cluster answers) dies the moment any global or
  constant-seeded RNG sneaks in.
* **RL003 lock-discipline** -- ``# guarded-by: _lock`` attributes may
  only be touched under ``with self._lock`` or in ``# holds: _lock``
  methods.
* **RL004 accounting-floats** -- money and ε arithmetic must never be
  compared with ``==``/``!=``; use ``math.isclose`` or integer
  micro-units.
* **RL005 broad-except** -- broad handlers must re-raise, count a
  metric through :class:`~repro.serving.telemetry.MetricsRegistry`, or
  carry a ``# repro-lint: shed`` justification.

Journal-before-release -- once the intra-function RL006 -- is enforced
by the whole-program RL007 (:mod:`repro.lint.flow`), which follows the
brokers into the settlement kernel where the journal append now lives.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.callgraph import call_name, dotted_name
from repro.lint.engine import FileContext, Rule, default_registry
from repro.lint.findings import Finding
from repro.lint.flow import BROKER_MODULES
from repro.lint.summaries import TAINTED, TaintWalker

__all__ = [
    "DpBoundaryRule",
    "RngDisciplineRule",
    "LockDisciplineRule",
    "AccountingFloatsRule",
    "BroadExceptRule",
]


# ======================================================================
# RL001 dp-boundary
# ======================================================================

class DpBoundaryRule(Rule):
    """RL001: count-derived values must be noised before release.

    Runs the shared :class:`~repro.lint.summaries.TaintWalker` with no
    call resolution: every leak whose source is visible inside the
    ``answer*``/``replay*`` function itself is reported here, including
    the single-hop ones RL001i leaves alone.
    """

    rule_id = "RL001"
    name = "dp-boundary"
    rationale = (
        "An exact or sampled count escaping the broker without Laplace "
        "perturbation voids the paper's (eps, eps') guarantee (Def 2.2 / "
        "Theorem 3.5)."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module in BROKER_MODULES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(
                ("answer", "replay")
            ):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx: FileContext, func: ast.FunctionDef) -> Iterator[Finding]:
        walker = TaintWalker(ctx, lambda call: [])
        walker.run(func)
        for event in walker.events:
            if event.value.level != TAINTED or event.settled:
                continue
            if event.kind == "return":
                message = (
                    f"{func.name} returns a count-derived value that never "
                    "passed through a repro.privacy mechanism "
                    "(sample_laplace/sample_laplace_many)"
                )
            else:
                message = (
                    f"{func.name} builds {event.detail} from an unperturbed "
                    "count estimate; route it through sample_laplace/"
                    "sample_laplace_many or the eps'=0 replay path"
                )
            yield ctx.finding(
                self.rule_id,
                getattr(event.node, "lineno", 1),
                getattr(event.node, "col_offset", 0),
                message,
            )


# ======================================================================
# RL002 rng-discipline
# ======================================================================

_RNG_ALLOWED_ATTRS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox",
}


class RngDisciplineRule(Rule):
    """RL002: no global or constant-seeded randomness outside tests."""

    rule_id = "RL002"
    name = "rng-discipline"
    rationale = (
        "Bit-identical scalar/batch/cluster answers (the determinism "
        "contract of PRs 1-3) require every random draw to come from an "
        "explicitly seed-threaded np.random.Generator."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        top = ctx.module.split(".", 1)[0]
        if top in ("tests", "conftest"):
            return False
        return not ctx.module.startswith("repro.testing")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.finding(
                            self.rule_id, node.lineno, node.col_offset,
                            "stdlib `random` is a process-global RNG; use a "
                            "seed-threaded np.random.Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        "stdlib `random` is a process-global RNG; use a "
                        "seed-threaded np.random.Generator instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) >= 2 and parts[-2] == "random" and parts[0] in ("np", "numpy"):
                if parts[-1] == "seed":
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        "np.random.seed mutates the global RNG and breaks "
                        "answer determinism; construct np.random.default_rng(seed)",
                    )
                elif parts[-1] not in _RNG_ALLOWED_ATTRS:
                    yield ctx.finding(
                        self.rule_id, node.lineno, node.col_offset,
                        f"np.random.{parts[-1]} draws from the global RNG; "
                        "draw from a seed-threaded Generator instead",
                    )
        if call_name(node) == "default_rng" and not node.args and not node.keywords:
            yield ctx.finding(
                self.rule_id, node.lineno, node.col_offset,
                "default_rng() with no seed is entropy-seeded and "
                "non-reproducible; thread an explicit seed",
            )
        if call_name(node) == "field":
            yield from self._check_field_default(ctx, node)

    def _check_field_default(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        for kw in node.keywords:
            if kw.arg != "default_factory" or not isinstance(kw.value, ast.Lambda):
                continue
            for inner in ast.walk(kw.value.body):
                if (
                    isinstance(inner, ast.Call)
                    and call_name(inner) == "default_rng"
                    and inner.args
                    and all(isinstance(arg, ast.Constant) for arg in inner.args)
                ):
                    yield ctx.finding(
                        self.rule_id, inner.lineno, inner.col_offset,
                        "constant-seeded default RNG is shared by every "
                        "instance; derive the seed from instance identity or "
                        "require the caller to pass a Generator",
                    )


# ======================================================================
# RL003 lock-discipline
# ======================================================================

class LockDisciplineRule(Rule):
    """RL003: ``# guarded-by:`` attributes only under their lock."""

    rule_id = "RL003"
    name = "lock-discipline"
    rationale = (
        "Serving and cluster state mutated from worker pools corrupts "
        "accounting (budgets, deposits, cache stats) unless every access "
        "holds the declared lock."
    )

    _INIT_METHODS = ("__init__", "__post_init__")

    def applies_to(self, ctx: FileContext) -> bool:
        return "guarded-by:" in ctx.source

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        guarded = self._collect_guarded(ctx, cls)
        if not guarded:
            return
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name not in self._INIT_METHODS:
                held: Set[str] = set()
                holds = ctx.comments.holds(node.lineno)
                if holds is None and node.decorator_list:
                    holds = ctx.comments.holds(node.decorator_list[0].lineno)
                if holds is not None:
                    held.add(holds)
                yield from self._check_body(ctx, node.body, guarded, held, node.name)

    def _collect_guarded(self, ctx: FileContext, cls: ast.ClassDef) -> Dict[str, str]:
        guarded: Dict[str, str] = {}
        for node in cls.body:
            if not (isinstance(node, ast.FunctionDef) and node.name in self._INIT_METHODS):
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                lock = ctx.comments.guarded_by(stmt.lineno)
                if lock is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        guarded[target.attr] = lock
        return guarded

    def _check_body(
        self,
        ctx: FileContext,
        stmts: List[ast.stmt],
        guarded: Dict[str, str],
        held: Set[str],
        method: str,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            yield from self._check_node(ctx, stmt, guarded, held, method)

    def _check_node(
        self,
        ctx: FileContext,
        node: ast.AST,
        guarded: Dict[str, str],
        held: Set[str],
        method: str,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: Set[str] = set()
            for item in node.items:
                yield from self._check_node(ctx, item.context_expr, guarded, held, method)
                lock_name = self._self_attr(item.context_expr)
                if lock_name is not None:
                    acquired.add(lock_name)
            inner = held | acquired
            for stmt in node.body:
                yield from self._check_node(ctx, stmt, guarded, inner, method)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure may run on another thread after the lock is
            # released; it must re-acquire or carry its own annotation.
            nested_held: Set[str] = set()
            holds = ctx.comments.holds(node.lineno)
            if holds is not None:
                nested_held.add(holds)
            for stmt in node.body:
                yield from self._check_node(ctx, stmt, guarded, nested_held, method)
            return
        if isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None and attr in guarded and guarded[attr] not in held:
                yield ctx.finding(
                    self.rule_id,
                    node.lineno,
                    node.col_offset,
                    f"{method} touches self.{attr} (guarded-by: {guarded[attr]}) "
                    f"without holding self.{guarded[attr]}; wrap in `with "
                    f"self.{guarded[attr]}:` or annotate the method "
                    f"`# holds: {guarded[attr]}`",
                )
            yield from self._check_node(ctx, node.value, guarded, held, method)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._check_node(ctx, child, guarded, held, method)

    @staticmethod
    def _self_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None


# ======================================================================
# RL004 accounting-floats
# ======================================================================

_MONEY_TOKENS = {
    "price", "prices", "priced", "budget", "budgets", "epsilon", "eps",
    "cost", "costs", "revenue", "deposit", "deposits", "balance",
    "spend", "spent", "charge", "charged", "payment", "fee", "fees",
}


class AccountingFloatsRule(Rule):
    """RL004: no ``==``/``!=`` on money or ε expressions."""

    rule_id = "RL004"
    name = "accounting-floats"
    rationale = (
        "Budget, price and epsilon values are floating-point sums of "
        "per-query charges; exact equality silently diverges after a few "
        "hundred accumulations.  Use math.isclose or integer micro-units."
    )

    _MODULE_PREFIXES = ("repro.pricing",)
    _MODULES = ("repro.core.policy",)

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module in self._MODULES:
            return True
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in self._MODULE_PREFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_exempt_operand(operand) for operand in operands):
                continue
            term = next(
                (self._money_term(operand) for operand in operands
                 if self._money_term(operand) is not None),
                None,
            )
            if term is not None:
                yield ctx.finding(
                    self.rule_id,
                    node.lineno,
                    node.col_offset,
                    f"exact ==/!= on accounting value `{term}`; use "
                    "math.isclose(..., rel_tol=...) or integer micro-units",
                )

    @staticmethod
    def _is_exempt_operand(node: ast.expr) -> bool:
        # `x == None` / string-tag comparisons are identity/dispatch
        # checks, not numeric accounting.
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, str)
        )

    @staticmethod
    def _money_term(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            symbol = node.id
        elif isinstance(node, ast.Attribute):
            symbol = node.attr
        else:
            return None
        tokens = {token for token in symbol.lower().split("_") if token}
        return symbol if tokens & _MONEY_TOKENS else None


# ======================================================================
# RL005 broad-except
# ======================================================================

_BROAD_NAMES = {"Exception", "BaseException"}
_METRIC_METHODS = {"inc", "observe", "set_gauge"}


class BroadExceptRule(Rule):
    """RL005: broad handlers must re-raise, count a metric, or be shed-annotated."""

    rule_id = "RL005"
    name = "broad-except"
    rationale = (
        "A swallowed Exception in the serving or collection path hides "
        "accounting drift and failed releases; every broad handler must "
        "leave a trace (re-raise or MetricsRegistry count) or be an "
        "annotated load-shedding path."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module.split(".", 1)[0] not in ("tests", "conftest")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if self._is_broad(handler) and not self._is_justified(ctx, handler):
                        yield ctx.finding(
                            self.rule_id,
                            handler.lineno,
                            handler.col_offset,
                            "broad except swallows errors silently; re-raise, "
                            "count a MetricsRegistry metric, or annotate "
                            "`# repro-lint: shed`",
                        )

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        candidates: List[ast.expr] = (
            list(handler.type.elts) if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        return any(
            isinstance(candidate, ast.Name) and candidate.id in _BROAD_NAMES
            for candidate in candidates
        )

    def _is_justified(self, ctx: FileContext, handler: ast.ExceptHandler) -> bool:
        if ctx.comments.is_shed(handler.lineno):
            return True
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
            ):
                return True
        return False


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
default_registry.register(DpBoundaryRule)
default_registry.register(RngDisciplineRule)
default_registry.register(LockDisciplineRule)
default_registry.register(AccountingFloatsRule)
default_registry.register(BroadExceptRule)
