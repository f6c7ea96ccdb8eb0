"""Project call graph for the interprocedural lint layer (``repro.lint.flow``).

Builds module-level symbol tables (functions, classes, imports) from the
parsed :class:`~repro.lint.engine.FileContext` set and resolves call
expressions to project functions:

* plain names resolve through the enclosing module's functions, classes
  (to ``__init__``), and ``from``-imports;
* ``self.method(...)`` resolves through the enclosing class and its
  project-local bases (class-attribute lookup);
* ``self.attr.method(...)`` resolves through the attribute's declared
  type -- dataclass field annotations and ``self.attr = ClassName(...)``
  assignments in ``__init__``/``__post_init__`` -- and, failing that,
  through a small **alias table** for the duck-typed broker surface
  (``accountant`` is a :class:`BudgetAccountant`, ``journal`` a
  :class:`TradeJournal`, ... regardless of which broker holds it);
* ``module.func(...)`` resolves through import aliases.

Resolution is deliberately conservative: a call that cannot be resolved
returns no candidates and downstream analyses fall back to the same
name-based heuristics the intra-function rules use.  Multiple candidates
(e.g. ``base_station`` may be a :class:`BaseStation` or a
:class:`StreamingStation`) are all returned and joined by the caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.lint.engine import FileContext

__all__ = [
    "ALIAS_TABLE",
    "CallGraph",
    "ClassDecl",
    "FunctionDecl",
    "ModuleTable",
    "dotted_name",
    "call_name",
]

#: Duck-typed attribute names of the broker surface mapped to the class
#: simple-names they may hold at runtime.  Keys are matched after
#: stripping leading underscores (``_pool`` resolves like ``pool``).
ALIAS_TABLE: Mapping[str, Tuple[str, ...]] = {
    "accountant": ("BudgetAccountant",),
    "epoch_accountant": ("EpochBudgetAccountant",),
    "ledger": ("BillingLedger",),
    "journal": ("TradeJournal",),
    "window_log": ("WindowLog",),
    "policy": ("BrokerPolicy",),
    "estimator": ("RankCountingEstimator",),
    "pricing": ("PricingFunction",),
    "base_station": ("BaseStation", "StreamingStation"),
    "station": ("StreamingStation",),
    "broker": ("DataBroker", "ClusterBroker", "StreamingBroker"),
    "gateway": ("ServingGateway",),
    "cache": ("AnswerCache",),
    "admission": ("AdmissionController",),
    "telemetry": ("MetricsRegistry",),
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str:
    """Last segment of the callee (``estimate`` for ``self.x.estimate``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


@dataclass
class FunctionDecl:
    """One project function or method."""

    fid: str  #: ``module:Qual.name``
    module: str
    rel_path: str
    name: str
    qualname: str
    cls: Optional[str]
    node: ast.AST  #: the FunctionDef/AsyncFunctionDef
    params: List[str]
    line: int

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassDecl:
    """One project class: methods, bases, and typed attributes."""

    module: str
    name: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> fid
    #: attribute name -> class simple-name, from dataclass annotations
    #: and ``self.attr = ClassName(...)`` constructor assignments.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleTable:
    """Symbols one module defines or imports."""

    module: str
    rel_path: str
    functions: Dict[str, str] = field(default_factory=dict)  #: name -> fid
    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    #: import alias -> ``"pkg.mod"`` (module) or ``"pkg.mod:symbol"``.
    imports: Dict[str, str] = field(default_factory=dict)


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """Class simple-name named by an annotation, unwrapping Optional/str.

    ``BudgetAccountant`` -> ``BudgetAccountant``;
    ``"Optional[MetricsRegistry]"`` -> ``MetricsRegistry``;
    ``Dict[str, int]`` -> ``None`` (containers are not receiver types).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            inner = node.slice
            return _annotation_class(inner)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # ``X | None`` -- pick the non-None side.
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                return _annotation_class(side)
        return None
    name = dotted_name(node)
    if name is None:
        return None
    simple = name.rsplit(".", 1)[-1]
    return simple if simple[:1].isupper() else None


class CallGraph:
    """Module-qualified resolution of calls across the project."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleTable] = {}
        self.functions: Dict[str, FunctionDecl] = {}
        #: class simple-name -> every project class with that name.
        self.class_index: Dict[str, List[ClassDecl]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Mapping[str, FileContext]) -> "CallGraph":
        graph = cls()
        for ctx in files.values():
            graph._index_file(ctx)
        return graph

    def _index_file(self, ctx: FileContext) -> None:
        table = ModuleTable(module=ctx.module, rel_path=ctx.rel_path)
        self.modules[ctx.module] = table
        for node in ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.asname and alias.name or alias.name.split(".", 1)[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c->a.b
                    table.imports[bound] = alias.name if alias.asname else target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: out of scope
                for alias in node.names:
                    bound = alias.asname or alias.name
                    table.imports[bound] = f"{node.module}:{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, table, node, cls_decl=None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(ctx, table, node)

    def _index_class(
        self, ctx: FileContext, table: ModuleTable, node: ast.ClassDef
    ) -> None:
        decl = ClassDecl(module=ctx.module, name=node.name)
        for base in node.bases:
            base_name = dotted_name(base)
            if base_name is not None:
                decl.bases.append(base_name.rsplit(".", 1)[-1])
        table.classes[node.name] = decl
        self.class_index.setdefault(node.name, []).append(decl)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, table, item, cls_decl=decl)
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                typed = _annotation_class(item.annotation)
                if typed is not None:
                    decl.attr_types[item.target.id] = typed
        # ``self.attr = ClassName(...)`` in __init__/__post_init__.
        for item in node.body:
            if not (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in ("__init__", "__post_init__")
            ):
                continue
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                ctor = dotted_name(stmt.value.func)
                if ctor is None:
                    continue
                simple = ctor.rsplit(".", 1)[-1]
                if not simple[:1].isupper():
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        decl.attr_types.setdefault(target.attr, simple)

    def _add_function(
        self,
        ctx: FileContext,
        table: ModuleTable,
        node: ast.AST,
        cls_decl: Optional[ClassDecl],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        qual = node.name if cls_decl is None else f"{cls_decl.name}.{node.name}"
        fid = f"{ctx.module}:{qual}"
        params = [arg.arg for arg in node.args.args]
        if cls_decl is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        decl = FunctionDecl(
            fid=fid,
            module=ctx.module,
            rel_path=ctx.rel_path,
            name=node.name,
            qualname=qual,
            cls=None if cls_decl is None else cls_decl.name,
            node=node,
            params=params,
            line=node.lineno,
        )
        self.functions[fid] = decl
        if cls_decl is None:
            table.functions[node.name] = fid
        else:
            cls_decl.methods[node.name] = fid

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, node: ast.Call, caller: FunctionDecl
    ) -> List[FunctionDecl]:
        """Project-function candidates for ``node`` called from ``caller``."""
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, caller.module)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, caller)
        return []

    def _resolve_name(self, name: str, module: str) -> List[FunctionDecl]:
        table = self.modules.get(module)
        if table is None:
            return []
        fid = table.functions.get(name)
        if fid is not None:
            return [self.functions[fid]]
        if name in table.classes:
            return self._constructor(table.classes[name])
        target = table.imports.get(name)
        if target is not None and ":" in target:
            target_module, symbol = target.split(":", 1)
            remote = self.modules.get(target_module)
            if remote is not None:
                if symbol in remote.functions:
                    return [self.functions[remote.functions[symbol]]]
                if symbol in remote.classes:
                    return self._constructor(remote.classes[symbol])
        return []

    def _constructor(self, decl: ClassDecl) -> List[FunctionDecl]:
        for init in ("__init__", "__post_init__"):
            fid = decl.methods.get(init)
            if fid is not None:
                return [self.functions[fid]]
        return []

    def _resolve_attribute(
        self, func: ast.Attribute, caller: FunctionDecl
    ) -> List[FunctionDecl]:
        chain: List[str] = []
        node: ast.AST = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return []
        chain.append(node.id)
        chain.reverse()
        base, rest = chain[0], chain[1:]
        table = self.modules.get(caller.module)

        if base in ("self", "cls") and caller.cls is not None:
            if len(rest) == 1:
                return self._method_in_class_tree(
                    caller.module, caller.cls, rest[0]
                )
            if len(rest) == 2:
                attr, meth = rest
                return self._method_on_attr(caller.module, caller.cls, attr, meth)
            return []

        # ``ClassName.method(...)`` on a local or imported class.
        if len(rest) == 1 and table is not None:
            local_cls = table.classes.get(base)
            if local_cls is not None:
                return self._method_in_class_tree(caller.module, base, rest[0])
            target = table.imports.get(base)
            if target is not None and ":" in target:
                target_module, symbol = target.split(":", 1)
                remote = self.modules.get(target_module)
                if remote is not None and symbol in remote.classes:
                    return self._method_in_class_tree(
                        target_module, symbol, rest[0]
                    )

        # ``module.func(...)`` / ``module.Class.method(...)``.
        if table is not None:
            target = table.imports.get(base)
            if target is not None and ":" not in target:
                remote = self.modules.get(target)
                if remote is not None:
                    if len(rest) == 1 and rest[0] in remote.functions:
                        return [self.functions[remote.functions[rest[0]]]]
                    if len(rest) == 2 and rest[0] in remote.classes:
                        return self._method_in_class_tree(
                            target, rest[0], rest[1]
                        )

        # Duck-typed alias table: ``broker.answer(...)``,
        # ``self.accountant.charge(...)`` handled above via attr types;
        # here a bare local name aliases a known surface.
        if len(rest) == 1:
            return self._method_via_alias(caller.module, base, rest[0])
        return []

    def _method_on_attr(
        self, module: str, cls_name: str, attr: str, meth: str
    ) -> List[FunctionDecl]:
        decl = self._class_in_module(module, cls_name)
        typed: Optional[str] = None
        if decl is not None:
            typed = decl.attr_types.get(attr)
        if typed is not None:
            found = self._method_on_class_name(module, typed, meth)
            if found:
                return found
        return self._method_via_alias(module, attr, meth)

    def _method_via_alias(
        self, module: str, name: str, meth: str
    ) -> List[FunctionDecl]:
        key = name.lstrip("_")
        candidates = ALIAS_TABLE.get(key)
        if candidates is None:
            return []
        out: List[FunctionDecl] = []
        for cls_name in candidates:
            out.extend(self._method_on_class_name(module, cls_name, meth))
        return out

    def _method_on_class_name(
        self, module: str, cls_name: str, meth: str
    ) -> List[FunctionDecl]:
        """Method ``meth`` on the class ``cls_name`` -- local/imported first,
        then any project class with that simple name."""
        local = self._class_in_module(module, cls_name)
        scopes: List[ClassDecl] = [local] if local is not None else []
        if not scopes:
            scopes = list(self.class_index.get(cls_name, []))
        out: List[FunctionDecl] = []
        for decl in scopes:
            out.extend(self._method_in_class_tree(decl.module, decl.name, meth))
        return out

    def _class_in_module(self, module: str, cls_name: str) -> Optional[ClassDecl]:
        table = self.modules.get(module)
        if table is None:
            return None
        if cls_name in table.classes:
            return table.classes[cls_name]
        target = table.imports.get(cls_name)
        if target is not None and ":" in target:
            target_module, symbol = target.split(":", 1)
            remote = self.modules.get(target_module)
            if remote is not None:
                return remote.classes.get(symbol)
        return None

    def _method_in_class_tree(
        self, module: str, cls_name: str, meth: str, _depth: int = 0
    ) -> List[FunctionDecl]:
        """Lookup ``meth`` on ``cls_name`` walking project-local bases."""
        if _depth > 8:
            return []
        decl = self._class_in_module(module, cls_name)
        if decl is None:
            for candidate in self.class_index.get(cls_name, []):
                if candidate.module != module:
                    decl = candidate
                    break
        if decl is None:
            return []
        fid = decl.methods.get(meth)
        if fid is not None:
            return [self.functions[fid]]
        for base in decl.bases:
            found = self._method_in_class_tree(
                decl.module, base, meth, _depth=_depth + 1
            )
            if found:
                return found
        return []

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    def functions_in_module_prefix(
        self, prefixes: Sequence[str]
    ) -> List[FunctionDecl]:
        out = [
            decl
            for decl in self.functions.values()
            if any(
                decl.module == p or decl.module.startswith(p + ".")
                for p in prefixes
            )
        ]
        return sorted(out, key=lambda d: (d.rel_path, d.line))
