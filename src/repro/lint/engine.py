"""Rule registry and file-walking engine of ``repro.lint``.

The engine parses each Python file once into a :class:`FileContext`
(AST + comment map + module name), hands the context to every
per-file :class:`Rule` whose :meth:`~Rule.applies_to` accepts it, and
filters the resulting findings through per-line
``# repro-lint: disable=`` pragmas.  Then every :class:`ProjectRule`
runs once over all the files given (:mod:`repro.lint.flow`).  Both
kinds share one registry, so a rule id names one rule whichever kind
it is.

Module names are computed from the path relative to the scan root with
a leading ``src`` segment stripped, so ``src/repro/core/broker.py``
and a test fixture tree ``<tmp>/repro/core/broker.py`` both resolve to
``repro.core.broker`` and are seen by the same rules.
"""

from __future__ import annotations

import ast
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.lint.findings import Finding, Hop
from repro.lint.suppressions import CommentMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flow imports us)
    from repro.lint.cache import LintCache
    from repro.lint.flow import ProjectContext

__all__ = [
    "FileContext",
    "Rule",
    "ProjectRule",
    "RuleRegistry",
    "default_registry",
    "LintEngine",
    "LintResult",
]

_SKIP_DIRS = {".git", "__pycache__", ".mypy_cache", ".pytest_cache", "build", "dist"}

# ast.parse is not thread-safe on CPython 3.11: the AST constructor's
# recursion-depth accounting lives in per-interpreter module state, so
# two concurrent parses intermittently die with "SystemError: AST
# constructor recursion depth mismatch".  Reads, tokenization and rule
# checks still run in parallel; only the parse itself is serialized.
_AST_PARSE_LOCK = threading.Lock()


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    rel_path: str
    module: str
    source: str
    tree: ast.Module
    comments: CommentMap
    lines: List[str]

    @classmethod
    def from_source(cls, source: str, rel_path: str, module: str) -> "FileContext":
        with _AST_PARSE_LOCK:
            tree = ast.parse(source, filename=rel_path)
        return cls(
            rel_path=rel_path,
            module=module,
            source=source,
            tree=tree,
            comments=CommentMap.from_source(source),
            lines=source.splitlines(),
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def finding(
        self,
        rule_id: str,
        line: int,
        col: int,
        message: str,
        trace: Tuple[Hop, ...] = (),
    ) -> Finding:
        """Build a :class:`Finding` with the fingerprint line text filled in."""
        return Finding(
            rule_id=rule_id,
            path=self.rel_path,
            line=line,
            col=col,
            message=message,
            line_text=self.line_text(line),
            trace=trace,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`name` and :attr:`rationale`,
    and implement :meth:`check`.  :meth:`applies_to` lets a rule skip
    files outside its scope before any AST walking happens.
    """

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-program rules: one run per project, not per
    file, over the call graph and summaries of a
    :class:`~repro.lint.flow.ProjectContext`.  Suppression is
    trace-aware and handled by :func:`repro.lint.flow.run_project_rules`.
    """

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def check_project(self, project: "ProjectContext") -> Iterable[Finding]:
        raise NotImplementedError


AnyRule = Union[Rule, ProjectRule]


class RuleRegistry:
    """Maps rule ids to rule factories; rules self-register at import."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[[], AnyRule]] = {}

    def register(self, factory: Callable[[], AnyRule]) -> Callable[[], AnyRule]:
        probe = factory()
        if not probe.rule_id:
            raise ValueError(f"rule {factory!r} has no rule_id")
        if probe.rule_id in self._factories:
            raise ValueError(f"duplicate rule id {probe.rule_id}")
        self._factories[probe.rule_id] = factory
        return factory

    def rule_ids(self) -> List[str]:
        return sorted(self._factories)

    def create(self, only: Optional[Sequence[str]] = None) -> List[AnyRule]:
        wanted = self.rule_ids() if only is None else list(only)
        unknown = [rule_id for rule_id in wanted if rule_id not in self._factories]
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        return [self._factories[rule_id]() for rule_id in wanted]


#: The process-wide registry that :mod:`repro.lint.rules` and
#: :mod:`repro.lint.flow` populate.
default_registry = RuleRegistry()


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def module_name(rel_path: Path) -> str:
    """Dotted module name for ``rel_path`` (posix, relative to the root)."""
    parts = list(rel_path.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class LintEngine:
    """Runs a set of rules over source blobs or whole source trees.

    Every entry point takes one path: the per-file rules over each
    parsed file, then the project rules over all the files given.  A
    single blob (:meth:`lint_source`) is a one-file project.
    """

    def __init__(self, rules: Optional[Sequence[AnyRule]] = None) -> None:
        self.rules: List[AnyRule] = list(
            default_registry.create() if rules is None else rules
        )
        self.file_rules = [rule for rule in self.rules if isinstance(rule, Rule)]
        self.project_rules = [
            rule for rule in self.rules if isinstance(rule, ProjectRule)
        ]

    def lint_source(self, source: str, rel_path: str) -> LintResult:
        """Lint one in-memory source blob addressed as ``rel_path``."""
        return self._lint([self._entry(rel_path, source, None)], None)

    def lint_paths(
        self,
        paths: Sequence[Path],
        root: Path,
        *,
        jobs: Optional[int] = None,
        cache: Optional["LintCache"] = None,
    ) -> LintResult:
        """Lint every ``.py`` file under each of ``paths`` (files or dirs).

        Files are read and parsed in parallel (``jobs`` threads); the
        optional content-hash ``cache`` short-circuits both the per-file
        parse+rule work and, when no file changed at all, the whole
        project pass.
        """
        file_list: List[Path] = []
        for path in paths:
            file_list.extend(sorted(_iter_python_files(path)))
        entries = self._process_files(file_list, root, jobs=jobs, cache=cache)
        return self._lint(entries, cache)

    def _lint(
        self, entries: Sequence["_FileEntry"], cache: Optional["LintCache"]
    ) -> LintResult:
        result = LintResult()
        files: Dict[str, FileContext] = {}
        file_keys: Dict[str, str] = {}
        for entry in entries:
            if entry.error is not None:
                result.parse_errors.append(entry.error)
                continue
            assert entry.ctx is not None
            result.files_scanned += 1
            result.findings.extend(entry.findings)
            result.suppressed += entry.suppressed
            files[entry.ctx.rel_path] = entry.ctx
            if entry.key is not None:
                file_keys[entry.ctx.rel_path] = entry.key

        if self.project_rules and files:
            self._run_project_pass(result, files, file_keys, cache)

        result.findings.sort(key=lambda f: f.sort_key)
        return result

    def _process_files(
        self,
        file_list: Sequence[Path],
        root: Path,
        *,
        jobs: Optional[int],
        cache: Optional["LintCache"],
    ) -> List["_FileEntry"]:
        worker_count = jobs if jobs is not None else min(8, len(file_list) or 1)
        if worker_count <= 1 or len(file_list) <= 1:
            return [self._process_one(path, root, cache) for path in file_list]
        with ThreadPoolExecutor(max_workers=worker_count) as pool:
            return list(
                pool.map(lambda path: self._process_one(path, root, cache), file_list)
            )

    def _process_one(
        self, path: Path, root: Path, cache: Optional["LintCache"]
    ) -> "_FileEntry":
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            return _FileEntry(error=f"{rel}: {exc}")
        return self._entry(rel, source, cache)

    def _entry(
        self, rel: str, source: str, cache: Optional["LintCache"]
    ) -> "_FileEntry":
        """Parse one file and run the per-file rules over it."""
        key: Optional[str] = None
        if cache is not None:
            key = cache.file_key(rel, source)
            hit = cache.load_file(key)
            if hit is not None:
                return _FileEntry(
                    ctx=hit.ctx,
                    findings=hit.findings,
                    suppressed=hit.suppressed,
                    key=key,
                )
        try:
            ctx = FileContext.from_source(source, rel, module_name(Path(rel)))
        except SyntaxError as exc:
            return _FileEntry(error=f"{rel}: {exc.msg} (line {exc.lineno})")
        findings: List[Finding] = []
        suppressed = 0
        for rule in self.file_rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if finding.rule_id in ctx.comments.disabled_rules(finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
        if cache is not None and key is not None:
            cache.store_file(key, ctx, findings, suppressed)
        return _FileEntry(ctx=ctx, findings=findings, suppressed=suppressed, key=key)

    def _run_project_pass(
        self,
        result: LintResult,
        files: Dict[str, FileContext],
        file_keys: Dict[str, str],
        cache: Optional["LintCache"],
    ) -> None:
        from repro.lint.flow import run_project_rules

        tree_key: Optional[str] = None
        if cache is not None and len(file_keys) == len(files):
            tree_key = cache.tree_key(file_keys)
            payload = cache.load_tree(tree_key)
            if payload is not None:
                result.findings.extend(payload["findings"])
                result.suppressed += int(payload["suppressed"])
                return
        findings, suppressed = run_project_rules(files, self.project_rules)
        result.findings.extend(findings)
        result.suppressed += suppressed
        if cache is not None and tree_key is not None:
            cache.store_tree(tree_key, findings, suppressed)


@dataclass
class _FileEntry:
    """Per-file outcome of the (possibly parallel) parse+per-file-rule pass."""

    ctx: Optional[FileContext] = None
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    key: Optional[str] = None
    error: Optional[str] = None


def _iter_python_files(path: Path) -> Iterable[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in path.rglob("*.py"):
        if any(part in _SKIP_DIRS or part.startswith(".") for part in candidate.parts):
            continue
        yield candidate
