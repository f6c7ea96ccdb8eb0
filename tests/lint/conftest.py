"""Shared helpers for the lint-rule fixture tests.

``lint_snippet`` runs the engine over an in-memory source blob addressed
as a virtual repo path (rules scope by module name, so the path controls
which rules see the snippet); the blob is a one-file project, so the
whole-program rules run over it too.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.lint import LintEngine, LintResult, default_registry
from repro.lint.engine import FileContext, module_name

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def lint_snippet():
    def run(
        source: str,
        rel_path: str = "repro/core/broker.py",
        rules: Optional[List[str]] = None,
    ) -> LintResult:
        engine = LintEngine(rules=default_registry.create(only=rules))
        return engine.lint_source(textwrap.dedent(source), rel_path)

    return run


def rule_ids(result: LintResult) -> List[str]:
    return [finding.rule_id for finding in result.findings]


# ----------------------------------------------------------------------
# whole-program helpers
# ----------------------------------------------------------------------
def synth_contexts(files: Dict[str, str]) -> Dict[str, FileContext]:
    """Parse a synthetic multi-file tree given as ``{rel_path: source}``."""
    return {
        rel: FileContext.from_source(
            textwrap.dedent(src), rel, module_name(Path(rel))
        )
        for rel, src in files.items()
    }


@pytest.fixture(scope="session")
def head_sources() -> Dict[str, str]:
    """``{rel_path: source}`` for every file under ``src/`` at HEAD."""
    return {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
    }


@pytest.fixture(scope="session")
def head_contexts(head_sources) -> Dict[str, FileContext]:
    return {
        rel: FileContext.from_source(src, rel, module_name(Path(rel)))
        for rel, src in head_sources.items()
    }


@pytest.fixture
def mutated_project(head_sources, head_contexts):
    """Run the project rules ``only`` over HEAD with per-file string
    mutations; returns ``(findings, suppressed)``.

    ``mutations`` maps rel paths to ``(old, new)`` replacement pairs; each
    anchor must exist exactly (so fixtures fail loudly when the real
    source drifts).  Only mutated files are re-parsed.
    """

    def run(mutations: Dict[str, Sequence[Tuple[str, str]]], only: List[str]):
        from repro.lint.flow import run_project_rules

        files = dict(head_contexts)
        for rel, replacements in mutations.items():
            source = head_sources[rel]
            for old, new in replacements:
                assert old in source, f"mutation anchor not found in {rel}: {old!r}"
                source = source.replace(old, new, 1)
            files[rel] = FileContext.from_source(source, rel, module_name(Path(rel)))
        return run_project_rules(files, default_registry.create(only=only))

    return run
