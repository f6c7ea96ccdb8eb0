"""Domain-aware static analysis for the ``repro`` codebase.

Generic linters cannot see the invariants that make this system
correct: the DP boundary (every released count must be Laplace-
perturbed), the determinism contract (seed-threaded RNGs everywhere),
lock discipline in the threaded serving/cluster paths, exact float
comparison on accounting values, and silently swallowed exceptions.
``repro.lint`` encodes them as rules with per-line suppressions, a
checked-in baseline, and a CI-friendly CLI (``repro lint``).  Every run
applies the per-file AST rules of :mod:`repro.lint.rules` (RL002-RL005)
to each file, then the whole-program rules of :mod:`repro.lint.flow`
(RL001, RL009) to all of them, over a project call graph with
per-function summaries.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    FileContext,
    LintEngine,
    LintResult,
    ProjectRule,
    Rule,
    RuleRegistry,
    default_registry,
)
from repro.lint.findings import Finding, Hop
from repro.lint.suppressions import CommentMap

# Importing the rules and flow modules registers RL002-RL005 and
# RL001/RL009 on default_registry.
from repro.lint import rules as _rules  # noqa: F401
from repro.lint.flow import ProjectContext, run_project_rules

__all__ = [
    "Baseline",
    "CommentMap",
    "FileContext",
    "Finding",
    "Hop",
    "LintEngine",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "RuleRegistry",
    "default_registry",
    "run_project_rules",
]
