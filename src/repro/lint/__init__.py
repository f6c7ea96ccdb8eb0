"""Domain-aware static analysis for the ``repro`` codebase.

Generic linters cannot see the invariants that make this system
correct: the DP boundary (every released count must be Laplace-
perturbed), the determinism contract (seed-threaded RNGs everywhere),
lock discipline in the threaded serving/cluster paths, exact float
comparison on accounting values, and silently swallowed exceptions.
``repro.lint`` encodes them as AST rules (RL001-RL005, see
:mod:`repro.lint.rules`) with per-line suppressions, a checked-in
baseline, and a CI-friendly CLI (``repro lint``).  The interprocedural
layer (:mod:`repro.lint.flow`, ``--interprocedural``) adds the
whole-program rules RL001i, RL007 and RL009 over a project call graph
with per-function summaries.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    FileContext,
    LintEngine,
    LintResult,
    Rule,
    RuleRegistry,
    default_registry,
)
from repro.lint.findings import Finding, Hop
from repro.lint.suppressions import CommentMap

# Importing the rules module registers RL001-RL005 on default_registry;
# importing flow registers RL001i/RL007/RL009 on project_registry.
from repro.lint import rules as _rules  # noqa: F401
from repro.lint.flow import (
    ProjectContext,
    ProjectRule,
    project_registry,
    run_project_rules,
)

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
    "project_registry",
    "run_project_rules",
]
