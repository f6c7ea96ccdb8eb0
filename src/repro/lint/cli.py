"""Command-line front end for ``repro lint``.

Also runnable standalone as ``python -m repro.lint``.  Exit codes are
CI-oriented: 0 clean, 1 findings (or, with ``--fail-on-new``, findings
not absorbed by the baseline), 2 argument errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import Baseline
from repro.lint.engine import LintEngine, LintResult, default_registry

__all__ = ["add_lint_arguments", "run_lint", "main"]

DEFAULT_BASELINE = ".lint-baseline.json"
DEFAULT_CACHE_DIR = ".lint-cache"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to ``parser`` (shared with the

    top-level ``repro`` CLI subcommand)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/ under --root)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root; findings and baseline paths are relative to it",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file relative to --root (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--fail-on-new",
        action="store_true",
        help="exit non-zero only for findings absent from the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept the current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to this file as well as stdout",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parse files with this many threads (default: min(8, files))",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="cache parsed ASTs and findings keyed by content hash",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"cache directory relative to --root (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--bench-json",
        default=None,
        help="record wall-clock timing of the run to this JSON file",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed ``args``; returns exit code."""
    root = Path(args.root).resolve()
    raw_paths = args.paths or ["src"]
    paths = [Path(p) if Path(p).is_absolute() else root / p for p in raw_paths]
    for path in paths:
        if not path.exists():
            print(f"repro lint: path does not exist: {path}", file=sys.stderr)
            return 2

    only: Optional[List[str]] = None
    if args.rules:
        only = [rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()]

    try:
        engine = LintEngine(rules=default_registry.create(only=only))
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2

    cache = None
    if getattr(args, "cache", False):
        from repro.lint.cache import LintCache

        cache_dir = Path(args.cache_dir)
        if not cache_dir.is_absolute():
            cache_dir = root / cache_dir
        salt = "|".join(sorted(rule.rule_id for rule in engine.rules))
        cache = LintCache(cache_dir, salt=salt)

    started = time.perf_counter()
    result = engine.lint_paths(
        paths, root, jobs=getattr(args, "jobs", None), cache=cache
    )
    elapsed = time.perf_counter() - started

    if getattr(args, "bench_json", None):
        bench_path = Path(args.bench_json)
        if not bench_path.is_absolute():
            bench_path = root / bench_path
        bench_path.write_text(
            json.dumps(
                {
                    "bench": "lint",
                    "seconds": round(elapsed, 4),
                    "files_scanned": result.files_scanned,
                    "findings": len(result.findings),
                    "cache": {
                        "enabled": cache is not None,
                        "hits": getattr(cache, "hits", 0),
                        "misses": getattr(cache, "misses", 0),
                    },
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path

    if args.update_baseline:
        Baseline.write(baseline_path, result.findings)
        print(
            f"repro lint: wrote {len(result.findings)} finding(s) to "
            f"{baseline_path}"
        )
        return 0

    baseline = Baseline.load(baseline_path)
    new, baselined = baseline.partition(result.findings)

    report = _render(args.format, result, new, baselined)
    print(report)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")

    if result.parse_errors:
        return 2
    failing = new if args.fail_on_new else result.findings
    return 1 if failing else 0


def _render(
    fmt: str, result: LintResult, new: List, baselined: List
) -> str:
    if fmt == "sarif":
        from repro.lint.sarif import render_sarif

        return render_sarif(
            result.findings, (finding.fingerprint for finding in new)
        )
    if fmt == "json":
        payload = {
            "format": "repro.lint-report",
            "version": 1,
            "files_scanned": result.files_scanned,
            "findings": [finding.to_dict() for finding in result.findings],
            "new": [finding.fingerprint for finding in new],
            "baselined": len(baselined),
            "suppressed": result.suppressed,
            "by_rule": result.by_rule(),
            "parse_errors": result.parse_errors,
        }
        return json.dumps(payload, indent=2)

    lines: List[str] = []
    for finding in result.findings:
        marker = " [baselined]" if finding in baselined else ""
        lines.append(finding.render_text() + marker)
    for error in result.parse_errors:
        lines.append(f"parse error: {error}")
    summary = (
        f"{len(result.findings)} finding(s) "
        f"({len(new)} new, {len(baselined)} baselined), "
        f"{result.suppressed} suppressed, "
        f"{result.files_scanned} file(s) scanned"
    )
    lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Domain-aware static analysis for the repro codebase.",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
