"""Cache semantics for ``repro lint --cache``: content-hash hits,
invalidation on edit, tree-level short-circuit of the project pass, and
parallel-parse equivalence."""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import repro.lint.cache as cache_module
from repro.lint import LintEngine
from repro.lint.cache import LintCache

BROKER_SRC = textwrap.dedent(
    """
    class DataBroker:
        def answer(self, query):
            estimate = self.estimator.estimate(samples, query.low, query.high)
            value = self._finish(estimate.estimate)
            return PrivateAnswer(value=value)

        def _finish(self, raw):
            return raw
    """
)

CLEAN_SRC = "X = 1\n"


def _make_tree(tmp_path: Path) -> Path:
    broker = tmp_path / "src" / "repro" / "core" / "broker.py"
    broker.parent.mkdir(parents=True)
    broker.write_text(BROKER_SRC, encoding="utf-8")
    other = tmp_path / "src" / "repro" / "core" / "other.py"
    other.write_text(CLEAN_SRC, encoding="utf-8")
    return tmp_path


def _engine() -> LintEngine:
    return LintEngine()


def test_second_run_hits_for_every_unchanged_file(tmp_path):
    root = _make_tree(tmp_path)
    cache_dir = tmp_path / ".lint-cache"

    cache = LintCache(cache_dir, salt="s")
    first = _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 0 and cache.misses == 2

    cache = LintCache(cache_dir, salt="s")
    second = _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 2 and cache.misses == 0
    assert [f.fingerprint for f in second.findings] == [
        f.fingerprint for f in first.findings
    ]
    assert second.suppressed == first.suppressed
    assert second.files_scanned == first.files_scanned


def test_tree_cache_short_circuits_interprocedural_pass(tmp_path, monkeypatch):
    root = _make_tree(tmp_path)
    cache_dir = tmp_path / ".lint-cache"

    cache = LintCache(cache_dir, salt="s")
    first = _engine().lint_paths([root / "src"], root, cache=cache)
    assert any(f.rule_id == "RL001" for f in first.findings)

    # A second run must not invoke the project rules at all.
    import repro.lint.flow as flow

    def boom(*args, **kwargs):  # pragma: no cover - exercised on regression
        raise AssertionError("project pass ran despite tree-cache hit")

    monkeypatch.setattr(flow, "run_project_rules", boom)
    cache = LintCache(cache_dir, salt="s")
    second = _engine().lint_paths([root / "src"], root, cache=cache)
    assert [f.fingerprint for f in second.findings] == [
        f.fingerprint for f in first.findings
    ]


def test_editing_one_file_invalidates_it_and_the_tree(tmp_path):
    root = _make_tree(tmp_path)
    cache_dir = tmp_path / ".lint-cache"

    cache = LintCache(cache_dir, salt="s")
    first = _engine().lint_paths([root / "src"], root, cache=cache)
    assert any(f.rule_id == "RL001" for f in first.findings)

    # Sanitize the helper: the RL001 finding must disappear even though
    # the tree-level entry from the first run still exists on disk.
    broker = root / "src" / "repro" / "core" / "broker.py"
    broker.write_text(
        BROKER_SRC.replace(
            "return raw", "return raw + sample_laplace(scale, rng)"
        ),
        encoding="utf-8",
    )
    cache = LintCache(cache_dir, salt="s")
    second = _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 1 and cache.misses == 1  # other.py hit, broker.py miss
    assert not any(f.rule_id == "RL001" for f in second.findings)


def test_salt_change_invalidates_everything(tmp_path):
    root = _make_tree(tmp_path)
    cache_dir = tmp_path / ".lint-cache"
    cache = LintCache(cache_dir, salt="rules-v1")
    _engine().lint_paths([root / "src"], root, cache=cache)

    cache = LintCache(cache_dir, salt="rules-v2")
    _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_changed_lint_source_invalidates_everything(tmp_path, monkeypatch):
    """Entries written by one version of the lint code must not be served
    to another: an edited rule would otherwise replay the old findings."""
    root = _make_tree(tmp_path)
    cache_dir = tmp_path / ".lint-cache"
    package = tmp_path / "lint-package"
    shutil.copytree(
        cache_module.PACKAGE_DIR, package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.setattr(cache_module, "PACKAGE_DIR", package)

    cache = LintCache(cache_dir, salt="s")
    _engine().lint_paths([root / "src"], root, cache=cache)
    cache = LintCache(cache_dir, salt="s")
    _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 2 and cache.misses == 0

    rules = package / "rules.py"
    rules.write_text(rules.read_text(encoding="utf-8") + "\n# edited\n", encoding="utf-8")
    cache = LintCache(cache_dir, salt="s")
    _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_corrupt_cache_entries_count_as_misses(tmp_path):
    root = _make_tree(tmp_path)
    cache_dir = tmp_path / ".lint-cache"
    cache = LintCache(cache_dir, salt="s")
    first = _engine().lint_paths([root / "src"], root, cache=cache)

    for entry in cache_dir.glob("*.pkl"):
        entry.write_bytes(b"not a pickle")
    cache = LintCache(cache_dir, salt="s")
    second = _engine().lint_paths([root / "src"], root, cache=cache)
    assert cache.hits == 0 and cache.misses == 2
    assert [f.fingerprint for f in second.findings] == [
        f.fingerprint for f in first.findings
    ]


def test_parallel_jobs_produce_identical_results(tmp_path):
    root = _make_tree(tmp_path)
    serial = _engine().lint_paths([root / "src"], root, jobs=1)
    threaded = _engine().lint_paths([root / "src"], root, jobs=4)
    assert [f.fingerprint for f in threaded.findings] == [
        f.fingerprint for f in serial.findings
    ]
    assert threaded.files_scanned == serial.files_scanned
