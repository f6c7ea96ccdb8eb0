"""Content-hash lint cache (``repro lint --cache``, ``.lint-cache/``).

Two tiers, both keyed by content hashes so stale entries are simply
never looked up (no invalidation protocol, safe to delete at any time):

* **Per-file** entries store the pickled :class:`FileContext` (the
  parsed AST plus comment map -- reparsing is the expensive part of a
  lint run) together with that file's intra-rule findings and
  suppression count, keyed by ``sha256(rel_path, source, salt)`` where
  the salt covers the rule set and engine version.
* **Per-tree** entries store the interprocedural pass's findings,
  suppression count, and the memoized function summaries, keyed by the
  hash of *every* file's content hash.  Function summaries depend on
  callees in other files, so per-file caching of summaries would be
  unsound; the tree hash makes the cached pass exact: any edited file
  changes the key and the whole interprocedural pass re-runs (per-file
  AST entries still hit, so only summaries are recomputed).

Entries are plain pickle files; a cache directory is never required for
correctness and unreadable/corrupt entries count as misses.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.lint.engine import FileContext
from repro.lint.findings import Finding

__all__ = ["LintCache", "CACHE_VERSION"]

#: Bump when finding semantics, summary shapes, or pickled layouts change.
CACHE_VERSION = "3"


@dataclass
class CachedFile:
    """One per-file cache hit."""

    ctx: FileContext
    findings: List[Finding]
    suppressed: int


class LintCache:
    """Pickle-per-key cache under a directory (default ``.lint-cache``)."""

    def __init__(self, directory: Path, salt: str = "") -> None:
        self.directory = Path(directory)
        self.salt = f"{CACHE_VERSION}\x00{salt}"
        self.hits = 0
        self.misses = 0
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._usable = True
        except OSError:
            self._usable = False

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def file_key(self, rel_path: str, source: str) -> str:
        digest = hashlib.sha256()
        digest.update(self.salt.encode("utf-8"))
        digest.update(b"\x00file\x00")
        digest.update(rel_path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def tree_key(self, file_keys: Dict[str, str]) -> str:
        digest = hashlib.sha256()
        digest.update(self.salt.encode("utf-8"))
        digest.update(b"\x00tree\x00")
        for rel_path in sorted(file_keys):
            digest.update(rel_path.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(file_keys[rel_path].encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # raw entry IO
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _read(self, key: str) -> Optional[Any]:
        if not self._usable:
            return None
        try:
            with self._path(key).open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None

    def _write(self, key: str, payload: Any) -> None:
        if not self._usable:
            return
        tmp = self._path(key).with_suffix(".tmp")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(self._path(key))
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # per-file tier
    # ------------------------------------------------------------------
    def load_file(self, key: str) -> Optional[CachedFile]:
        payload = self._read(key)
        if not isinstance(payload, dict) or payload.get("kind") != "file":
            self.misses += 1
            return None
        self.hits += 1
        return CachedFile(
            ctx=payload["ctx"],
            findings=list(payload["findings"]),
            suppressed=int(payload["suppressed"]),
        )

    def store_file(
        self, key: str, ctx: FileContext, findings: List[Finding], suppressed: int
    ) -> None:
        self._write(
            key,
            {
                "kind": "file",
                "ctx": ctx,
                "findings": list(findings),
                "suppressed": suppressed,
            },
        )

    # ------------------------------------------------------------------
    # per-tree (interprocedural) tier
    # ------------------------------------------------------------------
    def load_tree(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._read(key)
        if not isinstance(payload, dict) or payload.get("kind") != "tree":
            return None
        return payload

    def store_tree(
        self,
        key: str,
        findings: List[Finding],
        suppressed: int,
        summaries: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._write(
            key,
            {
                "kind": "tree",
                "findings": list(findings),
                "suppressed": suppressed,
                "summaries": summaries or {},
            },
        )
