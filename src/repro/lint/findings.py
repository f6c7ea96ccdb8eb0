"""Finding objects produced by lint rules.

A :class:`Finding` is one rule violation at one source location.  Its
:attr:`~Finding.fingerprint` deliberately hashes the *text* of the
offending line rather than its line number, so a checked-in baseline
(:mod:`repro.lint.baseline`) survives unrelated edits that shift code up
or down the file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

__all__ = ["Finding", "Hop"]


@dataclass(frozen=True)
class Hop:
    """One step of an interprocedural trace (sink-to-source order).

    ``line_text`` feeds the fingerprint the same way a finding's own
    line does: hops keep their identity when unrelated edits shift the
    file, and only the *endpoints* of a trace are fingerprinted (see
    :attr:`Finding.fingerprint`), so re-routing an intermediate call
    never invalidates a baselined or suppressed finding.
    """

    path: str
    line: int
    note: str
    line_text: str = ""

    def render_text(self) -> str:
        return f"{self.path}:{self.line}: {self.note}"

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule_id:
        Registry id of the rule that fired (e.g. ``"RL001"``).
    path:
        Posix-style path of the offending file, relative to the lint
        root.
    line, col:
        1-based line and 0-based column of the violation.
    message:
        Human-readable description of what the rule saw.
    line_text:
        The stripped source line at ``line`` -- the stable ingredient of
        the fingerprint.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    line_text: str = ""
    #: Call chain of a project-rule finding, sink first, taint/effect
    #: source last.  Empty for per-file rule findings.
    trace: Tuple[Hop, ...] = field(default=())

    @property
    def fingerprint(self) -> str:
        """Stable identity used for baseline matching.

        Hashes ``(rule_id, path, stripped line text)`` -- *not* the line
        number -- so findings keep their identity when unrelated lines
        are inserted above them.  Duplicate fingerprints (the same
        offending text twice in one file) are handled multiset-style by
        the baseline.

        Findings with a trace additionally hash the trace's **source
        endpoint** (final hop) only -- a summary-hash of the trace, not
        the full call chain -- so refactors that add or re-route
        intermediate calls never spuriously invalidate a baselined
        suppression while a genuinely different source still reads as a
        new finding.
        """
        parts = [self.rule_id, self.path, self.line_text.strip()]
        if self.trace:
            source = self.trace[-1]
            parts.extend((source.path, source.line_text.strip()))
        payload = "::".join(parts)
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render_text(self) -> str:
        """``path:line:col: RULE message`` plus indented trace hops."""
        head = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if not self.trace:
            return head
        hops = "\n".join(f"    via {hop.render_text()}" for hop in self.trace)
        return f"{head}\n{hops}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable payload (used by ``--format json``)."""
        payload: Dict[str, Any] = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }
        if self.trace:
            payload["trace"] = [hop.to_dict() for hop in self.trace]
        return payload
