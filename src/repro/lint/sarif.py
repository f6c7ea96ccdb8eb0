"""SARIF 2.1.0 output for ``repro lint --format sarif``.

GitHub code scanning ingests this to annotate PR diffs.  Each finding
becomes one ``result`` with a physical location; findings with a trace
(RL001, RL009) additionally carry a ``codeFlow`` whose thread-flow locations
replay the trace source-to-sink (SARIF convention: execution order),
and every result exposes the baseline fingerprint under
``partialFingerprints`` so re-runs match up.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

from repro.lint.engine import default_registry
from repro.lint.findings import Finding

__all__ = ["render_sarif"]

_SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_metadata() -> List[Dict[str, Any]]:
    return [
        _rule_entry(rule.rule_id, rule.name, rule.rationale)
        for rule in default_registry.create()
    ]


def _rule_entry(rule_id: str, name: str, rationale: str) -> Dict[str, Any]:
    return {
        "id": rule_id,
        "name": name,
        "shortDescription": {"text": name},
        "fullDescription": {"text": rationale},
        "defaultConfiguration": {"level": "error"},
    }


def _location(path: str, line: int, col: int = 0) -> Dict[str, Any]:
    region: Dict[str, Any] = {"startLine": max(line, 1)}
    if col:
        region["startColumn"] = col + 1  # SARIF columns are 1-based
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path, "uriBaseId": "SRCROOT"},
            "region": region,
        }
    }


def _code_flow(finding: Finding) -> Dict[str, Any]:
    # Finding traces run sink -> source; SARIF thread flows replay
    # execution order, so emit source -> ... -> sink.
    locations = []
    for hop in reversed(finding.trace):
        entry = _location(hop.path, hop.line)
        entry["message"] = {"text": hop.note}
        locations.append({"location": entry})
    sink = _location(finding.path, finding.line, finding.col)
    sink["message"] = {"text": "released/reported here"}
    locations.append({"location": sink})
    return {"threadFlows": [{"locations": locations}]}


def render_sarif(
    findings: Sequence[Finding], new_fingerprints: Iterable[str]
) -> str:
    """Serialise ``findings`` as one SARIF run.

    ``new_fingerprints`` marks which findings are absent from the
    baseline (``baselineState``: ``new`` vs ``unchanged``).
    """
    new_set = set(new_fingerprints)
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [_location(finding.path, finding.line, finding.col)],
            "partialFingerprints": {
                "reproLint/fingerprint/v1": finding.fingerprint
            },
            "baselineState": (
                "new" if finding.fingerprint in new_set else "unchanged"
            ),
        }
        if finding.trace:
            result["codeFlows"] = [_code_flow(finding)]
        results.append(result)

    payload = {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": _rule_metadata(),
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)
