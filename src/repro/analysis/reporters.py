"""Render a :class:`~repro.analysis.diagnostics.CheckReport`.

Three formats: a human ``text`` listing, a machine ``json`` document, and
SARIF 2.1.0 for code-scanning UIs (the CI job uploads the SARIF artifact).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Sequence

from .diagnostics import CheckReport, Diagnostic
from .rules import registered_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-check"


def _tool_version() -> str:
    from .. import __version__

    return str(__version__)


def render_text(report: CheckReport) -> str:
    """Human-readable listing: one line per finding plus a summary."""
    lines = [f"check: {report.design}"]
    lines.extend(d.format() for d in report.findings)
    by_sev = report.counts_by_severity
    summary = ", ".join(f"{n} {sev}" for sev, n in sorted(by_sev.items())) or "clean"
    lines.append(
        f"{len(report.findings)} finding(s) ({summary}); "
        f"{len(report.rules_run)} rule(s) run, "
        f"{len(report.rules_skipped)} skipped"
    )
    return "\n".join(lines)


def render_json(report: CheckReport) -> str:
    """Stable JSON document with findings and per-code counts."""
    doc = {
        "design": report.design,
        "findings": [d.as_dict() for d in report.findings],
        "counts_by_code": report.counts_by_code,
        "counts_by_severity": report.counts_by_severity,
        "rules_run": list(report.rules_run),
        "rules_skipped": list(report.rules_skipped),
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def sarif_log(
    tool: str,
    rules: Sequence[Any],
    findings: Iterable[Any],
    location: Callable[[Any], dict[str, Any]],
    *,
    successful: bool,
) -> dict[str, Any]:
    """A SARIF 2.1.0 log object with one run of ``tool``.

    ``rules`` carry ``code``/``name``/``description``/``default_severity``
    and ``findings`` carry ``code``/``severity``/``message``/``hint`` —
    the shape shared by design-rule diagnostics and lint findings.
    ``location`` maps one finding to its SARIF location object, the one
    part that differs between the two (logical vs physical).
    """
    rule_index = {r.code: i for i, r in enumerate(rules)}
    descriptors: list[dict[str, Any]] = [
        {
            "id": r.code,
            "name": r.name,
            "shortDescription": {"text": r.description},
            "defaultConfiguration": {"level": r.default_severity.sarif_level},
        }
        for r in rules
    ]
    results: list[dict[str, Any]] = []
    for f in findings:
        message = f.message if not f.hint else f"{f.message}. Hint: {f.hint}"
        result: dict[str, Any] = {
            "ruleId": f.code,
            "level": f.severity.sarif_level,
            "message": {"text": message},
            "locations": [location(f)],
        }
        idx = rule_index.get(f.code)
        if idx is not None:
            result["ruleIndex"] = idx
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "version": _tool_version(),
                        "informationUri": (
                            "https://github.com/paper-repro/rotary-clocking"
                        ),
                        "rules": descriptors,
                    }
                },
                "invocations": [{"executionSuccessful": successful}],
                "results": results,
            }
        ],
    }


def sarif_document(report: CheckReport) -> dict[str, Any]:
    """The SARIF 2.1.0 log object for one checker run (logical locations:
    design objects, not files)."""

    def location(d: Diagnostic) -> dict[str, Any]:
        return {
            "logicalLocations": [
                {
                    "name": d.location.name,
                    "fullyQualifiedName": (
                        f"{report.design}/{d.location.kind}/{d.location.name}"
                    ),
                    "kind": d.location.kind,
                }
            ]
        }

    return sarif_log(
        TOOL_NAME,
        registered_rules(),
        report.findings,
        location,
        successful=not report.has_errors,
    )


def render_sarif(report: CheckReport) -> str:
    """SARIF 2.1.0 JSON text."""
    return json.dumps(sarif_document(report), indent=2)
