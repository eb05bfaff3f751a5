"""Render a :class:`~repro.lint.findings.LintReport`.

The same three formats the design-rule checker established: a human
``text`` listing, a machine ``json`` document, and SARIF 2.1.0 for
code-scanning UIs.  Lint findings carry *physical* locations (file,
line, column), so the SARIF results use ``physicalLocation`` regions
where ``repro check`` uses logical design-object locations.
"""

from __future__ import annotations

import json
from typing import Any

from ..analysis.reporters import sarif_log
from .findings import LintFinding, LintReport
from .rules import registered_lint_rules

TOOL_NAME = "repro-lint"

__all__ = [
    "TOOL_NAME",
    "render_json",
    "render_sarif",
    "render_text",
    "sarif_document",
]


def render_text(report: LintReport) -> str:
    """Human-readable listing: one line per finding plus a summary."""
    lines = [f.format() for f in report.findings]
    by_sev = report.counts_by_severity
    summary = ", ".join(f"{n} {sev}" for sev, n in sorted(by_sev.items())) or "clean"
    n_suppressed = sum(len(codes) for codes in report.suppressed.values())
    lines.append(
        f"{len(report.findings)} finding(s) ({summary}) in "
        f"{len(report.files_checked)} file(s); "
        f"{len(report.rules_run)} rule(s) run, "
        f"{n_suppressed} justified suppression(s)"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Stable JSON document with findings and per-code counts."""
    doc = {
        "findings": [f.as_dict() for f in report.findings],
        "counts_by_code": report.counts_by_code,
        "counts_by_severity": report.counts_by_severity,
        "files_checked": list(report.files_checked),
        "rules_run": list(report.rules_run),
        "suppressed": {
            path: list(codes)
            for path, codes in sorted(report.suppressed.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def sarif_document(report: LintReport) -> dict[str, Any]:
    """The SARIF 2.1.0 log object for one lint run."""

    def location(f: LintFinding) -> dict[str, Any]:
        return {
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": {"startLine": f.line, "startColumn": f.column},
            }
        }

    return sarif_log(
        TOOL_NAME,
        registered_lint_rules(),
        report.findings,
        location,
        successful=not report.has_errors,
    )


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 JSON text."""
    return json.dumps(sarif_document(report), indent=2)
