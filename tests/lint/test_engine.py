"""Engine behavior: config, path expansion, reports, and the self-check
that the repo's own sources are lint-clean."""

from pathlib import Path

import pytest

from repro.errors import CheckError
from repro.lint import (
    LintConfig,
    Severity,
    lint_paths,
    lint_source,
    registered_lint_rules,
    rule_by_code,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

BAD = "for x in {1, 2}:\n    pass\nimport time\nt = time.time()\n"


class TestConfig:
    def test_unknown_code_rejected_everywhere(self):
        with pytest.raises(CheckError):
            LintConfig(enabled=("NOPE",))
        with pytest.raises(CheckError):
            LintConfig(disabled=("NOPE",))
        with pytest.raises(CheckError):
            LintConfig(severity_overrides={"NOPE": Severity.ERROR})

    def test_disable_filters_findings(self):
        cfg = LintConfig(disabled=("DET001",))
        assert [f.code for f in lint_source(BAD, config=cfg)] == ["DET004"]

    def test_enable_restricts_findings(self):
        cfg = LintConfig(enabled=("DET004",))
        assert [f.code for f in lint_source(BAD, config=cfg)] == ["DET004"]

    def test_enable_keeps_pragma_hygiene_active(self):
        cfg = LintConfig(enabled=("DET004",))
        src = "x = 1  # repro: lint-disable=DET001\n"
        assert [f.code for f in lint_source(src, config=cfg)] == ["PRG001"]

    def test_severity_override(self):
        cfg = LintConfig(severity_overrides={"DET001": Severity.WARNING})
        findings = lint_source("for x in {1}:\n    pass\n", config=cfg)
        assert findings[0].severity is Severity.WARNING

    def test_rule_lookup(self):
        assert rule_by_code("DET001").name == "set-iteration"
        assert len(registered_lint_rules()) == 12


class TestPaths:
    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(CheckError, match="does not exist"):
            lint_paths([tmp_path / "nope.py"])

    def test_syntax_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        with pytest.raises(CheckError, match="cannot parse"):
            lint_paths([bad])

    def test_directory_expansion_is_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "c.py").write_text("z = 3\n")
        report = lint_paths([tmp_path, tmp_path / "a.py"])
        names = [Path(p).name for p in report.files_checked]
        assert names == ["a.py", "b.py", "c.py"]

    def test_report_counts_and_exit_codes(self, tmp_path):
        (tmp_path / "m.py").write_text(BAD)
        report = lint_paths([tmp_path])
        assert report.counts_by_code == {"DET001": 1, "DET004": 1}
        assert report.counts_by_severity == {"error": 2}
        assert report.has_errors
        assert report.exit_code() == 1
        assert report.exit_code(fail_on=Severity.ERROR) == 1

    def test_warning_findings_respect_fail_on(self, tmp_path):
        (tmp_path / "m.py").write_text("def f(x):\n    return x\n")
        report = lint_paths([tmp_path])
        assert report.counts_by_severity == {"warning": 1}
        assert report.exit_code() == 0  # default threshold is ERROR
        assert report.exit_code(fail_on=Severity.WARNING) == 1

    def test_suppressed_records_only_used_pragmas(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "for x in {1}:  # repro: lint-disable=DET001 -- test fixture\n"
            "    pass\n"
            "y = 1  # repro: lint-disable=DET002 -- unused suppression\n"
        )
        report = lint_paths([tmp_path])
        assert report.findings == ()
        (codes,) = report.suppressed.values()
        assert codes == ["DET001"]


class TestSelfCheck:
    def test_repo_sources_are_lint_clean(self):
        """The acceptance criterion: ``repro lint src/`` exits 0."""
        report = lint_paths([REPO_SRC])
        offending = [f.format() for f in report.at_least(Severity.ERROR)]
        assert not offending, "\n".join(offending)
        assert report.exit_code() == 0
        assert len(report.files_checked) > 50

    def test_repo_suppressions_are_few_and_justified(self):
        # Every honored pragma suppressed a real finding; the budget is
        # deliberately tight so suppressions stay the exception.
        report = lint_paths([REPO_SRC])
        total = sum(len(codes) for codes in report.suppressed.values())
        assert total <= 6
