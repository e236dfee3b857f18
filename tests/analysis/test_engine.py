"""Engine mechanics: pragmas, selection, rendering, parse errors."""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.sketchlint.engine import (
    LintReport,
    Violation,
    iter_python_files,
    lint_paths,
    lint_source,
)
from tools.sketchlint.rules import ALL_RULES, rules_by_code


def test_all_rules_have_distinct_codes_and_summaries():
    codes = [cls.code for cls in ALL_RULES]
    assert codes == [
        "SK001", "SK002", "SK003", "SK004", "SK005",
        "SK102", "SK104", "SK105",
        "SK201", "SK202", "SK203", "SK204", "SK205", "SK206",
    ]
    assert len(set(codes)) == len(codes)
    assert all(cls.summary for cls in ALL_RULES)
    assert set(rules_by_code()) == set(codes)


def test_violation_render_is_editor_clickable():
    violation = Violation(
        code="SK003", message="no asserts", path="src/x.py", line=7, column=4
    )
    assert violation.render() == "src/x.py:7:5: SK003 no asserts"


def test_pragma_suppresses_named_code():
    source = "assert True  # sketchlint: disable=SK003\n"
    assert lint_source(source) == []


def test_pragma_all_suppresses_everything():
    source = "assert True  # sketchlint: disable=all\n"
    assert lint_source(source) == []


def test_pragma_other_code_does_not_suppress():
    source = "assert True  # sketchlint: disable=SK001\n"
    violations = lint_source(source)
    assert [v.code for v in violations] == ["SK003"]


def test_select_unknown_code_raises(tmp_path: Path):
    with pytest.raises(ValueError, match="SK999"):
        lint_paths([tmp_path], select=["SK999"])


def test_select_restricts_to_named_rule(tmp_path: Path):
    bad = tmp_path / "mixed.py"
    bad.write_text("assert True\nrandom.random()\nimport random\n")
    report = lint_paths([bad], select=["sk003"])
    assert [v.code for v in report.violations] == ["SK003"]


def test_syntax_error_is_reported_not_raised(tmp_path: Path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    report = lint_paths([tmp_path])
    assert not report.ok
    assert report.files_checked == 1
    assert any("syntax error" in message for message in report.parse_errors)


def test_iter_python_files_is_sorted_and_recursive(tmp_path: Path):
    (tmp_path / "sub").mkdir()
    for name in ("b.py", "a.py", "sub/c.py", "notes.txt"):
        (tmp_path / name).write_text("x = 1\n")
    found = [p.name for p in iter_python_files([tmp_path])]
    assert found == ["a.py", "b.py", "c.py"]


def test_report_render_mentions_counts():
    report = LintReport(files_checked=3)
    assert report.ok
    assert "3 file(s) checked, 0 violation(s)" in report.render()
