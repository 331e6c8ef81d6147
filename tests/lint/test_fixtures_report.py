"""The linter's whole report over ``tests/lint/fixtures``, pinned.

The rule tests check lines and message substrings.  This file pins every
finding of every rule: its path (relative to the fixtures directory),
line, column and full message.  The test regenerates the report and
diffs it exactly.  A change that moves a finding re-pins it by running
this module as a script, and lists each changed finding::

    PYTHONPATH=src python tests/lint/test_fixtures_report.py
"""

from dataclasses import replace
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.report import render_json

FIXTURES = Path(__file__).parent / "fixtures"
REPORT = Path(__file__).parent / "fixtures_report.json"


def fixtures_report() -> str:
    """``render_json`` of the fixtures' report, paths relative to them."""
    report = lint_paths([FIXTURES])
    report.findings = [
        replace(finding, path=Path(finding.path).relative_to(FIXTURES).as_posix())
        for finding in report.findings
    ]
    return render_json(report) + "\n"


def test_fixtures_report_matches_the_pinned_file():
    expected = REPORT.read_text(encoding="utf-8").splitlines()
    assert fixtures_report().splitlines() == expected


if __name__ == "__main__":
    REPORT.write_text(fixtures_report(), encoding="utf-8")
