"""Per-rule checks: each fixture violation is flagged at the right place."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bounds.expressions import (
    BoundExpressionError,
    evaluate_bound,
    validate_bound_expression,
)
from repro.lint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(name: str, rule_id: str):
    report = lint_paths([FIXTURES / "algorithms" / name])
    return [f for f in report.findings if f.rule == rule_id]


def lines_of(findings):
    return sorted({f.line for f in findings})


class TestBA001:
    def test_flags_each_nondeterminism_site(self):
        findings = findings_for("ba001_bad.py", "BA001")
        assert lines_of(findings) == [3, 4, 8, 9, 11, 19]

    def test_messages_name_the_offence(self):
        messages = " ".join(f.message for f in findings_for("ba001_bad.py", "BA001"))
        assert "random" in messages
        assert "hash()" in messages
        assert "unordered set" in messages


class TestBA002:
    def test_missing_declarations_flagged_per_attribute(self):
        findings = findings_for("ba002_bad.py", "BA002")
        missing = [f for f in findings if "does not declare" in f.message]
        # MissingBounds declares none of the three (authenticated defaults on).
        assert len(missing) == 3
        assert all("MissingBounds" in f.message for f in missing)

    def test_cross_check_catches_disagreement_with_paper(self):
        findings = findings_for("ba002_bad.py", "BA002")
        disagreements = [f for f in findings if "disagrees" in f.message]
        assert len(disagreements) == 1
        finding = disagreements[0]
        assert finding.line == 17
        assert "theorem3_message_upper_bound(t)" in finding.message
        assert "2*t*t + 3*t" in finding.message

    def test_malformed_declarations_flagged(self):
        findings = findings_for("ba002_bad.py", "BA002")
        messages = [f.message for f in findings]
        assert any("string literal" in m for m in messages)
        assert any("disallowed syntax" in m or "may only call" in m for m in messages)
        assert any("no_such_formula" in m for m in messages)

    def test_correct_declarations_pass(self):
        assert findings_for("clean.py", "BA002") == []


class TestBA003:
    def test_flags_each_construction(self):
        findings = findings_for("ba003_bad.py", "BA003")
        assert lines_of(findings) == [8, 9, 12]

    def test_factory_is_allowed(self):
        assert findings_for("clean.py", "BA003") == []


class TestBA004:
    def test_flags_each_mutation_loophole(self):
        findings = findings_for("ba004_bad.py", "BA004")
        assert lines_of(findings) == [5, 6, 7, 8]

    def test_self_attributes_are_not_envelopes(self):
        assert findings_for("clean.py", "BA004") == []


class TestBA005:
    def test_flags_each_bare_view_iteration(self):
        findings = findings_for("ba005_bad.py", "BA005")
        assert lines_of(findings) == [5, 7, 9]

    def test_sorted_and_reductions_are_exempt(self):
        assert findings_for("clean.py", "BA005") == []


class TestBoundExpressionLanguage:
    """The BA002 substrate: parse-time validation and evaluation."""

    def test_paper_formulas_evaluate(self):
        assert evaluate_bound("theorem3_message_upper_bound(t)", {"t": 3}) == 24
        assert evaluate_bound("theorem4_phases(t)", {"t": 2}) == 9

    def test_sentinels_evaluate_to_none(self):
        assert evaluate_bound("derived", {"t": 1}) is None
        assert evaluate_bound("unstated", {"t": 1}) is None
        assert evaluate_bound(None, {"t": 1}) is None

    @pytest.mark.parametrize(
        "expression",
        [
            "__import__('os')",
            "t.denominator",
            "unknown_name + 1",
            "lambda: 1",
            "[1, 2]",
            "f'{t}'",
            "theorem3_phases(t=1)",
        ],
    )
    def test_escape_hatches_rejected(self, expression):
        with pytest.raises(BoundExpressionError):
            validate_bound_expression(expression)

    def test_missing_parameter_raises(self):
        with pytest.raises(BoundExpressionError):
            evaluate_bound("n + t", {"t": 1})
