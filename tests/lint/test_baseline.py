"""Baseline diffing, SARIF rendering, and rule explanations."""

from __future__ import annotations

import json

import pytest

from repro.lint.baseline import (
    BASELINE_SCHEMA,
    BaselineEntry,
    BaselineError,
    apply_baseline,
    canonical_path,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import Finding, LintReport, lint_paths
from repro.lint.report import explain_rule, render_sarif


def finding(rule="BA005", path="src/repro/algorithms/mod.py", line=3, message="m"):
    return Finding(path=path, line=line, column=1, rule=rule, message=message)


def report_of(*findings):
    return LintReport(
        findings=sorted(findings), files_checked=1, rules_run=["BA005"]
    )


class TestCanonicalPath:
    def test_strips_everything_before_the_package(self):
        assert canonical_path("src/repro/algorithms/mod.py") == (
            "repro/algorithms/mod.py"
        )
        assert canonical_path(
            "/site-packages/repro/algorithms/mod.py"
        ) == "repro/algorithms/mod.py"

    def test_last_repro_component_wins(self):
        assert canonical_path("repro/vendor/repro/mod.py") == "repro/mod.py"

    def test_paths_outside_the_package_pass_through(self):
        assert canonical_path("tests/lint/fixtures/mod.py") == (
            "tests/lint/fixtures/mod.py"
        )

    def test_backslashes_are_normalised(self):
        assert canonical_path("src\\repro\\mod.py") == "repro/mod.py"


class TestFingerprint:
    def test_ignores_line_numbers(self):
        a = finding(line=3)
        b = finding(line=300)
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_rule_and_message(self):
        assert fingerprint(finding(rule="BA001")) != fingerprint(
            finding(rule="BA005")
        )
        assert fingerprint(finding(message="x")) != fingerprint(
            finding(message="y")
        )


class TestApplyBaseline:
    def entry(self, **kwargs):
        defaults = dict(
            rule="BA005", path="repro/algorithms/mod.py", message="m"
        )
        defaults.update(kwargs)
        return BaselineEntry(**defaults)

    def test_known_finding_is_matched_not_new(self):
        result = apply_baseline(report_of(finding()), [self.entry()])
        assert result.ok
        assert result.exit_code == 0
        assert len(result.matched) == 1
        assert not result.new and not result.stale

    def test_unknown_finding_is_new(self):
        result = apply_baseline(report_of(finding(message="other")), [self.entry()])
        assert not result.ok
        assert result.exit_code == 1
        assert len(result.new) == 1
        assert len(result.stale) == 1

    def test_matching_is_counted_not_set_based(self):
        # two identical findings, one baseline entry: one still fails.
        duplicated = report_of(finding(line=3), finding(line=9))
        result = apply_baseline(duplicated, [self.entry()])
        assert len(result.matched) == 1
        assert len(result.new) == 1

    def test_surplus_entries_are_stale(self):
        result = apply_baseline(
            report_of(finding()), [self.entry(), self.entry()]
        )
        assert result.ok
        assert len(result.stale) == 1

    def test_clean_report_against_empty_baseline(self):
        result = apply_baseline(report_of(), [])
        assert result.ok and not result.stale


class TestBaselineFiles:
    def test_write_then_load_round_trips(self, tmp_path):
        target = tmp_path / "baseline.json"
        count = write_baseline(report_of(finding()), target)
        assert count == 1
        entries = load_baseline(target)
        assert [e.fingerprint for e in entries] == [fingerprint(finding())]
        payload = json.loads(target.read_text())
        assert payload["schema"] == BASELINE_SCHEMA

    def test_reasons_survive_regeneration(self, tmp_path):
        target = tmp_path / "baseline.json"
        write_baseline(report_of(finding()), target)
        annotated = [
            BaselineEntry(
                rule=e.rule, path=e.path, message=e.message,
                reason="known debt",
            )
            for e in load_baseline(target)
        ]
        write_baseline(report_of(finding(line=77)), target, previous=annotated)
        (entry,) = load_baseline(target)
        assert entry.reason == "known debt"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BaselineError):
            load_baseline(tmp_path / "absent.json")

    def test_wrong_schema_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema": "other/9", "findings": []}))
        with pytest.raises(BaselineError):
            load_baseline(target)

    def test_malformed_entries_raise(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps({"schema": BASELINE_SCHEMA, "findings": [{"rule": "X"}]})
        )
        with pytest.raises(BaselineError):
            load_baseline(target)

    def test_committed_baseline_matches_the_tree(self):
        """The repo's own gate: the committed baseline has no entries,
        because the shipped tree is clean under every rule."""
        from pathlib import Path

        committed = Path(__file__).parents[2] / "lint_baseline.json"
        entries = load_baseline(committed)
        assert entries == []


class TestSarif:
    def test_real_findings_render_as_error_results(self):
        sarif = json.loads(render_sarif(report_of(finding())))
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "BA005"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == (
            "src/repro/algorithms/mod.py"
        )
        assert location["region"]["startLine"] == 3

    def test_note_severity_maps_to_note_level(self):
        noted = Finding(
            path="mod.py", line=1, column=1, rule="BA100",
            message="stale", severity="note",
        )
        sarif = json.loads(render_sarif(report_of(noted)))
        assert sarif["runs"][0]["results"][0]["level"] == "note"

    def test_baselined_findings_carry_external_suppressions(self):
        known = finding()
        sarif = json.loads(render_sarif(report_of(known), baselined=[known]))
        (result,) = sarif["runs"][0]["results"]
        assert result["suppressions"] == [{"kind": "external"}]

    def test_driver_documents_every_rule(self):
        sarif = json.loads(render_sarif(report_of()))
        rules = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert {"BA000", "BA001", "BA006", "BA007", "BA008", "BA009", "BA100"} <= rules

    def test_fixture_run_is_valid_json_with_results(self):
        from pathlib import Path

        report = lint_paths([Path(__file__).parent / "fixtures"])
        sarif = json.loads(render_sarif(report))
        assert sarif["runs"][0]["results"]


class TestExplainRule:
    @pytest.mark.parametrize(
        "rule_id",
        ["BA000", "BA001", "BA002", "BA003", "BA004", "BA005",
         "BA006", "BA007", "BA008", "BA009", "BA100"],
    )
    def test_every_rule_explains_itself(self, rule_id):
        text = explain_rule(rule_id)
        assert text is not None
        assert text.startswith(f"{rule_id}:")
        # each explanation carries real prose, not just the summary line.
        assert len(text.splitlines()) > 1

    def test_lookup_is_case_insensitive(self):
        assert explain_rule("ba006") == explain_rule("BA006")

    def test_unknown_rule_returns_none(self):
        assert explain_rule("BA999") is None
