"""Engine-level behaviour: collection, suppression, parse errors, rendering."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.lint.engine import PARSE_RULE_ID, LintEngine, all_rules, lint_paths
from repro.lint.report import render_json, render_text

FIXTURES = Path(__file__).parent / "fixtures"
RULE_IDS = (
    "BA001",
    "BA002",
    "BA003",
    "BA004",
    "BA005",
    "BA006",
    "BA007",
    "BA008",
    "BA009",
    "BA010",
)
#: Rules whose violation fixture does not follow the
#: ``algorithms/<id>_bad.py`` convention.
FIXTURE_OVERRIDES = {
    "BA009": Path("analysis") / "parallel.py",
    "BA010": Path("approx") / "ba010_bad.py",
}


def test_registry_exposes_all_rules():
    assert set(all_rules()) == set(RULE_IDS)


def test_engine_runs_every_rule_by_default():
    report = lint_paths([FIXTURES])
    assert report.rules_run == sorted(RULE_IDS)
    assert report.files_checked == len(list(FIXTURES.rglob("*.py")))


def test_findings_are_sorted_by_location():
    report = lint_paths([FIXTURES])
    assert report.findings == sorted(report.findings)
    assert not report.ok
    assert report.exit_code == 1


def test_every_rule_fires_on_its_fixture():
    report = lint_paths([FIXTURES])
    for rule_id in RULE_IDS:
        relative = FIXTURE_OVERRIDES.get(
            rule_id, Path("algorithms") / f"{rule_id.lower()}_bad.py"
        )
        fixture = FIXTURES / relative
        hits = [
            f
            for f in report.findings
            if f.rule == rule_id and Path(f.path) == fixture
        ]
        assert hits, f"{rule_id} produced no findings on {fixture.name}"
        for finding in hits:
            assert finding.line >= 1
            assert finding.column >= 1


def test_clean_fixture_has_no_findings():
    report = lint_paths([FIXTURES / "algorithms" / "clean.py"])
    assert report.ok, render_text(report)


def test_noqa_suppresses_by_rule_id(tmp_path):
    code = (
        "def f(d):\n"
        "    for k in d.items():  # noqa: BA005\n"
        "        pass\n"
        "    for k in d.items():  # noqa: BA001\n"
        "        pass\n"
        "    for k in d.items():  # noqa\n"
        "        pass\n"
    )
    target = tmp_path / "algorithms" / "mod.py"
    target.parent.mkdir()
    target.write_text(code)
    report = lint_paths([target])
    # Line 2 suppressed by id, line 6 by blanket noqa, line 4 still fires.
    assert [f.line for f in report.findings if f.rule == "BA005"] == [4]


def test_noqa_codes_are_case_insensitive(tmp_path):
    """A lower-case suppression code works the same as its canonical form."""
    code = (
        "def f(d):\n"
        "    for k in d.items():  # noqa: ba005\n"
        "        pass\n"
    )
    target = tmp_path / "algorithms" / "mod.py"
    target.parent.mkdir()
    target.write_text(code)
    report = lint_paths([target])
    assert not [f for f in report.findings if f.rule == "BA005"]
    # The suppression was used, so no BA100 notice either.
    assert not [f for f in report.findings if f.rule == "BA100"]


class TestUnusedSuppressions:
    def _lint(self, tmp_path, code):
        target = tmp_path / "algorithms" / "mod.py"
        target.parent.mkdir(exist_ok=True)
        target.write_text(code)
        return lint_paths([target])

    def test_stale_code_yields_ba100_notice(self, tmp_path):
        report = self._lint(tmp_path, "x = 1  # noqa: BA005\n")
        notices = [f for f in report.findings if f.rule == "BA100"]
        assert len(notices) == 1
        assert notices[0].line == 1
        assert "BA005" in notices[0].message
        assert notices[0].severity == "note"

    def test_used_code_yields_no_notice(self, tmp_path):
        report = self._lint(
            tmp_path,
            "def f(d):\n"
            "    for k in d.items():  # noqa: BA005\n"
            "        pass\n",
        )
        assert not [f for f in report.findings if f.rule == "BA100"]

    def test_blanket_noqa_is_exempt(self, tmp_path):
        report = self._lint(tmp_path, "x = 1  # noqa\n")
        assert not [f for f in report.findings if f.rule == "BA100"]

    def test_foreign_codes_are_exempt(self, tmp_path):
        report = self._lint(tmp_path, "import os  # noqa: F401\n")
        assert not [f for f in report.findings if f.rule == "BA100"]

    def test_mixed_comment_flags_only_the_stale_own_code(self, tmp_path):
        report = self._lint(
            tmp_path,
            "def f(d):\n"
            "    for k in d.items():  # noqa: BA005, BA001, F401\n"
            "        pass\n",
        )
        notices = [f for f in report.findings if f.rule == "BA100"]
        assert len(notices) == 1
        assert "BA001" in notices[0].message
        assert "F401" not in notices[0].message

    def test_rule_subset_runs_do_not_flag_unrun_codes(self, tmp_path):
        code = "x = 1  # noqa: BA005\n"
        target = tmp_path / "algorithms" / "mod.py"
        target.parent.mkdir()
        target.write_text(code)
        engine = LintEngine([all_rules()["BA001"]])
        report = engine.run([target])
        assert not [f for f in report.findings if f.rule == "BA100"]


def test_parse_error_becomes_ba000_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    report = lint_paths([bad])
    assert [f.rule for f in report.findings] == [PARSE_RULE_ID]
    assert report.files_checked == 0
    assert report.exit_code == 1


def test_render_text_has_locations_and_summary():
    report = lint_paths([FIXTURES])
    text = render_text(report)
    lines = text.splitlines()
    assert lines[-1].endswith(f"{len(report.findings)} findings")
    first = report.findings[0]
    assert lines[0].startswith(f"{first.path}:{first.line}:{first.column} {first.rule}")


def test_render_json_round_trips():
    report = lint_paths([FIXTURES])
    payload = json.loads(render_json(report))
    assert payload["ok"] is False
    assert payload["files_checked"] == report.files_checked
    assert len(payload["findings"]) == len(report.findings)
    assert set(payload["findings"][0]) == {
        "rule",
        "path",
        "line",
        "column",
        "message",
        "severity",
    }


def test_engine_accepts_rule_subset():
    engine = LintEngine([all_rules()["BA005"]])
    report = engine.run([FIXTURES])
    assert report.rules_run == ["BA005"]
    assert {f.rule for f in report.findings} == {"BA005"}


def test_golden_repro_tree_is_clean():
    """The shipped package satisfies its own discipline, end to end."""
    package_root = Path(repro.__file__).parent
    report = lint_paths([package_root])
    assert report.ok, render_text(report)
    assert report.files_checked > 50


def test_classes_sharing_a_name_are_each_linted(tmp_path):
    """Each definition is checked with its own attributes, not the other's."""
    algorithm = (
        "from repro.core.protocol import AgreementAlgorithm\n"
        "\n"
        "\n"
        "class Foo(AgreementAlgorithm):\n"
        '    name = "foo"\n'
        "{bounds}"
        "\n"
        "    def num_phases(self):\n"
        "        return 1\n"
        "\n"
        "    def make_processor(self, pid):\n"
        "        return None\n"
    )
    directory = tmp_path / "algorithms"
    directory.mkdir()
    (directory / "a.py").write_text(algorithm.format(bounds=""))
    (directory / "b.py").write_text(
        algorithm.format(
            bounds=(
                "    authenticated = False\n"
                '    phase_bound = "1"\n'
                '    message_bound = "n - 1"\n'
            )
        )
    )
    report = lint_paths([directory])
    assert report.files_checked == 2
    assert [(Path(f.path).name, f.line, f.rule, f.message) for f in report.findings] == [
        ("a.py", 4, "BA002", f"algorithm class 'Foo' does not declare {bound!r} in its own body")
        for bound in ("message_bound", "phase_bound", "signature_bound")
    ]
