"""Tests for the table renderers."""

from repro.analysis.tables import format_markdown_table, format_table


ROWS = [
    {"name": "a", "messages": 10, "bound": 12},
    {"name": "bb", "messages": 7, "bound": None},
]


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(ROWS)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "10" in lines[2] and "bb" in lines[3]

    def test_none_renders_as_dash(self):
        assert "-" in format_table(ROWS).splitlines()[3]

    def test_column_selection_and_order(self):
        text = format_table(ROWS, columns=["messages", "name"])
        assert text.splitlines()[0].startswith("messages")

    def test_title(self):
        assert format_table(ROWS, title="T1").startswith("T1\n")

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])

    def test_floats_rounded(self):
        text = format_table([{"r": 1.23456}])
        assert "1.23" in text and "1.2345" not in text


class TestMarkdownTable:
    def test_structure(self):
        text = format_markdown_table(ROWS)
        lines = text.splitlines()
        assert lines[0] == "| name | messages | bound |"
        assert lines[1] == "|---|---|---|"
        assert lines[2] == "| a | 10 | 12 |"
        assert lines[3] == "| bb | 7 | - |"

    def test_empty(self):
        assert format_markdown_table([]) == "(no rows)"
