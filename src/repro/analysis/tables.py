"""Plain-text table rendering for benchmark output and EXPERIMENTS.md.

No dependency on any plotting stack — the paper's evaluation is tabular
(worst-case counts), so the reproduction's outputs are tables too.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def _cell(row: Mapping[str, object], col: str) -> str:
    """Format one value for its column: ``-`` for ``None``, two decimals
    for a float, ``str`` otherwise."""
    value = row.get(col)
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    *,
    title: str | None = None,
) -> str:
    """Render dict-rows as an aligned monospace table.

    Column order follows *columns* when given, else the keys of the first
    row.  Values render via ``str``; ``None`` renders as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())

    rendered = [[_cell(row, col) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(cols)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    rule = "  ".join("-" * widths[i] for i in range(len(cols)))
    body = "\n".join(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(cols))) for r in rendered
    )
    table = f"{header}\n{rule}\n{body}"
    return f"{title}\n{table}" if title else table


def format_markdown_table(rows: Sequence[Mapping[str, object]]) -> str:
    """The same rows as a GitHub-flavoured markdown table, columns in the
    first row's key order."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())

    lines = [
        "| " + " | ".join(cols) + " |",
        "|" + "|".join("---" for _ in cols) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row, c) for c in cols) + " |")
    return "\n".join(lines)
