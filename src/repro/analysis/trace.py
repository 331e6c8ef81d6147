"""Human-readable execution traces.

Renders a finished run's :class:`~repro.core.history.History` as a
phase-by-phase timeline — who sent what to whom, how many signatures each
message carried, which phases were silent.  Useful for debugging new
algorithms and for teaching: the paper's algorithms are much easier to
follow watching the correct 1-messages hop across the bipartite graph or
the chain sets being walked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.history import History, edge_payloads
from repro.core.metrics import count_signatures
from repro.core.runner import RunResult
from repro.core.types import INPUT_SOURCE, ProcessorId


@dataclass(frozen=True, slots=True)
class TraceLine:
    """One rendered message."""

    phase: int
    src: ProcessorId
    dst: ProcessorId
    summary: str
    signatures: int


def _escape_length(text: str, index: int) -> int:
    """Length of the ``repr`` escape sequence starting at *index*.

    ``repr`` of strings/bytes emits ``\\\\``-style two-character escapes,
    fixed-width ``\\xHH`` / ``\\uHHHH`` / ``\\UHHHHHHHH`` codes, and (from
    ``unicodedata``-aware reprs) ``\\N{NAME}``.  Anything not starting a
    backslash escape has length 1.
    """
    if text[index] != "\\" or index + 1 >= len(text):
        return 1
    marker = text[index + 1]
    if marker == "x":
        return 4
    if marker == "u":
        return 6
    if marker == "U":
        return 10
    if marker == "N" and index + 2 < len(text) and text[index + 2] == "{":
        closing = text.find("}", index + 2)
        if closing != -1:
            return closing - index + 1
    return 2


def _clean_cut(text: str, limit: int) -> str:
    """The longest prefix of *text* of length <= *limit* that does not end
    mid-escape: a cut point never lands inside a ``\\xHH``-style sequence.
    """
    index = 0
    while index < limit:
        step = _escape_length(text, index)
        if index + step > limit:
            break
        index += step
    return text[:index]


def describe_payload(payload: object, max_length: int = 60) -> str:
    """A one-line, truncated description of a message payload.

    Truncation respects escape-sequence boundaries: a payload whose
    ``repr`` contains ``\\xHH`` / ``\\uHHHH`` escapes near the cut point is
    shortened to the last *complete* escape, never leaving a dangling
    backslash fragment before the ellipsis.
    """
    text = repr(payload)
    if len(text) > max_length:
        text = _clean_cut(text, max_length - 3) + "..."
    return text


def trace_lines(
    history: History, *, processors: set[ProcessorId] | None = None
) -> list[TraceLine]:
    """Flatten a history into trace lines; *processors*, when given, keeps
    only messages touching one of those ids."""
    lines: list[TraceLine] = []
    for phase_number, phase in enumerate(history.phases):
        for edge in phase.edges():
            if processors is not None and not (
                edge.src in processors or edge.dst in processors
            ):
                continue
            for payload in edge_payloads(edge.label):
                lines.append(
                    TraceLine(
                        phase=phase_number,
                        src=edge.src,
                        dst=edge.dst,
                        summary=describe_payload(payload),
                        signatures=count_signatures(payload),
                    )
                )
    return lines


def render_trace(
    result: RunResult,
    *,
    processors: set[ProcessorId] | None = None,
    max_messages_per_phase: int = 12,
) -> str:
    """The full timeline of a run as text.

    Messages from faulty processors are marked with ``!``; the phase-0
    input edge renders as ``input``.  Phases with more traffic than
    *max_messages_per_phase* are elided with a count.
    """
    out: list[str] = [
        f"run of {result.algorithm_name}: n={result.n}, t={result.t}, "
        f"input={result.input_value!r}, faulty={sorted(result.faulty) or 'none'}"
    ]
    lines = trace_lines(result.history, processors=processors)
    by_phase: dict[int, list[TraceLine]] = {}
    for line in lines:
        by_phase.setdefault(line.phase, []).append(line)

    for phase_number in range(len(result.history.phases)):
        phase_lines = by_phase.get(phase_number, [])
        phase_signatures = sum(line.signatures for line in phase_lines)
        header = (
            f"--- phase {phase_number} ({len(phase_lines)} messages, "
            f"{phase_signatures} signatures) ---"
        )
        out.append(header)
        if not phase_lines:
            out.append("    (silent)")
            continue
        shown = phase_lines[:max_messages_per_phase]
        for line in shown:
            marker = "!" if line.src in result.faulty else " "
            src = "input" if line.src == INPUT_SOURCE else f"{line.src:>3}"
            sigs = f" [{line.signatures} sig]" if line.signatures else ""
            out.append(f"  {marker} {src} -> {line.dst:>3}: {line.summary}{sigs}")
        if len(phase_lines) > len(shown):
            out.append(f"    ... {len(phase_lines) - len(shown)} more")

    decisions = {pid: result.decisions[pid] for pid in sorted(result.decisions)}
    out.append(f"decisions: {decisions}")
    return "\n".join(out)
