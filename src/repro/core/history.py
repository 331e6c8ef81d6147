"""The formal model of Section 2: phases, histories, individual subhistories.

A *phase* for a processor set PR is a directed labelled graph: an edge
``(p, q)`` labelled ``m`` means *p sent message m to q during that phase*;
no edge means no message.  A *history* is a finite sequence of phases,
preceded by the special *initial phase* (phase 0) containing the single
inedge to the transmitter labelled with its private value.

For a history ``H`` and processor ``p``, the *individual subhistory*
``pH`` consists of only those edges with target ``p``.  The paper's lower
bound proofs are indistinguishability arguments over individual
subhistories: if ``pH = pH'`` then ``p`` decides identically in both — this
module makes that comparison executable (:meth:`History.individual`).

Histories are recorded automatically by the runner; they can also be built
by hand for the constructive proofs in :mod:`repro.bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.message import Envelope, canonical
from repro.core.types import INPUT_SOURCE, ProcessorId, Value


@dataclass(frozen=True, slots=True)
class LabeledEdge:
    """One edge of a phase graph: *src* sent *label* to *dst*."""

    src: ProcessorId
    dst: ProcessorId
    label: object


def edge_payloads(label: object) -> tuple:
    """The individual message payloads behind an edge label.

    Inverse of the composite-label merging done by
    :meth:`History.append_phase` — used by replay adversaries that resend
    recorded traffic message by message.
    """
    if (
        isinstance(label, tuple)
        and len(label) == 2
        and label[0] == "composite-label"
        and isinstance(label[1], tuple)
    ):
        return label[1]
    return (label,)


class PhaseGraph:
    """The labelled directed graph of one phase.

    At most one edge per ordered pair — the model treats everything a
    processor sends to one target in one phase as a single label.
    """

    __slots__ = ("_edges",)

    def __init__(self, edges: Iterable[LabeledEdge] = ()) -> None:
        self._edges: dict[tuple[ProcessorId, ProcessorId], LabeledEdge] = {}
        for edge in edges:
            self.add(edge)

    def add(self, edge: LabeledEdge) -> None:
        """Insert an edge; a duplicate ``(src, dst)`` pair is an error."""
        pair = (edge.src, edge.dst)
        if pair in self._edges:
            raise ValueError(f"duplicate edge {pair} in one phase")
        self._edges[pair] = edge

    def edges(self) -> Iterator[LabeledEdge]:
        yield from self._edges.values()

    def edges_to(self, pid: ProcessorId) -> list[LabeledEdge]:
        """Edges with target *pid*, in deterministic (source) order."""
        return sorted(
            (e for e in self._edges.values() if e.dst == pid), key=lambda e: e.src
        )

    def edges_from(self, pid: ProcessorId) -> list[LabeledEdge]:
        """Edges with source *pid*, in deterministic (target) order."""
        return sorted(
            (e for e in self._edges.values() if e.src == pid), key=lambda e: e.dst
        )

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseGraph):
            return NotImplemented
        if self._edges.keys() != other._edges.keys():
            return False
        # Labels compare by their canonical text, the digest preimage:
        # 1, True and 1.0 are different messages, though Python calls
        # them equal.
        return all(
            repr(canonical(self._edges[k].label)) == repr(canonical(other._edges[k].label))
            for k in self._edges
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are not dict keys
        return hash(frozenset(self._edges))


@dataclass
class History:
    """A finite sequence of phases, with phase 0 the initial phase.

    ``phases[0]`` holds exactly the transmitter's inedge; ``phases[k]`` for
    ``k >= 1`` holds the messages sent during phase ``k``.
    """

    phases: list[PhaseGraph] = field(default_factory=list)

    @classmethod
    def with_input(cls, transmitter: ProcessorId, value: Value) -> "History":
        """A fresh history containing only the initial phase."""
        phase0 = PhaseGraph(
            [LabeledEdge(src=INPUT_SOURCE, dst=transmitter, label=value)]
        )
        return cls(phases=[phase0])

    # ------------------------------------------------------------- recording

    def append_phase(self, envelopes: Iterable[Envelope]) -> None:
        """Record one executed phase from the envelopes sent during it.

        The model has (at most) one labelled edge per ordered pair and
        phase; when a protocol sends several messages to one destination in
        one phase they are recorded as a single composite label (their
        tuple, tagged) — "the information sent from p to q during the given
        phase".
        """
        grouped: dict[tuple[ProcessorId, ProcessorId], list[object]] = {}
        for envelope in envelopes:
            grouped.setdefault((envelope.src, envelope.dst), []).append(
                envelope.payload
            )
        graph = PhaseGraph(
            LabeledEdge(
                src=src,
                dst=dst,
                label=payloads[0]
                if len(payloads) == 1
                else ("composite-label", tuple(payloads)),
            )
            for (src, dst), payloads in grouped.items()
        )
        self.phases.append(graph)

    # ----------------------------------------------------------- projections

    @property
    def num_phases(self) -> int:
        """Number of recorded phases *excluding* the initial phase."""
        return max(0, len(self.phases) - 1)

    def subhistory(self, k: int) -> "History":
        """The initial segment consisting of phases ``0 .. k``."""
        if k < 0 or k >= len(self.phases):
            raise IndexError(f"no subhistory of length {k}")
        return History(phases=self.phases[: k + 1])

    def individual(self, pid: ProcessorId) -> "IndividualSubhistory":
        """The individual subhistory ``pid·H``: edges with target *pid*."""
        per_phase = tuple(
            tuple((e.src, canonical(e.label)) for e in phase.edges_to(pid))
            for phase in self.phases
        )
        return IndividualSubhistory(pid=pid, per_phase=per_phase)

    def individual_subhistory(self, pid: ProcessorId, k: int) -> "IndividualSubhistory":
        """``pid``'s view of the first ``k`` phases (``pid·H_k``)."""
        return self.subhistory(k).individual(pid)

    def transmitter_value(self) -> Value:
        """The label of the phase-0 inedge."""
        (edge,) = list(self.phases[0].edges())
        return edge.label

    def edges_sent_by(self, pid: ProcessorId) -> list[tuple[int, LabeledEdge]]:
        """All ``(phase, edge)`` pairs with source *pid*."""
        result = []
        for k, phase in enumerate(self.phases):
            for edge in phase.edges_from(pid):
                result.append((k, edge))
        return result


@dataclass(frozen=True, eq=False)
class IndividualSubhistory:
    """Everything processor *pid* has seen: its inedges, phase by phase.

    Two individual subhistories compare equal iff the processor received
    exactly the same labels from the same sources in the same phases — the
    equality the paper's indistinguishability arguments rely on.  Labels are
    stored in canonical form so structurally identical payloads compare
    equal even if built independently, and are compared by their text, as
    :class:`PhaseGraph` compares them.
    """

    pid: ProcessorId
    per_phase: tuple[tuple[tuple[ProcessorId, object], ...], ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndividualSubhistory):
            return NotImplemented
        return self.pid == other.pid and repr(self.per_phase) == repr(other.per_phase)

    def __hash__(self) -> int:
        return hash((self.pid, repr(self.per_phase)))

    @property
    def num_phases(self) -> int:
        return max(0, len(self.per_phase) - 1)

    def received_in_phase(self, k: int) -> tuple[tuple[ProcessorId, object], ...]:
        """The ``(source, canonical label)`` pairs delivered in phase *k*."""
        return self.per_phase[k]

    def total_received(self) -> int:
        """Messages received over the whole subhistory (input edge included)."""
        return sum(len(phase) for phase in self.per_phase)
