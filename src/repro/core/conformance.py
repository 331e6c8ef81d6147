"""The paper's correctness predicate, executable.

Section 2: *"a processor p is said to be correct at phase k of history H
if each edge from p to a processor q in phase k has a label as specified
by the correctness rule for p when it is applied to the individual
subhistory of H for p consisting of the previous k − 1 phases.  A
processor p is correct in history H if it is correct at each phase."*

This module decides that predicate for a recorded run: it replays each
processor's protocol (its correctness rule ``R_p``) against its individual
subhistory and compares, phase by phase, what the rule *specifies* with
what the history *records*.  Three uses:

* a strong self-check — the runner's correct processors must conform at
  every phase (tested);
* fault localisation — for faulty processors the report names the first
  phase at which behaviour deviated and how;
* the paper's subtlety made concrete — a "faulty" processor driven by an
  unmodified :class:`~repro.adversary.standard.SimulatingAdversary` is
  *correct in the history* even though the adversary controlled it:
  correctness is a property of behaviour, not of allegiance.

The replay signs through a :meth:`~repro.crypto.signatures.SignatureService.clone`
of the run's registry: recorded signatures verify (the issued set is
copied) and replay-produced signatures are deterministic, so a conforming
processor reproduces its recorded labels *bit for bit*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.history import History, edge_payloads
from repro.core.message import Envelope, canonical
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult
from repro.core.types import INPUT_SOURCE, ProcessorId


@dataclass
class PhaseDeviation:
    """One phase at which recorded behaviour differs from the rule."""

    phase: int
    missing: list[str] = field(default_factory=list)  # rule said, history lacks
    extra: list[str] = field(default_factory=list)  # history has, rule did not say

    def describe(self) -> str:
        parts = []
        if self.missing:
            parts.append(f"missing {len(self.missing)} specified sends")
        if self.extra:
            parts.append(f"{len(self.extra)} unspecified sends")
        return f"phase {self.phase}: " + ", ".join(parts)


@dataclass
class ProcessorConformance:
    """Verdict for one processor over a whole history."""

    pid: ProcessorId
    deviations: list[PhaseDeviation]

    @property
    def correct_in_history(self) -> bool:
        """The paper's "correct in H": correct at every phase."""
        return not self.deviations

    @property
    def first_deviation_phase(self) -> int | None:
        return self.deviations[0].phase if self.deviations else None


def _sends_of_edge_list(edges) -> list[tuple[ProcessorId, str]]:
    sends: list[tuple[ProcessorId, str]] = []
    for edge in edges:
        for payload in edge_payloads(edge.label):
            sends.append((edge.dst, repr(canonical(payload))))
    return sends


def _inbox_for(history: History, pid: ProcessorId, phase: int) -> list[Envelope]:
    """Reconstruct the envelopes delivered to *pid* at the start of *phase*
    (i.e. the edges to *pid* in phase ``phase − 1``), source-ordered as the
    runner delivers them."""
    if phase - 1 >= len(history.phases):
        return []
    envelopes: list[Envelope] = []
    for edge in history.phases[phase - 1].edges_to(pid):
        for payload in edge_payloads(edge.label):
            envelopes.append(
                Envelope(src=edge.src, dst=pid, phase=phase - 1, payload=payload)
            )
    return envelopes


def conformance_of(
    result: RunResult, algorithm: AgreementAlgorithm, pid: ProcessorId
) -> ProcessorConformance:
    """Decide the Section 2 predicate for one processor of a finished run."""
    if result.service is None:
        raise ConfigurationError("the run did not retain its signature service")
    if result.history.num_phases == 0:
        raise ConfigurationError("the run did not record its history")

    service = result.service.clone()
    # Coin-flipping protocols are deterministic given their coin stream:
    # rebuild the run's CoinSource from the recorded seed so the replayed
    # rule specifies the exact same flips as the history.
    processor = algorithm.spawn(
        pid, service.key_for(pid), service, algorithm.coin_source(result.coin_seed)
    )

    deviations: list[PhaseDeviation] = []
    for phase in range(1, result.history.num_phases + 1):
        inbox = _inbox_for(result.history, pid, phase)
        try:
            specified = [
                (dst, repr(canonical(payload)))
                for dst, payload in processor.on_phase(phase, tuple(inbox))
            ]
        except Exception as error:  # the rule itself choked on the history
            deviations.append(
                PhaseDeviation(phase=phase, missing=[f"rule raised: {error!r}"])
            )
            break
        recorded = _sends_of_edge_list(
            result.history.phases[phase].edges_from(pid)
        )
        specified_sorted = sorted(specified)
        recorded_sorted = sorted(recorded)
        if specified_sorted != recorded_sorted:
            missing = _multiset_difference(specified_sorted, recorded_sorted)
            extra = _multiset_difference(recorded_sorted, specified_sorted)
            deviations.append(
                PhaseDeviation(
                    phase=phase,
                    missing=[f"{dst}: {text[:48]}" for dst, text in missing],
                    extra=[f"{dst}: {text[:48]}" for dst, text in extra],
                )
            )
    return ProcessorConformance(pid=pid, deviations=deviations)


def _multiset_difference(left: Sequence, right: Sequence) -> list:
    remainder = list(right)
    out = []
    for item in left:
        if item in remainder:
            remainder.remove(item)
        else:
            out.append(item)
    return out


def check_conformance(
    result: RunResult, algorithm: AgreementAlgorithm
) -> dict[ProcessorId, ProcessorConformance]:
    """The predicate for every processor of the run.

    For the runner's correct processors this must report conformance at
    every phase (anything else is a simulator bug); for the faulty ones it
    localises the behavioural deviations — which may be none at all, when
    the adversary chose to behave.
    """
    return {
        pid: conformance_of(result, algorithm, pid) for pid in range(result.n)
    }


def behaviourally_faulty(
    verdicts: Mapping[ProcessorId, ProcessorConformance],
) -> frozenset[ProcessorId]:
    """The processors that are *incorrect in the history* — the set the
    paper's ``t``-faulty definition actually constrains (always a subset
    of the adversary's corrupted set) — from :func:`check_conformance`'s
    verdicts."""
    return frozenset(
        pid for pid, verdict in verdicts.items() if not verdict.correct_in_history
    )
