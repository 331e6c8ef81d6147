"""AdversaryScript: a fully-determined, replayable faulty-coalition plan.

A script is plain data — the faulty set, an ordered tuple of
:mod:`~repro.fuzz.mutations` primitives and an optional ``stop_phase``
(after which the coalition goes silent, the shrinker's favourite lever).
:class:`ScriptAdversary` executes it on top of the standard
:class:`~repro.adversary.standard.SimulatingAdversary` machinery, so a
script with no mutations is behaviourally fault-free, and every deviation
is attributable to a named primitive.

Scripts pickle (for the sweep worker pool) and round-trip through JSON
(for the persisted counterexample corpus).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.adversary.base import FaultySend, PhaseView
from repro.adversary.standard import SimulatingAdversary, with_input
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import Processor
from repro.core.types import ProcessorId
from repro.crypto.chains import SignatureChain, chain_body
from repro.fuzz.mutations import (
    DropInbound,
    DropOutbound,
    Equivocate,
    ForgeAttempt,
    GarbleOutbound,
    Mutation,
    ReplayStale,
    SelectiveSilence,
    mutation_from_json,
)

SCRIPT_SCHEMA = "repro-fuzz-script/1"


@dataclass(frozen=True)
class AdversaryScript:
    """Everything a generated adversary will do, as picklable data."""

    faulty: tuple[ProcessorId, ...]
    mutations: tuple[Mutation, ...] = ()
    #: first phase in which the whole coalition stays silent (``None`` =
    #: never stops).  Mirrors :class:`~repro.adversary.standard.CrashAdversary`.
    stop_phase: int | None = None

    def build(self) -> "ScriptAdversary":
        """The executable adversary for this script."""
        return ScriptAdversary(self)

    def mutations_for(self, pid: ProcessorId) -> tuple[Mutation, ...]:
        return tuple(m for m in self.mutations if m.pid == pid)

    @property
    def size(self) -> tuple[int, int, int]:
        """Shrink-ordering key: (faulty count, mutation count, stop phase)."""
        stop = self.stop_phase if self.stop_phase is not None else 1 << 20
        return (len(self.faulty), len(self.mutations), stop)

    def describe(self) -> str:
        parts = [m.describe() for m in self.mutations]
        stop = f" stop@{self.stop_phase}" if self.stop_phase is not None else ""
        return f"faulty={list(self.faulty)}{stop} [{', '.join(parts) or 'no mutations'}]"

    # ------------------------------------------------------------------ JSON

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SCRIPT_SCHEMA,
            "faulty": list(self.faulty),
            "stop_phase": self.stop_phase,
            "mutations": [m.to_json_dict() for m in self.mutations],
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "AdversaryScript":
        schema = data.get("schema", SCRIPT_SCHEMA)
        if schema != SCRIPT_SCHEMA:
            raise ValueError(f"unsupported script schema {schema!r}")
        return cls(
            faulty=tuple(data["faulty"]),
            mutations=tuple(mutation_from_json(m) for m in data["mutations"]),
            stop_phase=data.get("stop_phase"),
        )


class ScriptAdversary(SimulatingAdversary):
    """Executes an :class:`AdversaryScript`.

    Each faulty processor is driven by a real simulated protocol instance;
    the script's primitives deviate around it.  A simulated instance that
    raises on its (mutated) view is retired — from then on that processor
    sends nothing through its protocol, exactly what a wedged faulty node
    looks like from outside; injection primitives keep applying.
    :attr:`retired` counts those retirements.
    """

    def __init__(self, script: AdversaryScript) -> None:
        super().__init__(script.faulty)
        self.script = script
        #: pid -> phase -> payloads delivered to it (for ReplayStale).
        self._heard: dict[ProcessorId, dict[int, tuple[Any, ...]]] = {}
        #: simulated instances that raised; they stay silent afterwards.
        self._wedged: set[ProcessorId] = set()
        self._alt: dict[ProcessorId, Processor] = {}
        self._alt_wedged: set[ProcessorId] = set()

    @property
    def retired(self) -> int:
        """Simulated instances retired for raising, equivocation twins included."""
        return len(self._wedged) + len(self._alt_wedged)

    # ---------------------------------------------------------------- set-up

    def on_bind(self) -> None:
        super().on_bind()
        env = self.env
        assert env is not None
        for mutation in self.script.mutations:
            if (
                isinstance(mutation, Equivocate)
                and mutation.pid == env.transmitter
                and mutation.pid in self.faulty
                and mutation.pid not in self._alt
            ):
                self._alt[mutation.pid] = env.spawn(mutation.pid)

    # ------------------------------------------------------------- execution

    def _step(self, processor: Processor, phase: int, inbox: Sequence[Envelope]) -> list[Outgoing]:
        return list(processor.on_phase(phase, tuple(inbox)))

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        script = self.script
        if script.stop_phase is not None and view.phase >= script.stop_phase:
            # Still record what we hear (a crashed node's mailbox fills up)
            # so ReplayStale windows before the stop stay meaningful.
            for pid in sorted(self.faulty):
                self._record_heard(pid, view.phase, view.inbox(pid))
            return []
        sends: list[FaultySend] = []
        for pid in sorted(self.faulty):
            raw = list(view.inbox(pid))
            self._record_heard(pid, view.phase, raw)
            mutations = script.mutations_for(pid)
            inbox = self._mutate_inbox(pid, view.phase, raw, mutations)
            outgoing = self._protocol_sends(pid, view.phase, inbox, mutations)
            outgoing = self._mutate_outbox(pid, view.phase, outgoing, mutations)
            outgoing.extend(self._injections(pid, view.phase, mutations))
            for dst, payload in outgoing:
                if dst != pid and 0 <= dst < self.env.n:  # type: ignore[union-attr]
                    sends.append((pid, dst, payload))
        return sends

    # ------------------------------------------------------------ sub-steps

    def _record_heard(
        self, pid: ProcessorId, phase: int, inbox: Sequence[Envelope]
    ) -> None:
        self._heard.setdefault(pid, {})[phase] = tuple(
            e.payload for e in inbox if not e.is_input_edge()
        )

    def _mutate_inbox(
        self,
        pid: ProcessorId,
        phase: int,
        inbox: list[Envelope],
        mutations: Sequence[Mutation],
    ) -> list[Envelope]:
        for mutation in mutations:
            if isinstance(mutation, DropInbound) and mutation.active(phase):
                # The input edge is exempt: a "correct except ..." processor
                # always knows its own private input.  Without this a deaf
                # transmitter simulation would run input-less and sign a
                # None-valued chain — a payload no real adversary strategy
                # in the paper produces.  Withholding or altering the input
                # is expressed by ``stop_phase`` / :class:`Equivocate`.
                inbox = [
                    e
                    for i, e in enumerate(inbox)
                    if e.is_input_edge() or mutation.keeps(i)
                ]
        return inbox

    def _protocol_sends(
        self,
        pid: ProcessorId,
        phase: int,
        inbox: list[Envelope],
        mutations: Sequence[Mutation],
    ) -> list[Outgoing]:
        outgoing: list[Outgoing] = []
        if pid not in self._wedged:
            try:
                outgoing = self._step(self.simulated(pid), phase, inbox)
            except Exception:
                self._wedged.add(pid)
                outgoing = []
        alt = self._alt.get(pid)
        if alt is None:
            return outgoing
        # The equivocating twin runs every phase (its state must advance)
        # on the doctored input edge.
        alt_out: list[Outgoing] = []
        if pid not in self._alt_wedged:
            equivocate = next(m for m in mutations if isinstance(m, Equivocate))
            try:
                alt_out = self._step(alt, phase, with_input(inbox, equivocate.alt_value))
            except Exception:
                self._alt_wedged.add(pid)
                alt_out = []
            if equivocate.active(phase):
                outgoing = self._merge_equivocation(outgoing, alt_out, equivocate)
        return outgoing

    @staticmethod
    def _merge_equivocation(
        main: list[Outgoing], alt: list[Outgoing], mutation: Equivocate
    ) -> list[Outgoing]:
        merged = [(dst, p) for dst, p in main if not mutation.takes_alt(dst)]
        merged.extend((dst, p) for dst, p in alt if mutation.takes_alt(dst))
        merged.sort(key=lambda item: item[0])
        return merged

    def _mutate_outbox(
        self,
        pid: ProcessorId,
        phase: int,
        outgoing: list[Outgoing],
        mutations: Sequence[Mutation],
    ) -> list[Outgoing]:
        for mutation in mutations:
            if not mutation.active(phase):
                continue
            if isinstance(mutation, SelectiveSilence):
                outgoing = [
                    (dst, p) for dst, p in outgoing if dst not in mutation.targets
                ]
            elif isinstance(mutation, DropOutbound):
                outgoing = [
                    (dst, p)
                    for i, (dst, p) in enumerate(outgoing)
                    if mutation.keeps(i)
                ]
            elif isinstance(mutation, GarbleOutbound):
                outgoing = [
                    (dst, mutation.junk(phase)) if mutation.garbles(i) else (dst, p)
                    for i, (dst, p) in enumerate(outgoing)
                ]
        return outgoing

    def _injections(
        self, pid: ProcessorId, phase: int, mutations: Sequence[Mutation]
    ) -> Iterator[Outgoing]:
        env = self.env
        assert env is not None
        for mutation in mutations:
            if not mutation.active(phase):
                continue
            if isinstance(mutation, ForgeAttempt):
                fake = env.service.forge(
                    mutation.victim, chain_body(mutation.value, ())
                )
                yield (
                    mutation.dst,
                    SignatureChain(value=mutation.value, signatures=(fake,)),
                )
            elif isinstance(mutation, ReplayStale):
                stale = self._heard.get(pid, {}).get(phase - mutation.lag, ())
                for payload in stale[: mutation.limit]:
                    yield (mutation.dst, payload)
