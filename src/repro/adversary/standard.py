"""Stock adversary strategies.

The most useful adversaries in practice are *deviations from correctness*:
a faulty processor that mostly follows the algorithm but crashes, stays
silent towards some peers, or feeds different inputs to different parties.
:class:`SimulatingAdversary` makes these easy to express — it hosts a real
:class:`~repro.core.protocol.Processor` instance for every faulty id and
lets subclasses intercept what that instance receives and sends.

This is exactly how the paper's lower-bound proofs construct their faulty
histories ("behaves like a correct processor except ..."), so the proof
adversaries in :mod:`repro.adversary.lowerbound` build on this module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.adversary.base import Adversary, AdversaryEnvironment, FaultySend, PhaseView
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import Processor
from repro.core.types import ProcessorId, Value


def with_input(inbox: Sequence[Envelope], value: Value) -> tuple[Envelope, ...]:
    """*inbox* with the phase-0 input edge's payload replaced by *value*:
    what a simulated transmitter sees when it runs on a doctored input."""
    return tuple(
        replace(e, payload=value) if e.is_input_edge() else e for e in inbox
    )


class SimulatingAdversary(Adversary):
    """Drives each faulty processor with a real protocol instance.

    Subclasses customise behaviour through two hooks:

    * :meth:`filter_inbox` — tamper with what the simulated processor sees
      (drop, reorder or rewrite incoming envelopes, including the phase-0
      input edge when the transmitter is faulty);
    * :meth:`transform_outbox` — tamper with what it sends (drop messages,
      change destinations or payloads, add extra traffic).

    With both hooks left as identities the faulty processors behave exactly
    like correct ones — a useful property for tests (a "faulty" history
    that is behaviourally fault-free must still reach agreement).
    """

    def __init__(self, faulty: Iterable[ProcessorId]) -> None:
        super().__init__(faulty)
        self._simulated: dict[ProcessorId, Processor] = {}

    def on_bind(self) -> None:
        env = self.env
        assert env is not None
        for pid in sorted(self.faulty):
            self._simulated[pid] = env.spawn(pid)

    def simulated(self, pid: ProcessorId) -> Processor:
        """The protocol instance driving faulty processor *pid*."""
        return self._simulated[pid]

    # ----------------------------------------------------------------- hooks

    def filter_inbox(
        self, pid: ProcessorId, phase: int, inbox: Sequence[Envelope]
    ) -> Sequence[Envelope]:
        """What faulty *pid*'s simulated protocol receives this phase."""
        return inbox

    def transform_outbox(
        self, pid: ProcessorId, phase: int, outgoing: list[Outgoing]
    ) -> list[Outgoing]:
        """What faulty *pid* actually sends this phase."""
        return outgoing

    # ------------------------------------------------------------- execution

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        sends: list[FaultySend] = []
        for pid in sorted(self.faulty):
            inbox = self.filter_inbox(pid, view.phase, view.inbox(pid))
            outgoing = list(self._simulated[pid].on_phase(view.phase, tuple(inbox)))
            for dst, payload in self.transform_outbox(pid, view.phase, outgoing):
                sends.append((pid, dst, payload))
        return sends


class CrashAdversary(SimulatingAdversary):
    """Fail-stop faults: behave correctly, then crash and stay silent.

    *crash_phases* maps each faulty id to the first phase in which it no
    longer sends (a processor crashing at phase 1 never says anything).
    """

    def __init__(self, crash_phases: Mapping[ProcessorId, int]) -> None:
        super().__init__(crash_phases.keys())
        self.crash_phases = dict(crash_phases)

    def transform_outbox(
        self, pid: ProcessorId, phase: int, outgoing: list[Outgoing]
    ) -> list[Outgoing]:
        if phase >= self.crash_phases[pid]:
            return []
        return outgoing


class SilentAdversary(CrashAdversary):
    """Faulty processors that never send anything at all."""

    def __init__(self, faulty: Iterable[ProcessorId]) -> None:
        super().__init__({pid: 1 for pid in faulty})


class SelectiveSilenceAdversary(SimulatingAdversary):
    """Behave correctly except never send to the processors in *muted*.

    This is the primitive Theorem 2's proof isolates: *"the proof only uses
    the ability of a faulty processor to send to some and not to others."*
    """

    def __init__(
        self, faulty: Iterable[ProcessorId], muted: Iterable[ProcessorId]
    ) -> None:
        super().__init__(faulty)
        self.muted = frozenset(muted)

    def transform_outbox(
        self, pid: ProcessorId, phase: int, outgoing: list[Outgoing]
    ) -> list[Outgoing]:
        return [(dst, payload) for dst, payload in outgoing if dst not in self.muted]


class EquivocatingTransmitter(SimulatingAdversary):
    """A faulty transmitter that runs the real protocol once per value.

    *value_for* maps every other processor id to the value the transmitter
    should appear to have sent it.  One simulated transmitter instance runs
    per distinct value (all signing with the real key — colluding faulty
    processors may sign anything), and each destination receives the sends
    of the instance matching its assigned value.
    """

    def __init__(
        self,
        transmitter: ProcessorId,
        value_for: Mapping[ProcessorId, Value],
    ) -> None:
        super().__init__([transmitter])
        self.transmitter_id = transmitter
        self.value_for = dict(value_for)
        self._instances: dict[Value, Processor] = {}

    def on_bind(self) -> None:
        env = self.env
        assert env is not None
        for value in sorted(set(self.value_for.values()), key=repr):
            self._instances[value] = env.spawn(self.transmitter_id)

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        sends: list[FaultySend] = []
        inbox = view.inbox(self.transmitter_id)
        for value, processor in self._instances.items():
            for dst, payload in processor.on_phase(view.phase, with_input(inbox, value)):
                if self.value_for.get(dst) == value:
                    sends.append((self.transmitter_id, dst, payload))
        return sends


class ComposedAdversary(Adversary):
    """Several independent adversaries acting as one faulty coalition.

    Real outages are heterogeneous — a lying coordinator here, a crashed
    node there, a flaky NIC somewhere else.  Composition runs each part
    with its own strategy; the faulty sets must be disjoint (one master
    per corrupted processor).
    """

    def __init__(self, parts: Sequence[Adversary]) -> None:
        union = frozenset().union(*(part.faulty for part in parts)) if parts else frozenset()
        if sum(len(part.faulty) for part in parts) != len(union):
            raise ValueError("composed adversaries must corrupt disjoint sets")
        super().__init__(union)
        self.parts = list(parts)

    def bind(self, env: AdversaryEnvironment) -> None:
        super().bind(env)
        for part in self.parts:
            part.bind(env)

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        sends: list[FaultySend] = []
        for part in self.parts:
            sends.extend(part.on_phase(view))
        return sends


class RandomizedAdversary(SimulatingAdversary):
    """Seeded chaos: each faulty processor drops each message it hears
    (never its input edge) and each message it sends with probability 0.3,
    and with probability 0.1 per phase sends garbage to a random processor.

    Deterministic given the seed — used by the property-based test suite to
    fuzz every algorithm with reproducible Byzantine behaviour.
    """

    def __init__(self, faulty: Iterable[ProcessorId], seed: int) -> None:
        super().__init__(faulty)
        import random

        self._rng = random.Random(seed)

    def filter_inbox(
        self, pid: ProcessorId, phase: int, inbox: Sequence[Envelope]
    ) -> Sequence[Envelope]:
        return [
            e
            for e in inbox
            if e.is_input_edge() or self._rng.random() >= 0.3
        ]

    def transform_outbox(
        self, pid: ProcessorId, phase: int, outgoing: list[Outgoing]
    ) -> list[Outgoing]:
        env = self.env
        assert env is not None
        kept = [
            (dst, payload)
            for dst, payload in outgoing
            if self._rng.random() >= 0.3
        ]
        if self._rng.random() < 0.1:
            dst = self._rng.randrange(env.n)
            if dst != pid:
                kept.append((dst, ("garbage", phase, self._rng.random())))
        return kept


class ScriptedAdversary(Adversary):
    """Fully scripted faults: a callback chooses every faulty send.

    *script* is called once per phase with the
    :class:`~repro.adversary.base.PhaseView` and the bound environment; it
    returns the complete list of faulty sends for that phase.  Useful for
    one-off attack constructions in tests.
    """

    def __init__(
        self,
        faulty: Iterable[ProcessorId],
        script: Callable[[PhaseView, object], list[FaultySend]],
    ) -> None:
        super().__init__(faulty)
        self.script = script

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        return self.script(view, self.env)


class GarbageAdversary(Adversary):
    """Spams every correct processor with unverifiable junk each phase.

    The payloads parse as none of the algorithms' message types (or carry
    forged signatures), so a robust implementation must ignore them all;
    runs under this adversary check input validation, not agreement logic.
    """

    def __init__(self, faulty: Iterable[ProcessorId], *, forge: bool = True) -> None:
        super().__init__(faulty)
        self.forge = forge

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        env = self.env
        assert env is not None
        sends: list[FaultySend] = []
        for pid in sorted(self.faulty):
            for dst in range(env.n):
                if dst == pid:
                    continue
                payload: object = ("garbage", view.phase, pid)
                if self.forge:
                    victim = (dst + 1) % env.n
                    payload = env.service.forge(victim, payload)
                sends.append((pid, dst, payload))
        return sends
