"""Interactive consistency: every processor broadcasts, everyone agrees on
the whole vector.

The original problem of Pease–Shostak–Lamport [15], and the setting of the
paper's Section 6 opening (*"there are N processors; each wants to send a
value to everybody else"*).  Byzantine Agreement is its single-source
special case; conversely interactive consistency is ``n`` parallel BA
instances, one per source — which is exactly how this module builds it.

Instance ``i`` uses processor ``i`` as its transmitter.  The library fixes
transmitters at id 0, so instance ``i`` runs under a *rotation*: messages
of instance ``i`` are tagged with the source and carry payloads expressed
in rotated ids (``virtual = (real − i) mod n``).  Each processor ends with
the agreed vector ``[v_0, ..., v_{n-1}]``; condition (i) guarantees all
correct processors hold the same vector, condition (ii) that correct
sources' slots carry their true values.

Cost: ``n ×`` the inner algorithm's messages in the same number of phases
— with the active-set inner algorithm, ``O(n²t + nt²)``, the classic
interactive-consistency bill.  (Algorithm 4 is the paper's answer for the
*relaxed* version of this problem where ``2t`` processors may miss out.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.runner import RunResult
from repro.core.types import INPUT_SOURCE, ProcessorId, Value
from repro.core.validation import ValidationReport
from repro.crypto.signatures import SignatureService


@dataclass(frozen=True, slots=True)
class InstanceMessage:
    """A payload of the BA instance whose source is *source*."""

    source: ProcessorId
    payload: object


class InteractiveConsistencyProcessor(Processor):
    """Runs one rotated copy of the inner protocol per source.

    Each instance signs under its own *virtual* identity in a per-instance
    signature registry (shared across the system through the algorithm
    object): a virtual signature of ``v`` in instance ``s`` can only be
    produced through the instance key held by real processor
    ``(v + s) mod n`` — rotation preserves unforgeability.
    """

    def __init__(
        self,
        copies: Sequence[Processor],
        my_value: Value,
        services: Sequence["SignatureService"],
    ) -> None:
        self.copies = tuple(copies)
        self.my_value = my_value
        self.services = tuple(services)

    def on_bind(self) -> None:
        n = self.ctx.n
        for source, copy in enumerate(self.copies):
            virtual = (self.ctx.pid - source) % n
            service = self.services[source]
            copy.bind(
                replace(
                    self.ctx, pid=virtual, key=service.key_for(virtual), service=service
                )
            )

    # ------------------------------------------------------------ rotation

    def _rotate_in(self, source: ProcessorId, envelope: Envelope) -> Envelope:
        n = self.ctx.n
        src = (
            envelope.src
            if envelope.src == INPUT_SOURCE
            else (envelope.src - source) % n
        )
        return Envelope(
            src=src,
            dst=(envelope.dst - source) % n,
            phase=envelope.phase,
            payload=envelope.payload,
        )

    def _split_inbox(self, inbox: Sequence[Envelope]) -> list[list[Envelope]]:
        n = self.ctx.n
        per_source: list[list[Envelope]] = [[] for _ in range(n)]
        for envelope in inbox:
            if envelope.is_input_edge():
                # our own instance's input edge (we are its transmitter).
                per_source[self.ctx.pid].append(
                    self._rotate_in(
                        self.ctx.pid,
                        Envelope(
                            src=INPUT_SOURCE,
                            dst=self.ctx.pid,
                            phase=envelope.phase,
                            payload=self.my_value,
                        ),
                    )
                )
                continue
            message = envelope.payload
            if not isinstance(message, InstanceMessage):
                continue
            if not 0 <= message.source < n:
                continue
            per_source[message.source].append(
                self._rotate_in(
                    message.source,
                    Envelope(
                        src=envelope.src,
                        dst=envelope.dst,
                        phase=envelope.phase,
                        payload=message.payload,
                    ),
                )
            )
        return per_source

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        n = self.ctx.n
        per_source = self._split_inbox(inbox)
        if phase == 1 and not any(
            e.is_input_edge() for e in inbox
        ):
            # non-transmitters of the global run still transmit in their
            # own instance: synthesise the phase-0 inedge.
            per_source[self.ctx.pid].append(
                Envelope(src=INPUT_SOURCE, dst=0, phase=0, payload=self.my_value)
            )
        outgoing: list[Outgoing] = []
        for source, copy in enumerate(self.copies):
            for dst, payload in copy.on_phase(phase, tuple(per_source[source])):
                outgoing.append(
                    (
                        (dst + source) % n,
                        InstanceMessage(source=source, payload=payload),
                    )
                )
        return outgoing

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        per_source = self._split_inbox(inbox)
        for source, copy in enumerate(self.copies):
            copy.on_final(tuple(per_source[source]))

    # --------------------------------------------------------------- results

    def vector(self) -> tuple[Value, ...]:
        """The agreed vector: instance ``i``'s decision in slot ``i``."""
        return tuple(copy.decision() for copy in self.copies)

    def decision(self) -> Value:
        return self.vector()


class InteractiveConsistency(AgreementAlgorithm):
    """``n`` parallel rotated copies of a BA algorithm.

    *values* holds every processor's private value; the global run's
    ``input_value`` fills slot 0 (the conventional transmitter) and must
    match ``values[0]`` if both are given.
    """

    name = "interactive-consistency"
    authenticated = True
    #: all budgets scale with the wrapped BA algorithm — computed from the
    #: inner instances at runtime.
    phase_bound = "derived"
    message_bound = "derived"
    signature_bound = "derived"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        values: Sequence[Value],
        inner_factory: Callable[[int, int], AgreementAlgorithm],
    ) -> None:
        super().__init__(n, t)
        if len(values) != n:
            raise ConfigurationError(
                f"need one value per processor: got {len(values)} for n={n}"
            )
        self.values = tuple(values)
        self._inner = [inner_factory(n, t) for _ in range(n)]
        #: per-instance signature registries, shared by every processor of
        #: this algorithm instance (construct a fresh algorithm per run).
        self._services = SignatureService.fresh_registries(n)
        self.name = f"interactive-{self._inner[0].name}"
        self.authenticated = self._inner[0].authenticated
        if len({inner.num_phases() for inner in self._inner}) != 1:
            raise ConfigurationError("inner algorithms disagree on phase count")

    def num_phases(self) -> int:
        return self._inner[0].num_phases()

    def make_processor(self, pid: ProcessorId) -> Processor:
        copies = [inner.make_processor((pid - s) % self.n) for s, inner in enumerate(self._inner)]
        return InteractiveConsistencyProcessor(copies, self.values[pid], self._services)

    def upper_bound_messages(self) -> int | None:
        inner_bound = self._inner[0].upper_bound_messages()
        return None if inner_bound is None else self.n * inner_bound

    def conditions(
        self, result: RunResult, excused: frozenset[int] = frozenset()
    ) -> ValidationReport:
        """The [15] conditions on the correct processors not in *excused*:
        they hold the same vector, and each one's slot in it is its value."""
        judged = sorted(result.correct - excused)
        vectors = {
            pid: result.processors[pid].vector()  # type: ignore[attr-defined]
            for pid in judged
        }
        violations: list[str] = []
        distinct = set(vectors.values())
        if len(distinct) > 1:
            violations.append(f"correct processors hold {len(distinct)} different vectors")
        wrong = [
            f"{pid} holds {vector[source]!r} for correct source "
            f"{source} (true value {self.values[source]!r})"
            for source in judged
            for pid, vector in sorted(vectors.items())
            if vector[source] != self.values[source]
        ]
        return ValidationReport(
            agreement=len(distinct) <= 1,
            validity=not wrong,
            all_decided=True,
            violations=violations + wrong,
            excused=frozenset(excused) & result.correct,
        )
