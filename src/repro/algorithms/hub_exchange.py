"""The two-phase hub-relay exchange of Section 6.

Before presenting Algorithm 4, the paper describes the straightforward
solution to the mutual-exchange problem:

    *"Select t + 1 processors; they will play the role of relay
    processors.  At phase 1 each processor signs and sends its value to
    every relay processor.  A relay processor combines all the incoming
    messages and its own value to one long message and sends it to every
    nonrelay processor at phase 2."*

Cost: ``(N − 1)(t + 1) + (N − t − 1)(t + 1) = Θ(Nt)`` messages — and the
paper notes ``Ω(Nt)`` is also a lower bound *"in case each correct
processor is required to receive the value of every other correct
processor"*.  Algorithm 4 undercuts it to ``O(N^{1.5})`` by weakening the
guarantee to the ``N − 2t`` non-isolated processors; this module exists so
that comparison (experiment E8) is measured rather than computed.

Guarantee here is the strong one: with at least one correct relay (there
are ``t + 1``), every correct processor ends up holding the verified
signed value of **every** correct processor.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.runner import RunResult
from repro.core.types import ProcessorId, Value
from repro.core.validation import ValidationReport
from repro.crypto.chains import SignatureChain


class HubProcessor(Processor):
    """One participant; ids ``0 .. t`` double as relays."""

    def __init__(self, my_value: Value, relays: frozenset[ProcessorId]) -> None:
        self.my_value = my_value
        self.relays = relays
        #: verified values gathered, by signer.
        self.gathered: dict[ProcessorId, set[Value]] = {}
        self._received_chains: dict[ProcessorId, SignatureChain] = {}

    @property
    def is_relay(self) -> bool:
        return self.ctx.pid in self.relays

    def _note(self, chain: SignatureChain) -> None:
        self.gathered.setdefault(chain.signatures[0].signer, set()).add(chain.value)

    def _absorb_signed_values(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            chain = envelope.payload
            if (
                isinstance(chain, SignatureChain)
                and len(chain) == 1
                and chain.signatures[0].signer == envelope.src
                and chain.verify(self.ctx.service)
            ):
                self._received_chains[envelope.src] = chain
                self._note(chain)

    def _absorb_bundles(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            if envelope.src not in self.relays:
                continue
            bundle = envelope.payload
            if not isinstance(bundle, tuple):
                continue
            for chain in bundle:
                if (
                    isinstance(chain, SignatureChain)
                    and len(chain) == 1
                    and chain.verify(self.ctx.service)
                ):
                    self._note(chain)

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if phase == 1:
            chain = SignatureChain.initial(self.my_value, self.ctx.key, self.ctx.service)
            self._received_chains[self.ctx.pid] = chain
            self._note(chain)
            return [(relay, chain) for relay in sorted(self.relays) if relay != self.ctx.pid]
        if phase == 2 and self.is_relay:
            self._absorb_signed_values(inbox)
            bundle = tuple(
                self._received_chains[pid] for pid in sorted(self._received_chains)
            )
            return [
                (q, bundle)
                for q in range(self.ctx.n)
                if q not in self.relays and q != self.ctx.pid
            ]
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        if self.is_relay:
            # relays already hold everything from phase 1... except other
            # relays' bundles never reach them; they absorb direct values.
            self._absorb_signed_values(inbox)
        else:
            self._absorb_bundles(inbox)

    def knows_value_of(self, pid: ProcessorId) -> bool:
        return pid in self.gathered

    def decision(self) -> Value:
        return self.my_value


class HubExchange(AgreementAlgorithm):
    """Section 6's straw solution: 2 phases, ``Θ(Nt)`` messages, but the
    strong every-correct-learns-every-correct guarantee."""

    name = "hub-exchange"
    authenticated = True
    phase_bound = "2"
    #: the paper's ``(N − 1)(t + 1) + (N − t − 1)(t + 1)``.
    message_bound = "(n - 1) * (t + 1) + (n - t - 1) * (t + 1)"
    signature_bound = "unstated"

    def __init__(self, n: int, t: int, values: Mapping[ProcessorId, Value]) -> None:
        super().__init__(n, t)
        if n < t + 2:
            raise ConfigurationError(
                f"hub exchange needs n >= t + 2 (got n={n}, t={t})"
            )
        self.values = dict(values)
        missing = [pid for pid in range(n) if pid not in self.values]
        if missing:
            raise ConfigurationError(f"no value assigned to processors {missing}")
        self.relays = frozenset(range(t + 1))

    def num_phases(self) -> int:
        return 2

    def make_processor(self, pid: ProcessorId) -> Processor:
        return HubProcessor(self.values[pid], self.relays)

    def conditions(
        self, result: RunResult, excused: frozenset[int] = frozenset()
    ) -> ValidationReport:
        """The strong postcondition: every correct processor not in
        *excused* gathered the true signed value of every such processor."""
        judged = sorted(result.correct - excused)
        violations: list[str] = []
        # relays only guarantee delivery to non-relays plus themselves; a
        # correct relay knows all, a non-relay learns via any correct relay.
        for receiver in judged:
            processor = result.processors[receiver]
            for source in judged:
                if not processor.knows_value_of(source):
                    violations.append(f"{receiver} missed the value of {source}")
                elif self.values[source] not in processor.gathered[source]:
                    violations.append(f"{receiver} holds a wrong value for {source}")
        return ValidationReport(
            agreement=not violations,
            validity=True,
            all_decided=True,
            violations=violations,
            excused=frozenset(excused) & result.correct,
        )
