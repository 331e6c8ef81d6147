"""Deliberately under-communicating strawmen for the executable lower bounds.

The lower-bound theorems are *impossibility* results: any algorithm that
beats the signature/message budgets can be broken by a concrete adversary.
To make the proofs executable we need something to break — these strawmen
communicate less than the bounds allow, and the experiments in
:mod:`repro.bounds` construct the proofs' adversaries against them and
exhibit the resulting agreement violations.

They are intentionally *not* exported through the top-level API's algorithm
registry of correct algorithms.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algorithms.base import DEFAULT_VALUE, input_value_from
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain


class _TrustingReceiver(Processor):
    """Decides on the first signed transmitter value it sees; never relays."""

    def __init__(self, default: Value) -> None:
        self.default = default
        self.received: Value | None = None

    def _absorb(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            chain = envelope.payload
            if (
                self.received is None
                and isinstance(chain, SignatureChain)
                and len(chain) == 1
                and chain.signatures[0].signer == self.ctx.transmitter
                and chain.verify(self.ctx.service)
            ):
                self.received = chain.value

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        self._absorb(inbox)
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        self._absorb(inbox)

    def decision(self) -> Value:
        return self.received if self.received is not None else self.default


class _BroadcastingTransmitter(Processor):
    """Signs its value once and sends it to everyone; nothing more."""

    def __init__(self) -> None:
        self.value: Value | None = None

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if phase != 1:
            return []
        self.value = input_value_from(inbox)
        chain = SignatureChain.initial(self.value, self.ctx.key, self.ctx.service)
        return [(q, chain) for q in self.ctx.others()]

    def decision(self) -> Value | None:
        return self.value


class UnderSigningBroadcast(AgreementAlgorithm):
    """One-phase "agreement": the transmitter broadcasts, everyone believes.

    Cost: ``n − 1`` messages and ``n − 1`` signatures — every processor
    exchanges signatures with only the transmitter (``|A(p)| = 1 ≤ t``), so
    Theorem 1's splitting adversary breaks it for any ``t ≥ 1``; and each
    receiver gets a single message, below Theorem 2's ``⌈1 + t/2⌉``
    per-``B``-member requirement, so the Theorem 2 switch breaks it for any
    ``t ≥ 2``.  It *does* reach agreement in fault-free histories, which is
    exactly why the lower-bound proofs have to work from faulty ones.
    """

    name = "strawman-undersigning"
    authenticated = True
    phase_bound = "1"
    message_bound = "n - 1"
    signature_bound = "n - 1"

    def __init__(self, n: int, t: int, *, default: Value = DEFAULT_VALUE) -> None:
        super().__init__(n, t)
        self.default = default

    def num_phases(self) -> int:
        return 1

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid == self.transmitter:
            return _BroadcastingTransmitter()
        return _TrustingReceiver(self.default)


class EchoBroadcast(AgreementAlgorithm):
    """Two-phase strawman: broadcast plus one round of unverified echoes.

    Receivers echo the transmitter's signed value to everyone and decide by
    simple majority of echoes.  It exchanges plenty of *messages*
    (``Θ(n²)``) but every processor still only ever *verifies* the
    transmitter's signature — each pair exchanges chains whose only
    signature is the transmitter's plus the echoer's own, so the per-
    processor signature exchange stays small and Theorem 1's adversary can
    still split views whenever ``t ≥ 3`` (it must corrupt the transmitter
    and the... full analysis in ``tests/bounds``).  Included mainly as a
    second data point for the experiments: beating the signature bound is
    not about message volume.
    """

    name = "strawman-echo"
    authenticated = True
    phase_bound = "2"
    # The transmitter's n - 1 sends plus n - 1 receivers echoing to n - 1 peers.
    message_bound = "n * (n - 1)"
    signature_bound = "unstated"

    def __init__(self, n: int, t: int, *, default: Value = DEFAULT_VALUE) -> None:
        super().__init__(n, t)
        self.default = default

    def num_phases(self) -> int:
        return 2

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid == self.transmitter:
            return _BroadcastingTransmitter()
        return _EchoReceiver(self.default)


class _EchoReceiver(Processor):
    """Echoes the transmitter's chain, decides by majority of echoes."""

    def __init__(self, default: Value) -> None:
        self.default = default
        self.direct: SignatureChain | None = None
        self.echo_values: list[Value] = []

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if phase == 2:
            for envelope in inbox:
                chain = envelope.payload
                if (
                    isinstance(chain, SignatureChain)
                    and len(chain) == 1
                    and chain.signatures[0].signer == self.ctx.transmitter
                    and chain.verify(self.ctx.service)
                ):
                    self.direct = chain
            if self.direct is not None:
                echo = self.direct.extend(self.ctx.key, self.ctx.service)
                return [(q, echo) for q in self.ctx.others()]
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            chain = envelope.payload
            if (
                isinstance(chain, SignatureChain)
                and len(chain) == 2
                and chain.signatures[0].signer == self.ctx.transmitter
                and chain.signatures[1].signer == envelope.src
                and chain.verify(self.ctx.service)
            ):
                self.echo_values.append(chain.value)

    def decision(self) -> Value:
        values = list(self.echo_values)
        if self.direct is not None:
            values.append(self.direct.value)
        if not values:
            return self.default
        counts: dict[Value, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        winners = sorted((v for v, c in counts.items() if c == best), key=repr)
        return winners[0] if len(winners) == 1 else self.default
