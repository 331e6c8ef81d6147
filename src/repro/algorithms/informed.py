"""Algorithm 2 plus one informing phase — the paper's small-n remedy.

Section 5 notes that when ``n`` is smaller than ``α`` (so Algorithm 5's
grid machinery cannot even be set up), *"one can extend the first
Algorithm by 1 phase and (t+1)(n − 2t − 1) = O(t²) messages and still
achieve an O(n + t²) upper bound"*.

This module implements that extension in its robust form: the first
``2t + 1`` processors run Algorithm 2 (so each ends up holding a
transferable proof — the common value with at least ``t + 1`` signatures);
in one extra phase the first ``t + 1`` of them send that proof to every
remaining processor, who adopts the value of the first proof that
verifies.  At least one of the ``t + 1`` senders is correct, and no proof
can exist for a wrong value (Theorem 4), so every correct processor
decides the common value.

Cost: Algorithm 2's ``5t² + 5t`` plus ``(t + 1)(n − 2t − 1)`` messages in
``3t + 4`` phases — ``O(n·t + t²)`` in general, and ``O(n + t²)`` whenever
``n = O(t²)``, which is exactly the ``n < α ≤ (√(6t) + 1)²`` regime the
paper aims it at.  (Algorithm 5's spread phase, phase ``3t + 4``, is this
same construction.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from repro.algorithms.algorithm2 import (
    Algorithm2,
    Algorithm2Processor,
    Algorithm2Transmitter,
)
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Context, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain


def is_proof_message(payload: object, t: int, core: int, ctx: Context) -> bool:
    """A valid informing message: a verified chain with at least ``t + 1``
    distinct signatures of core processors."""
    if not isinstance(payload, SignatureChain) or not payload.verify(ctx.service):
        return False
    core_signers = {s for s in payload.signers if 0 <= s < core}
    return len(core_signers) >= t + 1


class InformedCoreProcessor(Processor):
    """A core processor: Algorithm 2 plus (for the first t+1) informing."""

    def __init__(
        self,
        inner: Algorithm2Processor | Algorithm2Transmitter,
        passive: Sequence[ProcessorId],
    ) -> None:
        self.inner = inner
        self.passive = tuple(passive)

    def on_bind(self) -> None:
        self.inner.bind(replace(self.ctx, n=2 * self.ctx.t + 1))

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        t = self.ctx.t
        if phase <= 3 * t + 3:
            return self.inner.on_phase(phase, inbox)
        # phase 3t + 4: the informing phase.
        self.inner.on_final(inbox)
        if self.ctx.pid >= t + 1:
            return []
        proof = self.inner.best_proof
        if proof is None:
            return []
        if not proof.has_signed(self.ctx.pid):
            proof = proof.extend(self.ctx.key, self.ctx.service)
        return [(q, proof) for q in self.passive]

    def decision(self) -> Value | None:
        return self.inner.decision()


class InformedPassiveProcessor(Processor):
    """A passive processor: adopts the first verifiable proof it receives."""

    def __init__(self, core: int) -> None:
        self.core = core
        self.adopted: SignatureChain | None = None

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        self._absorb(inbox)
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        self._absorb(inbox)

    def _absorb(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            if self.adopted is not None:
                return
            if is_proof_message(envelope.payload, self.ctx.t, self.core, self.ctx):
                self.adopted = envelope.payload

    def decision(self) -> Value | None:
        return self.adopted.value if self.adopted is not None else None


class InformedAlgorithm2(AgreementAlgorithm):
    """Algorithm 2 + one informing phase: ``3t + 4`` phases,
    ``5t² + 5t + (t+1)(n − 2t − 1)`` messages, any ``n ≥ 2t + 1``."""

    name = "informed-algorithm-2"
    authenticated = True
    value_domain = frozenset({0, 1})
    phase_bound = "3*t + 4"
    #: Theorem 4's bound plus the informing fan-out.
    message_bound = "theorem4_message_upper_bound(t) + (t + 1) * (n - 2*t - 1)"
    signature_bound = "unstated"

    def __init__(self, n: int, t: int) -> None:
        super().__init__(n, t)
        if t < 1 or n < 2 * t + 1:
            raise ConfigurationError(
                f"needs t >= 1 and n >= 2t + 1 (got n={n}, t={t})"
            )
        self._core_algorithm = Algorithm2(2 * t + 1, t)
        self.core = 2 * t + 1

    def num_phases(self) -> int:
        return 3 * self.t + 4

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid < self.core:
            inner = self._core_algorithm.make_processor(pid)
            return InformedCoreProcessor(inner, tuple(range(self.core, self.n)))
        return InformedPassiveProcessor(self.core)
