"""Multivalued agreement on top of the paper's binary algorithms.

Section 5 fixes ``V = {0, 1}`` and notes that *"if the transmitter can
send more than two values, one has to modify the algorithms slightly"*.
The classic slight modification is bit decomposition: encode the value in
``w`` bits and run ``w`` independent copies of a binary algorithm — one
per bit — side by side; decode the agreed bits at the end.

Agreement carries over bit-wise (each copy agrees); validity carries over
because a correct transmitter feeds every copy the bits of its real value.
A faulty transmitter can mix bits of different values, making correct
processors agree on a value *nobody proposed* — that is permitted by the
Byzantine Agreement conditions (agreement constrains faulty transmitters
no further), and is the well-known price of the bit-wise reduction.

Cost: ``w`` times the binary algorithm's messages in the same number of
phases.  The copies run concurrently, and each message of a copy travels
in its own envelope, tagged with the copy's bit; nothing is bundled per
destination, so the message count is the sum of the copies' counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.algorithms.base import input_value_from
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value


@dataclass(frozen=True, slots=True)
class BitMessage:
    """A payload of bit-copy number *bit* of the parallel composition."""

    bit: int
    payload: object


def encode_bits(value: int, width: int) -> list[int]:
    """Little-endian bit encoding of *value*."""
    if not 0 <= value < (1 << width):
        raise ConfigurationError(
            f"value {value} does not fit in {width} bits"
        )
    return [(value >> i) & 1 for i in range(width)]


def decode_bits(bits: Sequence[int]) -> int:
    """Inverse of :func:`encode_bits`."""
    return sum((1 << i) for i, bit in enumerate(bits) if bit)


class MultivaluedProcessor(Processor):
    """Runs ``width`` binary protocol instances in lockstep."""

    def __init__(self, copies: Sequence[Processor], width: int) -> None:
        self.copies = tuple(copies)
        self.width = width

    def on_bind(self) -> None:
        for copy in self.copies:
            copy.bind(replace(self.ctx))

    def _split_inbox(self, inbox: Sequence[Envelope]) -> list[list[Envelope]]:
        """Route each wrapped payload to its bit copy.

        The transmitter's input edge is decomposed into per-bit input
        edges so each copy sees a phase-0 inedge carrying its own bit.
        """
        per_bit: list[list[Envelope]] = [[] for _ in range(self.width)]
        for envelope in inbox:
            if envelope.is_input_edge():
                for bit, value in enumerate(encode_bits(envelope.payload, self.width)):
                    per_bit[bit].append(
                        Envelope(
                            src=envelope.src,
                            dst=envelope.dst,
                            phase=envelope.phase,
                            payload=value,
                        )
                    )
                continue
            message = envelope.payload
            if not isinstance(message, BitMessage):
                continue
            if not 0 <= message.bit < self.width:
                continue
            per_bit[message.bit].append(
                Envelope(
                    src=envelope.src,
                    dst=envelope.dst,
                    phase=envelope.phase,
                    payload=message.payload,
                )
            )
        return per_bit

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        per_bit = self._split_inbox(inbox)
        outgoing: list[Outgoing] = []
        for bit, copy in enumerate(self.copies):
            for dst, payload in copy.on_phase(phase, tuple(per_bit[bit])):
                outgoing.append((dst, BitMessage(bit=bit, payload=payload)))
        return outgoing

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        per_bit = self._split_inbox(inbox)
        for bit, copy in enumerate(self.copies):
            copy.on_final(tuple(per_bit[bit]))

    def decision(self) -> Value | None:
        bits = [copy.decision() for copy in self.copies]
        if any(bit is None for bit in bits):
            return None
        return decode_bits([int(bool(bit)) for bit in bits])


class MultivaluedAgreement(AgreementAlgorithm):
    """Bit-parallel composition of a binary agreement algorithm.

    ``inner_factory`` builds the binary algorithm (same ``n``, ``t``);
    values are integers in ``range(2 ** width)``.
    """

    name = "multivalued"
    authenticated = True
    #: all budgets scale with the wrapped binary algorithm — computed from
    #: the inner instances at runtime.
    phase_bound = "derived"
    message_bound = "derived"
    signature_bound = "derived"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        width: int,
        inner_factory: Callable[[int, int], AgreementAlgorithm],
    ) -> None:
        super().__init__(n, t)
        if width < 1:
            raise ConfigurationError(f"need at least one bit, got width={width}")
        self.width = width
        self._inner = [inner_factory(n, t) for _ in range(width)]
        self.name = f"multivalued-{self._inner[0].name}"
        self.authenticated = self._inner[0].authenticated
        phase_counts = {inner.num_phases() for inner in self._inner}
        if len(phase_counts) != 1:
            raise ConfigurationError("inner algorithms disagree on phase count")

    def num_phases(self) -> int:
        return self._inner[0].num_phases()

    def make_processor(self, pid: ProcessorId) -> Processor:
        copies = [inner.make_processor(pid) for inner in self._inner]
        return MultivaluedProcessor(copies, self.width)

    def upper_bound_messages(self) -> int | None:
        inner_bound = self._inner[0].upper_bound_messages()
        if inner_bound is None:
            return None
        return self.width * inner_bound
