"""Algorithm 1 of the paper: BA for ``n = 2t + 1`` in ``t + 2`` phases.

Setup (Section 5): transmitter ``q``; the ``2t`` remaining processors are
split into sets ``A`` and ``B`` of size ``t``; ``G`` is the complete
bipartite graph on ``(A, B)`` plus ``q`` joined to every node.

A *correct 1-message* received by ``p`` at phase ``k`` consists of value 1
with signatures appended such that the sequence of signers, together with
``p``, forms a **simple path of length k from q to p in G**.

* Phase 1 — the transmitter signs and sends its value to everyone.
* Phases 2 .. t+2 — when a processor in ``A`` (resp. ``B``) gets a correct
  1-message *for the first time*, it signs it and sends it to everybody in
  ``B`` (resp. ``A``).
* Decision — a processor in ``A`` or ``B`` decides 1 iff it received a
  correct 1-message by phase ``t + 2``; otherwise it decides 0.  (The
  transmitter decides its own value.)

Theorem 3: this reaches Byzantine Agreement with at most ``2t² + 2t``
messages sent by correct processors.

Timing note: "received at phase k" in the paper means the message is an
edge of phase ``k``'s graph; in the runner such a message is handed to the
receiver's ``on_phase(k + 1)`` (or ``on_final`` when ``k`` is the last
phase), so a processor that first sees a correct 1-message of phase ``k``
relays it during phase ``k + 1`` — producing a chain of length ``k + 1``,
exactly a correct 1-message of phase ``k + 1``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algorithms.base import input_value_from
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain
from repro.network.topology import BipartiteRelayGraph

#: The value whose propagation Algorithm 1 certifies with signature paths.
ONE: Value = 1
#: The fallback value decided when no correct 1-message ever arrives.
ZERO: Value = 0


class Algorithm1Processor(Processor):
    """A non-transmitter processor of Algorithm 1 (member of ``A`` or ``B``)."""

    def __init__(self, graph: BipartiteRelayGraph) -> None:
        self.graph = graph
        #: the first accepted correct 1-message (None until one arrives).
        self.accepted: SignatureChain | None = None
        #: whether the relay duty has been performed.
        self.relayed = False

    # ------------------------------------------------------------ validation

    def is_correct_1_message(self, envelope: Envelope) -> bool:
        """Check the paper's correct-1-message condition for *envelope*.

        The message must be a verified signature chain on value 1 whose
        signer sequence, with this processor appended, is a simple path of
        length ``envelope.phase`` from the transmitter in ``G``.
        """
        chain = envelope.payload
        if not isinstance(chain, SignatureChain) or chain.value != ONE:
            return False
        if len(chain) != envelope.phase:
            return False
        path = (*chain.signers, self.ctx.pid)
        if not self.graph.is_simple_path_from_transmitter(path):
            return False
        return chain.verify(self.ctx.service)

    def _first_acceptable(self, inbox: Sequence[Envelope]) -> SignatureChain | None:
        for envelope in inbox:
            if self.is_correct_1_message(envelope):
                return envelope.payload
        return None

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if self.accepted is None:
            self.accepted = self._first_acceptable(inbox)
            if self.accepted is not None and not self.relayed and phase <= self.ctx.t + 2:
                self.relayed = True
                extended = self.accepted.extend(self.ctx.key, self.ctx.service)
                return [(q, extended) for q in self.graph.opposite_side(self.ctx.pid)]
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        if self.accepted is None:
            self.accepted = self._first_acceptable(inbox)

    def decision(self) -> Value:
        return ONE if self.accepted is not None else ZERO


class Algorithm1Transmitter(Processor):
    """The transmitter: signs and sends its private value at phase 1."""

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


class Algorithm1(AgreementAlgorithm):
    """Theorem 3: ``t + 2`` phases, at most ``2t² + 2t`` messages."""

    name = "algorithm-1"
    authenticated = True
    value_domain = frozenset({0, 1})
    phase_bound = "theorem3_phases(t)"
    message_bound = "theorem3_message_upper_bound(t)"
    #: the transmitter sends ``2t`` one-signature chains; each of the ``2t``
    #: others relays once to ``t`` targets, at most ``t + 2`` signatures per
    #: relayed chain.
    signature_bound = "2*t + 2*t*t*(t + 2)"

    def __init__(self, n: int, t: int) -> None:
        super().__init__(n, t)
        if n != 2 * t + 1 or t < 1:
            raise ConfigurationError(
                f"Algorithm 1 is defined for n = 2t + 1 with t >= 1 "
                f"(got n={n}, t={t})"
            )
        self.graph = BipartiteRelayGraph(t)

    def num_phases(self) -> int:
        return self.t + 2

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid == self.transmitter:
            return Algorithm1Transmitter()
        return Algorithm1Processor(self.graph)
