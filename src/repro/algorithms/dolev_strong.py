"""Dolev–Strong authenticated broadcast — the paper's baseline [9].

The classic ``t + 1``-phase authenticated algorithm (Dolev & Strong,
*Authenticated algorithms for Byzantine Agreement*, SIAM J. Comput. 1983):

* Phase 1 — the transmitter signs its value and sends it to everyone.
* Phase ``k`` (``2 ≤ k ≤ t + 1``) — when a processor first *extracts* a
  value (receives a valid chain of ``k - 1`` distinct signatures beginning
  with the transmitter's), it appends its own signature and relays the chain
  to every processor that has not yet signed it.  A processor extracts at
  most two distinct values — two already prove the transmitter faulty.
* Decision — a processor that extracted exactly one value decides it;
  otherwise (zero or two values: the transmitter is faulty) it decides the
  default value.

Worst-case messages sent by correct processors: the transmitter sends
``n − 1``; every other correct processor relays at most 2 chains to at most
``n − 1`` targets — ``O(n²)`` in total.  The paper cites the optimised
``O(nt + t²)``-message variant of [9]; that variant is implemented
separately in :mod:`repro.algorithms.active_set`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.algorithms.base import DEFAULT_VALUE, input_value_from
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain


class DolevStrongProcessor(Processor):
    """One processor of the classic Dolev–Strong broadcast."""

    def __init__(self, t: int, default: Value = DEFAULT_VALUE) -> None:
        self.t = t
        self.default = default
        #: values extracted so far, in extraction order (at most 2 kept).
        self.extracted: list[Value] = []

    # ------------------------------------------------------------ extraction

    def _accept_chain(self, chain: object, phase: int) -> bool:
        """True iff *chain* is a valid phase-*phase* relay chain.

        Valid means: a :class:`SignatureChain` of exactly ``phase - 1``
        distinct verified signatures, the first of which is the
        transmitter's, none of which is ours.
        """
        if not isinstance(chain, SignatureChain):
            return False
        if len(chain) != phase - 1 or len(chain) < 1:
            return False
        if chain.signatures[0].signer != self.ctx.transmitter:
            return False
        if chain.has_signed(self.ctx.pid):
            return False
        return chain.verify(self.ctx.service)

    def _extract(self, inbox: Sequence[Envelope], phase: int) -> list[SignatureChain]:
        """Record newly extracted values; return the chains that were new."""
        new_chains: list[SignatureChain] = []
        for envelope in inbox:
            chain = envelope.payload
            if not self._accept_chain(chain, phase):
                continue
            if chain.value in self.extracted or len(self.extracted) >= 2:
                continue
            self.extracted.append(chain.value)
            new_chains.append(chain)
        return new_chains

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if self.ctx.pid == self.ctx.transmitter:
            if phase == 1:
                value = input_value_from(inbox)
                self.extracted.append(value)
                chain = SignatureChain.initial(value, self.ctx.key, self.ctx.service)
                return [(q, chain) for q in self.ctx.others()]
            return []

        if phase == 1:
            return []
        outgoing: list[Outgoing] = []
        for chain in self._extract(inbox, phase):
            extended = chain.extend(self.ctx.key, self.ctx.service)
            signed = set(extended.signers)
            outgoing.extend(
                (q, extended) for q in self.ctx.others() if q not in signed
            )
        return outgoing

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        if self.ctx.pid != self.ctx.transmitter:
            self._extract(inbox, self.ctx.t + 2)

    def decision(self) -> Value | None:
        if len(self.extracted) == 1:
            return self.extracted[0]
        return self.default


class DolevStrong(AgreementAlgorithm):
    """Classic Dolev–Strong: ``t + 1`` phases, ``O(n²)`` messages."""

    name = "dolev-strong"
    authenticated = True
    phase_bound = "t + 1"
    #: transmitter: ``n − 1``; each other correct processor sends at most 2
    #: relays to at most ``n − 2`` non-signers each.
    message_bound = "(n - 1) + (n - 1) * 2 * (n - 2)"
    #: every relayed chain at phase ``k`` carries ``k ≤ t + 1`` signatures.
    signature_bound = "((n - 1) + (n - 1) * 2 * (n - 2)) * (t + 1)"

    def __init__(self, n: int, t: int, *, default: Value = DEFAULT_VALUE) -> None:
        super().__init__(n, t)
        if t > n - 2:
            raise ConfigurationError(
                f"Byzantine Agreement needs t < n - 1 (got n={n}, t={t})"
            )
        self.default = default

    def num_phases(self) -> int:
        return self.t + 1

    def make_processor(self, pid: ProcessorId) -> Processor:
        return DolevStrongProcessor(t=self.t, default=self.default)
