"""Information-exchange accounting.

The paper measures *"the total number of messages the participating
processors have to send in the worst case"* and, for authenticated
algorithms, *"the number of signatures appended to messages"*.  Every lower
and upper bound is stated for messages/signatures **sent by correct
processors**, so the ledger keeps correct and faulty traffic separate.

A message's signature count is the number of
:class:`~repro.crypto.signatures.Signature` objects reachable inside its
payload (the paper's "signatures appended to a message"); the technical
assumption of Theorem 1 — every authenticated message carries at least its
sender's signature — is checked by :meth:`MetricsLedger.unsigned_correct_messages`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter

from repro.core.message import CountHooks, Envelope, count_parts
from repro.core.types import INPUT_SOURCE, ProcessorId
from repro.crypto.chains import SignatureChain
from repro.crypto.signatures import Signature

_SRC, _DST, _PHASE, _PAYLOAD = map(attrgetter, ("src", "dst", "phase", "payload"))


def count_signatures(payload: object, hooks: CountHooks | None = None) -> int:
    """Number of signatures appended to *payload* (nested ones included),
    with *hooks* the ledger's count hooks (see :func:`count_parts`)."""
    return count_parts(payload, Signature, hooks)


@dataclass(slots=True)
class MetricsLedger:
    """Running totals for one execution.

    All counters exclude the phase-0 inedge (the transmitter's private
    input), which is not a message between processors.
    """

    messages_by_correct: int = 0
    messages_by_faulty: int = 0
    signatures_by_correct: int = 0
    signatures_by_faulty: int = 0
    #: correct-sender messages that carried no signature at all — relevant
    #: only for authenticated algorithms (Theorem 1's technical assumption).
    unsigned_correct_messages: int = 0
    #: highest phase in which any processor (correct or faulty) sent.
    last_active_phase: int = 0
    #: configured number of phases the algorithm declared.
    phases_configured: int = 0

    sent_per_processor: Counter[ProcessorId] = field(default_factory=Counter)
    received_per_processor: Counter[ProcessorId] = field(default_factory=Counter)
    messages_per_phase: Counter[int] = field(default_factory=Counter)
    signatures_per_phase: Counter[int] = field(default_factory=Counter)
    #: messages sent by correct processors *to* each receiver — Theorem 2
    #: reasons about how many messages each member of the faulty set B
    #: receives from correct processors.
    correct_messages_received_by: Counter[ProcessorId] = field(default_factory=Counter)
    #: ``id(chain) -> (chain, its signature count)`` for the fixed chains
    #: counted in this run (:meth:`~repro.crypto.chains.SignatureChain.is_fixed`).
    #: Holding the chain keeps its ``id`` from being reused while the
    #: entry lives.  A cache, not a count: left out of ``==`` and ``repr``.
    _chain_counts: dict[int, tuple[SignatureChain, int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def record_phase(
        self, sent: Sequence[Envelope], correct: Container[ProcessorId]
    ) -> list[int]:
        """Account for the messages in *sent*, in order, and return each
        one's signature count; senders in *correct* are correct.

        Each distinct payload object is counted once per call: a
        broadcast hands one payload object to ``n - 1`` envelopes.  The
        runner calls this once per phase, after every handler and the
        adversary have returned, so no payload can change while the memo
        is live; and *sent* holds every payload, so no ``id`` is reused
        within the call.  A fixed signature chain, which can never change,
        is counted once per ledger, however many phases re-send it, alone
        or inside another payload; any other payload is counted afresh in
        every call.  The per-envelope bookkeeping runs in C (``map``,
        ``compress``, ``Counter.update``); only a call that holds several
        phases or an input edge loops over envelopes in Python.
        """
        if not sent:
            return []
        payloads = list(map(_PAYLOAD, sent))
        ids = list(map(id, payloads))
        distinct = dict(zip(ids, payloads))
        hooks = {SignatureChain: self._chain_count}
        memo = {key: count_signatures(payload, hooks) for key, payload in distinct.items()}
        counts = list(map(memo.__getitem__, ids))
        srcs = list(map(_SRC, sent))
        dsts = list(map(_DST, sent))
        phases = list(map(_PHASE, sent))
        kept = counts
        if INPUT_SOURCE in srcs:
            keep = [not envelope.is_input_edge() for envelope in sent]
            srcs, dsts, phases, kept = (
                list(compress(column, keep)) for column in (srcs, dsts, phases, counts)
            )
            if not srcs:
                return counts
        total = sum(kept)
        self.sent_per_processor.update(srcs)
        self.received_per_processor.update(dsts)
        self.messages_per_phase.update(phases)
        last = phases[0]
        if phases.count(last) == len(phases):
            self.signatures_per_phase[last] += total
        else:
            for phase, n_sigs in zip(phases, kept):
                self.signatures_per_phase[phase] += n_sigs
            last = max(phases)
        self.last_active_phase = max(self.last_active_phase, last)
        by_correct = list(map(correct.__contains__, srcs))
        correct_counts = list(compress(kept, by_correct))
        correct_sigs = sum(correct_counts)
        self.messages_by_correct += len(correct_counts)
        self.signatures_by_correct += correct_sigs
        self.unsigned_correct_messages += correct_counts.count(0)
        self.correct_messages_received_by.update(compress(dsts, by_correct))
        self.messages_by_faulty += len(kept) - len(correct_counts)
        self.signatures_by_faulty += total - correct_sigs
        return counts

    def _chain_count(self, chain: SignatureChain) -> int | None:
        """The signature count of a fixed *chain*, counted once per ledger;
        ``None`` (walk it) for a chain that may change."""
        known = self._chain_counts.get(id(chain))
        if known is not None:
            return known[1]
        if not chain.is_fixed():
            return None
        # Exact Signatures over a value of builtin scalars and tuples: no
        # other part of the chain can be a Signature.
        count = len(chain.signatures)
        self._chain_counts[id(chain)] = (chain, count)
        return count

    # ------------------------------------------------------------- summaries

    @property
    def total_messages(self) -> int:
        """Messages sent by anyone, correct or faulty."""
        return self.messages_by_correct + self.messages_by_faulty

    @property
    def total_signatures(self) -> int:
        """Signatures appended by anyone, correct or faulty."""
        return self.signatures_by_correct + self.signatures_by_faulty

    def summary(self) -> dict[str, int]:
        """Compact dict of headline counters (for tables and reports)."""
        return {
            "messages_by_correct": self.messages_by_correct,
            "messages_by_faulty": self.messages_by_faulty,
            "signatures_by_correct": self.signatures_by_correct,
            "signatures_by_faulty": self.signatures_by_faulty,
            "last_active_phase": self.last_active_phase,
            "phases_configured": self.phases_configured,
        }
