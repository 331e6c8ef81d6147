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

from repro.core.message import Envelope, count_parts
from repro.core.types import ProcessorId
from repro.crypto.signatures import Signature


def count_signatures(payload: object) -> int:
    """Number of signatures appended to *payload* (nested ones included)."""
    return count_parts(payload, Signature)


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

    def record_phase(
        self, sent: Sequence[Envelope], correct: Container[ProcessorId]
    ) -> list[int]:
        """Account for the messages in *sent*, in order, and return each
        one's signature count; senders in *correct* are correct.

        Each distinct payload object is counted once: a broadcast hands
        one payload object to ``n - 1`` envelopes.  The runner calls this
        once per phase, after every handler and the adversary have
        returned, so no payload can change while the memo is live; and
        *sent* holds every payload, so no ``id`` is reused within the call.
        """
        memo: dict[int, int] = {}
        counts: list[int] = []
        for envelope in sent:
            payload = envelope.payload
            n_sigs = memo.get(id(payload))
            if n_sigs is None:
                n_sigs = memo[id(payload)] = count_signatures(payload)
            counts.append(n_sigs)
            if envelope.is_input_edge():
                continue
            self.sent_per_processor[envelope.src] += 1
            self.received_per_processor[envelope.dst] += 1
            self.messages_per_phase[envelope.phase] += 1
            self.signatures_per_phase[envelope.phase] += n_sigs
            self.last_active_phase = max(self.last_active_phase, envelope.phase)
            if envelope.src in correct:
                self.messages_by_correct += 1
                self.signatures_by_correct += n_sigs
                self.correct_messages_received_by[envelope.dst] += 1
                if n_sigs == 0:
                    self.unsigned_correct_messages += 1
            else:
                self.messages_by_faulty += 1
                self.signatures_by_faulty += n_sigs
        return counts

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
