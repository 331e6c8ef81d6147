"""Tests for the information-exchange ledger (repro.core.metrics)."""

from repro.core.message import Envelope
from repro.core.metrics import MetricsLedger, count_signatures
from repro.core.types import INPUT_SOURCE
from repro.crypto.chains import SignatureChain
from repro.crypto.signatures import SignatureService


def signed_chain(service: SignatureService, signers: list[int], value=1) -> SignatureChain:
    chain = SignatureChain(value)
    for pid in signers:
        chain = chain.extend(service.key_for(pid), service)
    return chain


class TestCountSignatures:
    def test_zero_for_plain_payloads(self):
        assert count_signatures("hello") == 0
        assert count_signatures((1, 2, [3])) == 0

    def test_counts_chain_signatures(self, service):
        chain = signed_chain(service, [0, 1, 2])
        assert count_signatures(chain) == 3

    def test_counts_nested_signatures(self, service):
        a = signed_chain(service, [0])
        b = signed_chain(service, [1, 2])
        assert count_signatures(("bundle", (a, b))) == 3


class TestMetricsLedger:
    def test_correct_and_faulty_tracked_separately(self, service):
        ledger = MetricsLedger()
        chain = signed_chain(service, [0])
        ledger.record_phase([Envelope(0, 1, 1, chain)], correct={0})
        ledger.record_phase([Envelope(2, 1, 1, chain)], correct=())
        assert ledger.messages_by_correct == 1
        assert ledger.messages_by_faulty == 1
        assert ledger.signatures_by_correct == 1
        assert ledger.signatures_by_faulty == 1
        assert ledger.total_messages == 2

    def test_input_edge_not_counted(self):
        ledger = MetricsLedger()
        ledger.record_phase([Envelope(INPUT_SOURCE, 0, 0, 1)], correct={INPUT_SOURCE})
        assert ledger.total_messages == 0

    def test_unsigned_correct_messages_flagged(self):
        ledger = MetricsLedger()
        ledger.record_phase([Envelope(0, 1, 1, "bare")], correct={0})
        ledger.record_phase([Envelope(2, 1, 1, "bare")], correct=())
        assert ledger.unsigned_correct_messages == 1

    def test_per_phase_and_per_processor_breakdowns(self, service):
        ledger = MetricsLedger()
        chain = signed_chain(service, [0, 1])
        ledger.record_phase([Envelope(0, 1, 1, chain)], correct={0})
        ledger.record_phase([Envelope(0, 2, 2, chain)], correct={0})
        ledger.record_phase([Envelope(1, 2, 2, chain)], correct={1})
        assert ledger.sent_per_processor[0] == 2
        assert ledger.received_per_processor[2] == 2
        assert ledger.messages_per_phase[2] == 2
        assert ledger.signatures_per_phase[1] == 2
        assert ledger.last_active_phase == 2

    def test_correct_messages_received_by(self):
        ledger = MetricsLedger()
        ledger.record_phase([Envelope(0, 3, 1, "m")], correct={0})
        ledger.record_phase([Envelope(1, 3, 1, "m")], correct={1})
        ledger.record_phase([Envelope(2, 3, 1, "m")], correct=())
        assert ledger.correct_messages_received_by[3] == 2

    def test_summary_keys(self):
        summary = MetricsLedger(phases_configured=7).summary()
        assert summary["phases_configured"] == 7
        assert set(summary) >= {
            "messages_by_correct",
            "signatures_by_correct",
            "last_active_phase",
        }
