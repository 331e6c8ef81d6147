"""Tests for the trace renderer."""

from repro.adversary.standard import SilentAdversary
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.dolev_strong import DolevStrong
from repro.analysis.trace import describe_payload, render_trace, trace_lines
from repro.core.runner import run


class TestDescribePayload:
    def test_short_payloads_verbatim(self):
        assert describe_payload(42) == "42"

    def test_long_payloads_truncated(self):
        text = describe_payload("x" * 200, max_length=20)
        assert len(text) == 20 and text.endswith("...")

    def test_truncation_never_splits_an_escape_sequence(self):
        # repr of a control-character payload is a run of \xHH escapes; a
        # naive slice lands mid-escape ('...\x0" + "...").  The cut must
        # always fall on an escape boundary.
        payload = "\x00" * 50
        for max_length in range(10, 30):
            text = describe_payload(payload, max_length=max_length)
            assert text.endswith("...")
            body = text[:-3]
            # Strip whole escapes from the front; nothing may remain.
            assert body.startswith("'")
            rest = body[1:]
            while rest:
                assert rest.startswith("\\x00"), text
                rest = rest[4:]

    def test_truncation_handles_unicode_escapes(self):
        text = describe_payload("￿" * 40, max_length=21)
        assert text.endswith("...")
        assert len(text) <= 21
        body = text[1:-3]
        while body:
            assert body.startswith("\\uffff"), text
            body = body[6:]
        # Printable non-ASCII is not escaped by repr: plain character cut.
        payload = "☃" * 80
        assert describe_payload(payload) == repr(payload)[:57] + "..."

    def test_truncated_text_is_never_longer_than_the_limit(self):
        for payload in ("x" * 100, "\x01" * 100, "\U0001f600" * 40, b"\xff" * 80):
            for max_length in range(8, 40):
                assert len(describe_payload(payload, max_length)) <= max_length


class TestTraceLines:
    def test_all_messages_present(self):
        result = run(DolevStrong(4, 1), 1)
        lines = trace_lines(result.history)
        # input edge + every sent message.
        assert len(lines) == 1 + result.metrics.total_messages

    def test_processor_filter(self):
        result = run(DolevStrong(4, 1), 1)
        lines = trace_lines(result.history, processors={2})
        assert all(line.src == 2 or line.dst == 2 for line in lines)

    def test_signature_counts(self):
        result = run(DolevStrong(4, 1), 1)
        phase1 = [l for l in trace_lines(result.history) if l.phase == 1]
        assert all(line.signatures == 1 for line in phase1)


class TestRenderTrace:
    def test_contains_phases_and_decisions(self):
        result = run(Algorithm1(5, 2), 1)
        text = render_trace(result)
        assert "phase 0" in text and "phase 4" in text
        assert "decisions:" in text
        assert "input" in text

    def test_faulty_senders_marked(self):
        result = run(DolevStrong(5, 1), 1, SilentAdversary([0]))
        text = render_trace(result)
        assert "faulty=[0]" in text

    def test_elision_of_busy_phases(self):
        result = run(DolevStrong(8, 2), 1)
        text = render_trace(result, max_messages_per_phase=3)
        assert "more" in text

    def test_silent_phases_marked(self):
        result = run(DolevStrong(5, 1), 0, SilentAdversary([0]))
        assert "(silent)" in render_trace(result)

    def test_phase_headers_carry_signature_totals(self):
        result = run(DolevStrong(4, 1), 1)
        text = render_trace(result)
        expected = result.metrics.signatures_per_phase[1]
        assert f"--- phase 1 (3 messages, {expected} signatures) ---" in text
