"""Property-based tests for metrics consistency and formula monotonicity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import formulas
from repro.core.message import Envelope
from repro.core.metrics import MetricsLedger
from repro.core.types import INPUT_SOURCE


@st.composite
def send_events(draw, n=6):
    src = draw(st.integers(0, n - 1))
    dst = draw(st.integers(0, n - 1).filter(lambda d: d != src))
    phase = draw(st.integers(1, 5))
    correct = draw(st.booleans())
    return Envelope(src=src, dst=dst, phase=phase, payload=("m", src, phase)), correct


class TestLedgerInvariants:
    @given(st.lists(send_events(), max_size=40))
    def test_totals_equal_breakdown_sums(self, events):
        ledger = MetricsLedger()
        for envelope, correct in events:
            ledger.record_phase([envelope], correct={envelope.src} if correct else ())
        assert ledger.total_messages == sum(ledger.messages_per_phase.values())
        assert ledger.total_messages == sum(ledger.sent_per_processor.values())
        assert ledger.total_messages == sum(ledger.received_per_processor.values())
        assert (
            ledger.total_messages
            == ledger.messages_by_correct + ledger.messages_by_faulty
        )

    @given(st.lists(send_events(), max_size=40))
    def test_correct_received_bounded_by_received(self, events):
        ledger = MetricsLedger()
        for envelope, correct in events:
            ledger.record_phase([envelope], correct={envelope.src} if correct else ())
        for pid, count in ledger.correct_messages_received_by.items():
            assert count <= ledger.received_per_processor[pid]

    @given(st.lists(send_events(), max_size=40))
    def test_last_active_phase_is_max(self, events):
        ledger = MetricsLedger()
        for envelope, correct in events:
            ledger.record_phase([envelope], correct={envelope.src} if correct else ())
        expected = max((e.phase for e, _ in events), default=0)
        assert ledger.last_active_phase == expected

    @given(st.integers(0, 4))
    def test_input_edges_never_counted(self, phase_count):
        ledger = MetricsLedger()
        for _ in range(phase_count):
            ledger.record_phase([Envelope(INPUT_SOURCE, 0, 0, "v")], correct={INPUT_SOURCE})
        assert ledger.total_messages == 0


class TestFormulaMonotonicity:
    @given(st.integers(2, 200), st.integers(1, 50))
    def test_lower_bounds_grow_with_n(self, n, t):
        if t >= n - 1:
            return
        assert formulas.theorem2_message_lower_bound(
            n + 1, t
        ) >= formulas.theorem2_message_lower_bound(n, t)
        assert formulas.theorem1_signature_lower_bound(
            n + 1, t
        ) >= formulas.theorem1_signature_lower_bound(n, t)

    @given(st.integers(4, 200), st.integers(1, 50))
    def test_lower_bounds_grow_with_t(self, n, t):
        if t + 1 >= n - 1:
            return
        assert formulas.theorem2_message_lower_bound(
            n, t + 1
        ) >= formulas.theorem2_message_lower_bound(n, t)

    @given(st.integers(1, 60))
    def test_upper_bounds_ordered_like_the_paper(self, t):
        """Algorithm 2 costs more than Algorithm 1 (it does strictly more),
        and both are polynomial in t."""
        assert formulas.theorem4_message_upper_bound(
            t
        ) > formulas.theorem3_message_upper_bound(t)

    @given(st.integers(2, 100), st.integers(1, 20), st.integers(1, 40))
    def test_lemma1_bound_exceeds_linear_term(self, n, t, s):
        assert formulas.lemma1_message_upper_bound(n, t, s) >= 2 * n

    @given(st.integers(1, 30))
    def test_alpha_in_its_window(self, t):
        alpha = formulas.smallest_alpha(t)
        assert alpha > 6 * t
        # α is the *smallest* such square: (√α − 1)² ≤ 6t.
        import math

        root = math.isqrt(alpha)
        assert (root - 1) ** 2 <= 6 * t

    @given(st.integers(2, 300), st.integers(1, 40))
    def test_theorem7_scale_between_bounds(self, n, t):
        if t >= n - 1:
            return
        lower = formulas.theorem2_message_lower_bound(n, t)
        scale = formulas.theorem7_message_scale(n, t)
        assert scale >= lower / 8  # the constant from the formulas tests
