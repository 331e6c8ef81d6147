"""Equivalence of the optimized inbox routing against the sorted reference.

The runner's merge-based delivery (its default ``LockstepTransport``)
must be observationally identical to the straightforward per-inbox sort it
replaced (``SortedTransport``): same inboxes, hence same decisions, same
:class:`~repro.core.history.History` and same
:class:`~repro.core.metrics.MetricsLedger`.  The adversaries here are the
ones that stress source ordering hardest: a replay adversary re-sending
recorded traffic (arbitrary source interleavings), the two-faced
equivocating transmitter, and a scripted adversary that deliberately emits
its sends in descending source order.
"""

import pytest

from repro.adversary.lowerbound import ReplayAdversary, build_split_plan
from repro.adversary.standard import EquivocatingTransmitter, ScriptedAdversary
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.oral_messages import OralMessages
from repro.core.message import Envelope
from repro.core.runner import run
from repro.transport.base import _merge_by_src, _route_merged, _route_sorted
from tests.conftest import SortedTransport


def assert_equivalent(algorithm_factory, value, adversary_factory):
    """Run the same scenario through the default routing and the sorted
    reference and compare everything observable."""
    merged = run(algorithm_factory(), value, adversary_factory())
    reference = run(
        algorithm_factory(), value, adversary_factory(), transport=SortedTransport()
    )
    assert merged.decisions == reference.decisions
    assert merged.history == reference.history
    assert merged.metrics == reference.metrics
    return merged, reference


class TestDeliveryEquivalence:
    def test_fault_free(self):
        assert_equivalent(lambda: DolevStrong(6, 2), 1, lambda: None)

    def test_replay_adversary(self):
        """Theorem 1's splitting replay: faulty traffic recorded from two
        source histories, re-sent phase by phase."""
        result_h = run(DolevStrong(6, 1), 1)
        result_g = run(DolevStrong(6, 1), 0)
        plan = build_split_plan(
            result_h.history, result_g.history, target=2, faulty=frozenset({0})
        )
        assert_equivalent(
            lambda: DolevStrong(6, 1),
            1,
            lambda: ReplayAdversary(frozenset({0}), plan),
        )

    def test_two_faced_transmitter(self):
        def adversary():
            return EquivocatingTransmitter(0, {q: q % 2 for q in range(1, 6)})

        assert_equivalent(lambda: DolevStrong(6, 1), 1, adversary)

    def test_two_faced_transmitter_unauthenticated(self):
        def adversary():
            return EquivocatingTransmitter(0, {q: q % 2 for q in range(1, 7)})

        assert_equivalent(lambda: OralMessages(7, 2), 1, adversary)

    def test_scripted_descending_sources(self):
        """Adversary sends arrive in descending src order — the stress case
        for the merge (the reference sort must agree)."""

        def script(view, env):
            return [
                (src, dst, ("noise", view.phase, src))
                for src in (4, 3)
                for dst in (0, 1, 2)
            ]

        assert_equivalent(
            lambda: DolevStrong(5, 2),
            1,
            lambda: ScriptedAdversary([3, 4], script),
        )


class TestFuzzScriptEquivalence:
    """Generated adversary scripts through both routings.

    The fuzzer composes every mutation primitive (drops, garbling, replays,
    forged chains, equivocation), producing far messier source interleavings
    than the hand-written adversaries above — each seed is a fresh stress
    case for the merge-vs-sort equivalence."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 41, 97, 131])
    def test_generated_scripts_dolev_strong(self, seed):
        from repro.fuzz.generator import generate_script

        factory = lambda: DolevStrong(6, 2)  # noqa: E731
        num_phases = factory().num_phases()
        script = generate_script(seed, n=6, t=2, num_phases=num_phases)
        assert_equivalent(factory, seed % 2, script.build)

    @pytest.mark.parametrize("seed", [3, 11, 59, 101])
    def test_generated_scripts_oral_messages(self, seed):
        from repro.fuzz.generator import generate_script

        factory = lambda: OralMessages(7, 2)  # noqa: E731
        num_phases = factory().num_phases()
        script = generate_script(seed, n=7, t=2, num_phases=num_phases)
        assert_equivalent(factory, 1, script.build)


class TestRoutingHelpers:
    def envelope(self, src, dst, phase=1, payload="x"):
        return Envelope(src=src, dst=dst, phase=phase, payload=payload)

    def test_merge_by_src_interleaves(self):
        base = [self.envelope(0, 9), self.envelope(2, 9), self.envelope(5, 9)]
        extra = [self.envelope(1, 9), self.envelope(3, 9), self.envelope(6, 9)]
        merged = _merge_by_src(base, extra)
        assert [e.src for e in merged] == [0, 1, 2, 3, 5, 6]

    def test_merge_preserves_same_source_order(self):
        first = self.envelope(1, 9, payload="first")
        second = self.envelope(1, 9, payload="second")
        merged = _merge_by_src([], [first, second])
        assert [e.payload for e in merged] == ["first", "second"]

    def test_routes_agree_on_mixed_traffic(self):
        # correct senders 0..2 (ascending per dst), adversary sends shuffled
        sent = [
            self.envelope(0, 1),
            self.envelope(0, 2),
            self.envelope(1, 2),
            self.envelope(2, 1),
            # adversary tail, deliberately out of order:
            self.envelope(4, 1, payload="a"),
            self.envelope(3, 1),
            self.envelope(4, 1, payload="b"),
            self.envelope(3, 2),
        ]
        merged = _route_merged(sent, correct_count=4)
        reference = _route_sorted(sent)
        assert merged == reference
        # stable within the same adversary source:
        assert [e.payload for e in merged[1] if e.src == 4] == ["a", "b"]

    def test_route_merged_pure_adversary_inbox(self):
        sent = [self.envelope(3, 0), self.envelope(2, 0)]
        assert _route_merged(sent, correct_count=0) == _route_sorted(sent)
