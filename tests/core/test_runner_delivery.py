"""Equivalence of the runner's routing against the per-inbox reference.

The runner's default ``LockstepTransport`` routes with
:func:`repro.transport.base.route` (sort the phase by source once, then
bucket); ``SortedTransport`` routes with the reference that buckets first
and sorts each inbox.  Both must be observationally identical: same
inboxes, in the same order, hence same decisions, same
:class:`~repro.core.history.History` and same
:class:`~repro.core.metrics.MetricsLedger`.  A recorder around each
transport keeps every phase's delivered inboxes, so inbox order is
compared directly: decisions, history and metrics do not see it.  The
adversaries here are the
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
from repro.core.runner import run
from repro.transport.base import LockstepTransport
from tests.conftest import SortedTransport


class Recorder:
    """A transport that delegates to *inner* and keeps, per phase, every
    inbox it delivered, in delivery order."""

    def __init__(self, inner):
        self.inner = inner
        self.delivered = []

    def deliver(self, phase, sent):
        inboxes = self.inner.deliver(phase, sent)
        self.delivered.append((phase, {dst: list(inbox) for dst, inbox in inboxes.items()}))
        return inboxes

    def drain_faults(self):
        return self.inner.drain_faults()

    def end_run(self):
        return self.inner.end_run()


def assert_equivalent(algorithm_factory, value, adversary_factory):
    """Run the same scenario through the default routing and the sorted
    reference and compare everything observable, every inbox's order
    included."""
    routed_inboxes = Recorder(LockstepTransport())
    reference_inboxes = Recorder(SortedTransport())
    routed = run(algorithm_factory(), value, adversary_factory(), transport=routed_inboxes)
    reference = run(
        algorithm_factory(), value, adversary_factory(), transport=reference_inboxes
    )
    assert routed_inboxes.delivered == reference_inboxes.delivered
    assert routed.decisions == reference.decisions
    assert routed.history == reference.history
    assert routed.metrics == reference.metrics
    return routed, reference


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
        for source ordering (the reference sort must agree)."""

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
    case for the routing equivalence."""

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

