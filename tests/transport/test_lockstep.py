"""LockstepTransport and route: the perfect network and its one router."""

from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get
from repro.core.message import Envelope
from repro.core.runner import run
from repro.transport.base import LockstepTransport, Transport, route
from repro.transport.faults import FaultPlan
from repro.transport.faulty import FaultyTransport
from tests.conftest import route_by_inbox


def envelopes():
    """Correct-prefix traffic (src-sorted per destination) plus adversary
    sends in descending source order, mirroring what the runner hands the
    transport when processors 1 and 3 are faulty."""
    correct = [
        Envelope(src=src, dst=dst, phase=1, payload=f"c{src}->{dst}")
        for src in (0, 2)
        for dst in (0, 1, 2, 3)
        if dst != src
    ]
    adversary = [
        Envelope(src=src, dst=dst, phase=1, payload=f"a{src}->{dst}")
        for dst in (0, 2)
        for src in (3, 1)
    ]
    return correct + adversary


def sends(*pairs):
    """Envelopes for ``(src, dst)`` pairs, each carrying its position."""
    return [
        Envelope(src=src, dst=dst, phase=1, payload=k)
        for k, (src, dst) in enumerate(pairs)
    ]


PIDS = st.integers(0, 5)


@st.composite
def phases(draw):
    """One phase as the runner hands it over: the correct processors'
    sends in ascending pid order, then the adversary's in any order.
    Pairs repeat on both sides, and every payload is its envelope's
    position, so an inbox shows the order its envelopes kept."""
    faulty = draw(st.sets(PIDS, max_size=2))
    pairs = draw(
        st.lists(st.tuples(PIDS, PIDS).filter(lambda pair: pair[0] != pair[1]), max_size=40)
    )
    correct = sorted((pair for pair in pairs if pair[0] not in faulty), key=itemgetter(0))
    adversary = draw(st.permutations([pair for pair in pairs if pair[0] in faulty]))
    return sends(*correct, *adversary)


class TestLockstepTransport:
    def test_satisfies_the_transport_protocol(self):
        assert isinstance(LockstepTransport(), Transport)
        assert isinstance(FaultyTransport(FaultPlan()), Transport)

    def test_routes_as_the_reference(self):
        sent = envelopes()
        inboxes = LockstepTransport().deliver(1, list(sent))
        assert inboxes == route_by_inbox(list(sent))
        assert [e.src for e in inboxes[0]] == [1, 2, 3]

    def test_stateless_lifecycle(self):
        transport = LockstepTransport()
        assert transport.drain_faults() == []
        assert transport.end_run() == []


class TestRoute:
    @settings(max_examples=200, deadline=None)
    @given(sent=phases())
    # Correct senders 0..2, then an adversary tail out of order, with
    # two sends from 4 to 1 whose order must hold.
    @example(sent=sends((0, 1), (0, 2), (1, 2), (2, 1), (4, 1), (3, 1), (4, 1), (3, 2)))
    # An inbox only the adversary writes to, in descending source order.
    @example(sent=sends((3, 0), (2, 0)))
    def test_route_equals_the_per_inbox_reference(self, sent):
        before = list(sent)
        assert route(sent) == route_by_inbox(list(sent))
        assert sent == before


class TestDefaultRouting:
    """A run given no transport routes every phase through LockstepTransport."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"deliver": 0, "end_run": 0}
        for name in counts:
            original = getattr(LockstepTransport, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(LockstepTransport, name, spy)
        return counts

    def test_fixed_round_run_delivers_every_phase(self, calls):
        algorithm = get("dolev-strong")(6, 2)
        result = run(algorithm, 1, collect_telemetry=True)
        executed = len(result.telemetry.per_phase)
        assert executed == algorithm.num_phases()
        assert calls == {"deliver": executed, "end_run": 1}

    def test_early_stopping_run_delivers_only_executed_phases(self, calls):
        algorithm = get("ben-or")(6, 1)
        result = run(
            algorithm, 1, collect_telemetry=True, coins=algorithm.coin_source(0)
        )
        executed = len(result.telemetry.per_phase)
        assert executed < algorithm.num_phases()
        assert calls == {"deliver": executed, "end_run": 1}
