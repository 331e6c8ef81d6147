"""LockstepTransport: the perfect network and the runner's only routing."""

import pytest

from repro.algorithms.registry import get
from repro.core.message import Envelope
from repro.core.runner import run
from repro.transport import FaultPlan, FaultyTransport, LockstepTransport, Transport
from repro.transport.base import _route_merged, _route_sorted


def envelopes():
    """Correct-prefix traffic (src-sorted per destination) plus adversary
    sends, mirroring what the runner hands the transport."""
    correct = [
        Envelope(src=src, dst=dst, phase=1, payload=f"c{src}->{dst}")
        for src in (0, 1, 2)
        for dst in (0, 1, 2, 3)
    ]
    adversary = [
        Envelope(src=3, dst=0, phase=1, payload="a3->0"),
        Envelope(src=3, dst=2, phase=1, payload="a3->2"),
    ]
    return correct + adversary, len(correct)


class TestLockstepTransport:
    def test_satisfies_the_transport_protocol(self):
        assert isinstance(LockstepTransport(), Transport)
        assert isinstance(FaultyTransport(FaultPlan()), Transport)

    def test_merged_matches_route_merged(self):
        sent, correct_count = envelopes()
        transport = LockstepTransport()
        transport.begin_run()
        assert transport.deliver(1, list(sent), correct_count) == _route_merged(
            list(sent), correct_count
        )

    def test_merged_equals_sorted(self):
        sent, correct_count = envelopes()
        assert _route_merged(list(sent), correct_count) == _route_sorted(list(sent))

    def test_stateless_lifecycle(self):
        transport = LockstepTransport()
        transport.begin_run()
        assert transport.drain_faults() == []
        assert transport.end_run() == []


class TestDefaultRouting:
    """A run given no transport routes every phase through LockstepTransport."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"begin_run": 0, "deliver": 0, "end_run": 0}
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
        assert calls == {"begin_run": 1, "deliver": executed, "end_run": 1}

    def test_early_stopping_run_delivers_only_executed_phases(self, calls):
        algorithm = get("ben-or")(6, 1)
        result = run(
            algorithm, 1, collect_telemetry=True, coins=algorithm.make_coin_source(0)
        )
        executed = len(result.telemetry.per_phase)
        assert executed < algorithm.num_phases()
        assert calls == {"begin_run": 1, "deliver": executed, "end_run": 1}
