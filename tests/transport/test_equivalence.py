"""The routing equivalence guarantee: a fault-free transport is invisible.

Pins, across the algorithm zoo, that the runner's default routing, an
explicit :class:`LockstepTransport` and a zero-fault
:class:`FaultyTransport` produce **byte-identical** ``repro-trace/1``
streams — and identical metrics and decisions — to the reference
per-inbox sort (:class:`tests.conftest.SortedTransport`).  Timing fields
come from an injected :class:`~repro.obs.telemetry.TickClock`, so byte equality is
exact, not fuzzy.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.standard import RandomizedAdversary
from repro.algorithms.registry import get
from repro.core.runner import run
from repro.obs.events import ListSink
from repro.obs.telemetry import TickClock
from repro.transport.base import LockstepTransport
from repro.transport.faults import FaultPlan
from repro.transport.faulty import FaultyTransport
from tests.conftest import SortedTransport

#: (name, n, t): small-but-real shapes for every registered algorithm
#: family exercised by the fuzz configs.
ZOO = (
    ("dolev-strong", 6, 2),
    ("active-set", 8, 2),
    ("oral-messages", 7, 2),
    ("algorithm-1", 7, 3),
    ("algorithm-2", 5, 2),
    ("algorithm-5", 10, 1),
    ("phase-king", 9, 2),
)

TRANSPORTS = (
    ("sorted-reference", SortedTransport()),
    ("default", None),
    ("lockstep", LockstepTransport()),
    ("faulty-empty", FaultyTransport(FaultPlan())),
)


def trace_bytes(name, n, t, value, adversary, transport):
    sink = ListSink()
    result = run(
        get(name)(n, t),
        value,
        adversary,
        sinks=(sink,),
        clock=TickClock(),
        transport=transport,
    )
    lines = "\n".join(
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in sink.events
    )
    return lines, result


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(ZOO),
    value=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**16),
    corrupt=st.booleans(),
)
def test_fault_free_transports_are_byte_identical(case, value, seed, corrupt):
    name, n, t = case
    reference, result = trace_bytes(
        name,
        n,
        t,
        value,
        RandomizedAdversary([n - 1], seed) if corrupt else None,
        TRANSPORTS[0][1],
    )
    assert result.fault_events == ()
    for label, transport in TRANSPORTS[1:]:
        adversary = RandomizedAdversary([n - 1], seed) if corrupt else None
        candidate, other = trace_bytes(name, n, t, value, adversary, transport)
        assert candidate == reference, f"{name}/{label}: trace diverged"
        assert other.decisions == result.decisions
        assert other.fault_events == ()
        assert (
            other.metrics.messages_by_correct
            == result.metrics.messages_by_correct
        )
        assert (
            other.metrics.signatures_by_correct
            == result.metrics.signatures_by_correct
        )


def test_zero_fault_plan_is_transparent_on_every_zoo_member():
    """Deterministic (non-hypothesis) sweep: the chaos-campaign default of
    an empty plan must never perturb a single algorithm."""
    for name, n, t in ZOO:
        reference, _ = trace_bytes(name, n, t, 1, None, None)
        candidate, result = trace_bytes(
            name, n, t, 1, None, FaultyTransport(FaultPlan())
        )
        assert candidate == reference, name
        assert result.fault_events == ()
