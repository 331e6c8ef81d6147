"""The variable-round runner refactor must be invisible to the exact zoo.

The runner gained a termination-by-predicate mode for the randomized
workloads (``algorithm.variable_rounds`` + ``Processor.has_terminated``).
These properties pin the refactor's no-regression contract for every
fixed-round algorithm:

* ``has_terminated`` is **never consulted** — a poisoned override that
  raises on call must not fire (the fast path pays zero per-phase cost);
* decisions, the metrics ledger, and the full ``repro-trace/1`` event
  stream are **identical** between the default routing and the sorted
  reference (``SortedTransport``) and across repeated runs (byte-identity
  via deterministic :class:`TickClock` traces);
* a coin-less run's ``run_start`` event carries **no** ``coin_seed`` key,
  so pre-refactor trace files and fresh ones stay byte-comparable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.standard import RandomizedAdversary
from repro.algorithms.registry import ALGORITHMS
from repro.core.protocol import Processor
from repro.core.runner import run
from repro.obs import ListSink, TickClock
from tests.conftest import SortedTransport

#: One modest (n, t) per zoo algorithm — enough processors for every
#: resilience precondition, small enough for a hypothesis ensemble.
ZOO_SIZES = {
    "dolev-strong": (5, 2),
    "active-set": (5, 2),
    "oral-messages": (7, 2),
    "algorithm-1": (5, 2),
    "algorithm-2": (5, 2),
    "algorithm-3": (5, 2),
    "algorithm-5": (9, 1),
    "informed-algorithm-2": (5, 2),
    "phase-king": (5, 1),
}


def _zoo():
    for name, (n, t) in sorted(ZOO_SIZES.items()):
        yield name, ALGORITHMS[name](n, t)


def _traced_run(algorithm, value, adversary, transport=None):
    sink = ListSink()
    result = run(
        algorithm,
        value,
        adversary,
        transport=transport,
        sinks=(sink,),
        collect_telemetry=True,
        clock=TickClock(),
    )
    return result, sink.events


class PoisonedTermination:
    """Patch target: any has_terminated call on the fixed-round path is a bug."""

    def __call__(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError(
            "Processor.has_terminated was consulted for a fixed-round algorithm"
        )


@pytest.mark.parametrize("name", sorted(ZOO_SIZES))
def test_fixed_round_zoo_never_consults_has_terminated(name, monkeypatch):
    monkeypatch.setattr(Processor, "has_terminated", PoisonedTermination())
    n, t = ZOO_SIZES[name]
    algorithm = ALGORITHMS[name](n, t)
    result = run(algorithm, 1)
    assert result.decisions, name


@pytest.mark.parametrize("name", sorted(ZOO_SIZES))
def test_coinless_run_start_event_has_no_coin_seed(name):
    n, t = ZOO_SIZES[name]
    algorithm = ALGORITHMS[name](n, t)
    _, events = _traced_run(algorithm, 1, None)
    run_start = events[0]
    assert run_start["event"] == "run_start"
    assert "coin_seed" not in run_start


@st.composite
def adversary_case(draw):
    seed = draw(st.integers(0, 2**31))
    value = draw(st.sampled_from([0, 1]))
    pick_faulty = draw(st.booleans())
    return seed, value, pick_faulty


@given(adversary_case())
@settings(max_examples=15, deadline=None)
def test_zoo_runs_identical_across_delivery_modes(case):
    """Decisions, ledger, and trace events agree between the default
    routing and the sorted reference, and between repeated runs, for
    every zoo member."""
    seed, value, pick_faulty = case
    for name, _ in _zoo():
        n, t = ZOO_SIZES[name]

        def scenario(transport=None):
            # Fresh algorithm and adversary per run: RandomizedAdversary
            # draws from an internal RNG, so reuse would diverge.
            algorithm = ALGORITHMS[name](n, t)
            adversary = (
                RandomizedAdversary([n - 1, n - 2][:t], seed)
                if pick_faulty
                else None
            )
            return _traced_run(algorithm, value, adversary, transport)

        merged, merged_events = scenario()
        again, again_events = scenario()
        sorted_, sorted_events = scenario(SortedTransport())

        assert merged.decisions == again.decisions == sorted_.decisions, name
        assert merged.metrics == again.metrics == sorted_.metrics, name
        assert merged_events == again_events, f"{name}: rerun trace drifted"
        assert merged_events == sorted_events, f"{name}: delivery trace drifted"
        assert merged.coin_seed is None, name
