"""The Transport protocol: who owns phase delivery, and the lockstep backend.

The runner's synchronous model says *what* is delivered (everything sent
in phase ``k`` arrives at the beginning of ``k + 1``); a
:class:`Transport` decides *whether and when*.  The runner collects every
phase's envelopes — correct traffic first, in ascending pid order, then
the adversary's — and hands the batch to the transport, which returns the
next phase's inboxes and may record ``fault`` events for anything it did
to the traffic along the way.

:class:`LockstepTransport` is the perfect network and the runner's
default: it routes with :func:`_route_merged`, which the equivalence
tests in ``tests/`` pin byte for byte against the reference
:func:`_route_sorted`.  :class:`~repro.transport.faulty.FaultyTransport`
decorates any base transport with a
:class:`~repro.transport.faults.FaultPlan`.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.core.message import Envelope
from repro.core.types import ProcessorId


def _route_sorted(sent: list[Envelope]) -> dict[ProcessorId, list[Envelope]]:
    """Reference delivery: bucket every sent envelope by destination, then
    stable-sort each inbox by source.

    This is the seed implementation, kept verbatim as the oracle of the
    routing equivalence tests; production runs use :func:`_route_merged`.
    """
    pending: dict[ProcessorId, list[Envelope]] = {}
    for envelope in sent:
        pending.setdefault(envelope.dst, []).append(envelope)
    for inbox in pending.values():
        inbox.sort(key=lambda e: e.src)
    return pending


def _merge_by_src(base: list[Envelope], extra: list[Envelope]) -> list[Envelope]:
    """Merge two src-sorted envelope lists, *base* winning ties.

    Correct and faulty sender sets are disjoint, so ties cannot actually
    occur; base-first matches the stable sort of the reference routing.
    """
    merged: list[Envelope] = []
    i = j = 0
    while i < len(base) and j < len(extra):
        if extra[j].src < base[i].src:
            merged.append(extra[j])
            j += 1
        else:
            merged.append(base[i])
            i += 1
    merged.extend(base[i:])
    merged.extend(extra[j:])
    return merged


def _route_merged(
    sent: list[Envelope], correct_count: int
) -> dict[ProcessorId, list[Envelope]]:
    """Optimised delivery: exploit that the first *correct_count* envelopes
    of *sent* were produced by iterating correct processors in ascending pid
    order, so per destination they are already sorted by source.  Only the
    adversary's sends (which may name sources in any order) are sorted, and
    the two src-sorted streams merge in linear time.
    """
    pending: dict[ProcessorId, list[Envelope]] = {}
    for envelope in sent[:correct_count]:
        pending.setdefault(envelope.dst, []).append(envelope)
    if correct_count < len(sent):
        adversarial: dict[ProcessorId, list[Envelope]] = {}
        for envelope in sent[correct_count:]:
            adversarial.setdefault(envelope.dst, []).append(envelope)
        for dst, extra in adversarial.items():
            extra.sort(key=lambda e: e.src)
            base = pending.get(dst)
            pending[dst] = extra if base is None else _merge_by_src(base, extra)
    return pending


@runtime_checkable
class Transport(Protocol):
    """Owns message delivery for one run at a time.

    The runner drives the lifecycle: one :meth:`begin_run`, then one
    :meth:`deliver` per phase (with :meth:`drain_faults` after each),
    then one :meth:`end_run`.  Implementations may keep per-run state
    (delayed messages, fault counters); ``begin_run`` must reset it so a
    transport instance can be reused across sequential runs.
    """

    def begin_run(self) -> None:
        """Reset per-run state; called once before phase 1."""
        ...

    def deliver(
        self, phase: int, sent: list[Envelope], correct_count: int
    ) -> dict[ProcessorId, list[Envelope]]:
        """Route the envelopes sent in *phase* into phase ``phase + 1``
        inboxes (each inbox sorted by source).

        The first *correct_count* envelopes of *sent* were produced by
        iterating correct processors in ascending pid order — the
        precondition the merge-based routing exploits.
        """
        ...

    def drain_faults(self) -> list[dict[str, Any]]:
        """Fault events recorded since the last drain (empty when clean)."""
        ...

    def end_run(self) -> list[dict[str, Any]]:
        """Close the run; returns events for anything still in flight."""
        ...


class LockstepTransport:
    """The perfect synchronous network — byte-identical to the seed routing.

    Stateless, so one instance is safely shared across runs (the runner
    keeps one for every run given no transport).
    """

    __slots__ = ()

    def begin_run(self) -> None:
        """Nothing to reset — the perfect network is stateless."""

    def deliver(
        self, phase: int, sent: list[Envelope], correct_count: int
    ) -> dict[ProcessorId, list[Envelope]]:
        """Route everything, losing nothing: the paper's synchronous model."""
        return _route_merged(sent, correct_count)

    def drain_faults(self) -> list[dict[str, Any]]:
        """A perfect network records no faults."""
        return []

    def end_run(self) -> list[dict[str, Any]]:
        """Nothing in flight: lock-step delivery never buffers."""
        return []
