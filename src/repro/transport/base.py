"""The Transport protocol: who owns phase delivery, and the lockstep backend.

The runner's synchronous model says *what* is delivered (everything sent
in phase ``k`` arrives at the beginning of ``k + 1``); a
:class:`Transport` decides *whether and when*.  The runner collects every
phase's envelopes and hands the batch to the transport, which returns the
next phase's inboxes and may record ``fault`` events for anything it did
to the traffic along the way.

:func:`route` is the one router, and both transports end a phase with it.
:class:`LockstepTransport` is the perfect network and the runner's
default; :class:`~repro.transport.faulty.FaultyTransport` applies a
:class:`~repro.transport.faults.FaultPlan` to the traffic before routing
what survives.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Protocol, runtime_checkable

from repro.core.message import Envelope
from repro.core.types import ProcessorId

_BY_SRC = attrgetter("src")


def route(sent: list[Envelope]) -> dict[ProcessorId, list[Envelope]]:
    """Bucket one phase's envelopes into inboxes keyed by destination.

    Each inbox is ordered by source, and envelopes from one source keep
    the order they were sent in: one stable sort of a copy of *sent*,
    then one pass that buckets it.  *sent* itself is left as it was.
    """
    inboxes: dict[ProcessorId, list[Envelope]] = {}
    for envelope in sorted(sent, key=_BY_SRC):
        inboxes.setdefault(envelope.dst, []).append(envelope)
    return inboxes


@runtime_checkable
class Transport(Protocol):
    """Owns message delivery for one run.

    The runner calls :meth:`deliver` once per phase, with
    :meth:`drain_faults` after each, then :meth:`end_run` once.
    """

    def deliver(
        self, phase: int, sent: list[Envelope]
    ) -> dict[ProcessorId, list[Envelope]]:
        """Route the envelopes sent in *phase* into phase ``phase + 1``
        inboxes, each sorted by source as :func:`route` sorts it."""
        ...

    def drain_faults(self) -> list[dict[str, Any]]:
        """Fault events recorded since the last drain (empty when clean)."""
        ...

    def end_run(self) -> list[dict[str, Any]]:
        """Close the run; returns events for anything still in flight."""
        ...


class LockstepTransport:
    """The perfect synchronous network.

    Stateless, so one instance is safely shared across runs (the runner
    keeps one for every run given no transport).
    """

    __slots__ = ()

    def deliver(
        self, phase: int, sent: list[Envelope]
    ) -> dict[ProcessorId, list[Envelope]]:
        """Route everything, losing nothing: the paper's synchronous model."""
        return route(sent)

    def drain_faults(self) -> list[dict[str, Any]]:
        """A perfect network records no faults."""
        return []

    def end_run(self) -> list[dict[str, Any]]:
        """Nothing in flight: lock-step delivery never buffers."""
        return []
