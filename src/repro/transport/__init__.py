"""Pluggable transport layer: who owns message delivery.

The lock-step runner used to hard-code perfect delivery; this package
makes delivery a :class:`~repro.transport.base.Transport` seam:

* :func:`~repro.transport.base.route` — the one router, which both
  transports end a phase with (pinned against a per-inbox reference by
  the tests in ``tests/transport``);
* :class:`~repro.transport.base.LockstepTransport` — the perfect
  synchronous network;
* :class:`~repro.transport.faulty.FaultyTransport` — a transport driven
  by a seeded, picklable :class:`~repro.transport.faults.FaultPlan`
  injecting crash-stop (with optional recovery), send/receive omissions,
  link drops, delays, duplicates, and partitions, each recorded as a
  schema-versioned ``fault`` event in the ``repro-trace/1`` stream.

The fault vocabulary and the benign/Byzantine classification rationale
live in :mod:`repro.transport.faults`; ``docs/architecture.md`` has the
life-of-a-message walk-through and ``docs/telemetry.md`` the event
schema.
"""
