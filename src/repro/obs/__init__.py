"""Structured run telemetry: event tracing, phase timing, metrics export.

The observability layer over the lock-step runner.  Three pieces:

* :mod:`repro.obs.events` — the ``EventSink`` protocol and the
  ``repro-trace/1`` JSONL sink the runner streams schema-versioned events
  into (``run_start``, ``phase_start``, ``send``, ``deliver``, ``decide``,
  ``run_end``);
* :mod:`repro.obs.telemetry` — ``RunTelemetry`` phase/handler timing
  with an injectable ``Clock`` for deterministic tests;
* :mod:`repro.obs.export` / :mod:`repro.obs.inspect` — render a finished
  run as Prometheus text or bench-comparable JSON, and summarise a saved
  trace back into per-phase histograms and adaptive-cost figures.

See ``docs/telemetry.md`` for the trace schema and worked examples, and
``docs/architecture.md`` for where this layer sits in the package map.
"""
