"""Metrics export: Prometheus text exposition and bench-comparable JSON.

Two render targets for one instrumented :class:`~repro.core.runner.RunResult`:

* :func:`prometheus_metrics` — flat counter/gauge lines in the Prometheus
  text exposition format (scrape-friendly, diff-friendly);
* :func:`bench_json` — a ``repro-bench/1`` document whose single case is
  the run itself, so ``scripts/bench_compare.py`` can diff a run's cost
  point against any committed baseline exactly like a ``repro bench``
  basket.

:func:`write_metrics` picks the format from the file extension
(``.json`` → bench JSON, anything else → Prometheus text), which is how
``repro run --metrics-out`` decides what to write.

The service layer exports through the same two paths:
:func:`prometheus_service_metrics` renders a finished traffic run's
:class:`~repro.service.stats.ServiceStats` (request counters, the
agreements/sec product metric, latency summary families with
p50/p95/p99 quantile labels, and its summed
:class:`~repro.core.counters.Counters`), and
:func:`service_bench_json` produces a ``repro-bench/1`` document whose
``service:*`` case carries ``agreements_per_sec`` — the field
``scripts/bench_compare.py --min-service-rate`` gates on.
:func:`write_service_metrics` is the same extension-dispatching writer
behind ``repro loadgen --metrics-out``.  Per-phase wall time is a
run-level family only (``repro_phase_wall_seconds``): the service
never re-runs a request to time it.

The ``repro-bench/1`` format is written here alone: :func:`bench_document`
builds the envelope, one builder per case kind (:func:`runner_case`,
:func:`batch_case`, :func:`sweep_case`, :func:`service_case`) builds a
case, and :func:`write_bench` writes a document.  ``repro bench``
(:mod:`repro.bench`) and both exports above use them.

Both expositions render their :class:`~repro.core.counters.Counters`
through one function, :func:`_counters_family`: one ``repro_counters_total``
family with one line per field, labelled ``counter=<field name>`` — the
names ``repro loadgen --json`` and ``repro inspect`` use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # break the cycle: core.runner imports repro.obs.*
    from repro.analysis.sweep import SweepPoint
    from repro.core.batch import BatchResult
    from repro.core.counters import Counters
    from repro.core.runner import RunResult
    from repro.service.stats import LatencySummary, ServiceStats

#: Metric name prefix for every exported Prometheus line.
PROMETHEUS_PREFIX = "repro"

#: The schema of ``repro bench`` documents and of bench-comparable exports.
BENCH_SCHEMA = "repro-bench/1"


def _escape_label(value: object) -> str:
    """Escape one label value per the Prometheus text-format rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _line(name: str, value: object, **labels: object) -> str:
    """One exposition line: ``name{labels} value``."""
    rendered = ""
    if labels:
        inner = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items()
        )
        rendered = "{" + inner + "}"
    return f"{PROMETHEUS_PREFIX}_{name}{rendered} {value}"


def _family(
    out: list[str], name: str, kind: str, help_text: str,
    *samples: tuple[object, dict[str, object]],
) -> None:
    """Emit one metric family: its HELP/TYPE header, then one line per
    ``(value, labels)`` sample."""
    out.append(f"# HELP {PROMETHEUS_PREFIX}_{name} {help_text}")
    out.append(f"# TYPE {PROMETHEUS_PREFIX}_{name} {kind}")
    out.extend(_line(name, value, **labels) for value, labels in samples)


def _counters_family(out: list[str], counters: "Counters") -> None:
    """Emit *counters* as the ``counters_total`` family, one line per field."""
    _family(out, "counters_total", "counter", "Work counts, by counter name",
            *((value, {"counter": name}) for name, value in counters.counts().items()))


def prometheus_metrics(result: RunResult) -> str:
    """Render *result* as Prometheus text exposition (trailing newline).

    Counters cover the ledger (messages/signatures split by sender class,
    per phase, per processor) and the run's work counts; gauges cover the
    phase counts and — when the run was instrumented — the wall/CPU
    timings of :class:`~repro.obs.telemetry.RunTelemetry`.
    """
    metrics = result.metrics
    phases, pids = range(1, metrics.phases_configured + 1), range(result.n)
    out: list[str] = []
    _family(out, "run_info", "gauge", "Static labels of the traced run", (1, {
        "algorithm": result.algorithm_name, "n": result.n, "t": result.t,
        "transmitter": result.transmitter, "faults": len(result.faulty),
    }))
    _family(out, "messages_total", "counter", "Messages sent, by sender class",
            (metrics.messages_by_correct, {"sender": "correct"}),
            (metrics.messages_by_faulty, {"sender": "faulty"}))
    _family(out, "signatures_total", "counter", "Signatures appended, by sender class",
            (metrics.signatures_by_correct, {"sender": "correct"}),
            (metrics.signatures_by_faulty, {"sender": "faulty"}))
    _family(out, "unsigned_correct_messages_total", "counter",
            "Correct-sender messages carrying no signature (Theorem 1 assumption)",
            (metrics.unsigned_correct_messages, {}))
    _family(out, "phase_messages_total", "counter", "Messages sent during each phase",
            *((metrics.messages_per_phase.get(p, 0), {"phase": p}) for p in phases))
    _family(out, "phase_signatures_total", "counter", "Signatures appended during each phase",
            *((metrics.signatures_per_phase.get(p, 0), {"phase": p}) for p in phases))
    _family(out, "processor_sent_total", "counter", "Messages sent per processor", *(
        (metrics.sent_per_processor.get(pid, 0),
         {"processor": pid, "role": "faulty" if pid in result.faulty else "correct"})
        for pid in pids
    ))
    _family(out, "processor_received_total", "counter", "Messages received per processor",
            *((metrics.received_per_processor.get(pid, 0), {"processor": pid}) for pid in pids))
    _family(out, "last_active_phase", "gauge", "Highest phase with any traffic",
            (metrics.last_active_phase, {}))
    _family(out, "phases_configured", "gauge", "Phases the algorithm declared",
            (metrics.phases_configured, {}))
    _counters_family(out, result.counters)

    telemetry = result.telemetry
    if telemetry is not None:
        _family(out, "run_wall_seconds", "gauge", "Wall-clock duration of the run",
                (round(telemetry.wall_s, 9), {}))
        _family(out, "run_cpu_seconds", "gauge", "Process CPU time of the run",
                (round(telemetry.cpu_s, 9), {}))
        _family(out, "phase_wall_seconds", "gauge", "Wall-clock duration per phase",
                *((round(p.wall_s, 9), {"phase": p.phase}) for p in telemetry.per_phase))
        _family(out, "processor_handler_wall_seconds", "gauge",
                "Wall time inside each correct processor's on_phase handler",
                *((round(seconds, 9), {"processor": pid})
                  for pid, seconds in sorted(telemetry.handler_wall_s.items())))
    return "\n".join(out) + "\n"


def bench_document(
    cases: dict[str, dict[str, Any]],
    *,
    workers: int = 1,
    repeat: int = 1,
    quick: bool = False,
    **extra: Any,
) -> dict[str, Any]:
    """The ``repro-bench/1`` envelope around *cases*; *extra* holds
    ``trials`` for ``repro bench`` and ``source`` for an export."""
    return {
        "schema": BENCH_SCHEMA, "workers": workers, "repeat": repeat,
        "quick": quick, "cases": cases, **extra,
    }


def _per_sec(count: float, seconds: float, digits: int) -> float | None:
    return round(count / seconds, digits) if seconds > 0 else None


def _timing(seconds: float, messages: int) -> dict[str, Any]:
    """The fields of every case: its seconds and the messages moved in them."""
    return {
        "seconds": round(seconds, 6),
        "messages": messages,
        "messages_per_sec": _per_sec(messages, seconds, 1),
    }


def runner_case(result: RunResult, seconds: float) -> dict[str, Any]:
    """A ``runner:*`` case: one scalar run."""
    return {
        "kind": "runner", "n": result.n, "t": result.t,
        **_timing(seconds, result.metrics.messages_by_correct),
    }


def batch_case(
    batch: "BatchResult", seconds: float, *, name: str, n: int, t: int
) -> dict[str, Any]:
    """A ``batch:*`` case: one ``run_batch`` call of *name*, rated against
    the scalar case ``runner:<name>``."""
    stats, rate = batch.stats, batch.stats.digest_hit_rate
    return {
        "kind": "batch", "n": n, "t": t, "runs": stats.runs,
        "unique_runs": stats.unique_runs, "kernel_runs": stats.kernel_runs,
        "digest_hit_rate": round(rate, 4) if rate is not None else None,
        "baseline_case": f"runner:{name}",
        **_timing(seconds, sum(o.messages_by_correct for o in batch.outcomes)),
    }


def sweep_case(
    points: Sequence["SweepPoint"], seconds: float, *, workers: int
) -> dict[str, Any]:
    """A ``sweep:*`` case: one parallel sweep over *workers* processes."""
    return {
        "kind": "sweep", "scenarios": len(points), "workers": workers,
        "scenarios_per_sec": _per_sec(len(points), seconds, 2),
        **_timing(seconds, sum(point.messages for point in points)),
    }


def service_case(stats: "ServiceStats", seconds: float, **extra: Any) -> dict[str, Any]:
    """A ``service:*`` case: one traffic run, its rates over *seconds*.

    ``agreements_per_sec`` is what ``bench_compare.py --min-service-rate``
    gates.  *extra* holds the ``fault_rate`` of a ``repro bench`` row.
    """
    e2e, dedup = stats.e2e, stats.dedup_ratio
    return {
        "kind": "service", "requests": stats.requests, "ok": stats.ok,
        "failed": stats.failed, "waves": stats.waves,
        "agreements_per_sec": _per_sec(stats.ok, seconds, 2),
        "p50_s": round(e2e.p50_s, 6) if e2e is not None else None,
        "p99_s": round(e2e.p99_s, 6) if e2e is not None else None,
        "unique_runs": stats.unique_runs,
        "dedup_ratio": round(dedup, 2) if dedup is not None else None,
        **_timing(seconds, stats.messages_total),
        **extra,
    }


def write_bench(document: dict[str, Any], path: str | Path) -> None:
    """Write a ``repro-bench/1`` *document* to *path*, keys sorted."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def bench_json(result: RunResult) -> dict[str, Any]:
    """*result* as a one-case ``repro-bench/1`` document.

    The case key is ``runner:<algorithm>`` — the same key shape ``repro
    bench`` uses — so ``scripts/bench_compare.py`` can diff this run
    against a committed baseline or against another exported run.
    """
    telemetry = result.telemetry
    case = runner_case(result, telemetry.wall_s if telemetry is not None else 0.0)
    return bench_document(
        {f"runner:{result.algorithm_name}": case}, source="repro run --metrics-out"
    )


def _summary_lines(
    out: list[str], name: str, summary: "LatencySummary", **labels: object
) -> None:
    """Emit one Prometheus summary family instance from a LatencySummary."""
    for quantile, value in (
        ("0.5", summary.p50_s),
        ("0.95", summary.p95_s),
        ("0.99", summary.p99_s),
    ):
        out.append(_line(name, round(value, 9), **labels, quantile=quantile))
    out.append(_line(f"{name}_count", summary.count, **labels))
    out.append(_line(f"{name}_sum", round(summary.mean_s * summary.count, 9), **labels))


def prometheus_service_metrics(stats: "ServiceStats") -> str:
    """Render a traffic run's :class:`ServiceStats` as Prometheus text.

    Families: request counters by outcome and by algorithm, the
    agreements/sec / requests/sec / messages/sec gauges, one summary per
    latency stage (``e2e`` / ``queue`` / ``service``), and the summed
    :class:`~repro.core.counters.Counters` (run dedup, digest table,
    setup cache).
    """
    out: list[str] = []
    _family(out, "service_requests_total", "counter", "Requests served, by verdict",
            (stats.ok, {"outcome": "ok"}), (stats.failed, {"outcome": "failed"}))
    _family(out, "service_algorithm_requests_total", "counter",
            "Requests served per algorithm, by verdict", *(
                (count, {"algorithm": name, "outcome": outcome})
                for name, counts in sorted(stats.per_algorithm.items())
                for outcome, count in (
                    ("ok", counts.get("ok", 0)),
                    ("failed", counts.get("requests", 0) - counts.get("ok", 0)),
                )
            ))
    _family(out, "service_wall_seconds", "gauge", "Wall-clock duration of the traffic run",
            (round(stats.wall_s, 9), {}))
    _family(out, "service_waves_total", "counter", "Dispatch waves the scheduler ran",
            (stats.waves, {}))
    _family(out, "service_agreements_per_second", "gauge",
            "Verdict-ok agreement instances completed per second",
            (round(stats.agreements_per_sec or 0, 3), {}))
    _family(out, "service_requests_per_second", "gauge", "Completions per second",
            (round(stats.requests_per_sec or 0, 3), {}))
    _family(out, "service_messages_per_second", "gauge",
            "Correct-sender messages moved per second",
            (round(stats.messages_per_sec or 0, 1), {}))
    _family(out, "service_latency_seconds", "summary",
            "Request latency by stage (e2e, queue, service)")
    for stage, summary in (("e2e", stats.e2e), ("queue", stats.queue), ("service", stats.service)):
        if summary is not None:
            _summary_lines(out, "service_latency_seconds", summary, stage=stage)
    _counters_family(out, stats)
    return "\n".join(out) + "\n"


def service_bench_json(
    stats: "ServiceStats", case: str = "service:loadgen"
) -> dict[str, Any]:
    """*stats* as a one-case ``repro-bench/1`` document.

    The case key follows the ``service:*`` convention of ``repro bench``,
    so the document diffs against a committed baseline and passes the
    ``--min-service-rate`` floor of ``scripts/bench_compare.py``.
    """
    return bench_document(
        {case: service_case(stats, stats.wall_s)},
        source="repro loadgen --metrics-out",
    )


def _write(
    path: str | Path,
    value: Any,
    to_json: Callable[[Any], dict[str, Any]],
    to_text: Callable[[Any], str],
) -> str:
    """Write *value* to *path*: ``.json`` gets *to_json*, anything else *to_text*.

    Returns the format written (``"json"`` or ``"prometheus"``).
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        write_bench(to_json(value), path)
        return "json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_text(value))
    return "prometheus"


def write_service_metrics(stats: "ServiceStats", path: str | Path) -> str:
    """Write a traffic run's metrics; the extension picks the format.

    ``.json`` gets :func:`service_bench_json`; anything else gets
    :func:`prometheus_service_metrics`.  Returns the format written.
    """
    return _write(path, stats, service_bench_json, prometheus_service_metrics)


def write_metrics(result: RunResult, path: str | Path) -> str:
    """Write *result*'s metrics to *path*; the extension picks the format.

    ``.json`` gets the :func:`bench_json` document; everything else
    (conventionally ``.prom`` or ``.txt``) gets :func:`prometheus_metrics`.
    Returns the format written (``"json"`` or ``"prometheus"``).
    """
    return _write(path, result, bench_json, prometheus_metrics)
