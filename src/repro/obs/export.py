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

Both expositions render their :class:`~repro.core.counters.Counters`
through one function, :func:`_counters_family`: one ``repro_counters_total``
family with one line per field, labelled ``counter=<field name>`` — the
names ``repro loadgen --json`` and ``repro inspect`` use.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # break the cycle: core.runner imports repro.obs.*
    from repro.core.counters import Counters
    from repro.core.runner import RunResult
    from repro.service.stats import LatencySummary, ServiceStats

#: Metric name prefix for every exported Prometheus line.
PROMETHEUS_PREFIX = "repro"


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


def _header(out: list[str], name: str, kind: str, help_text: str) -> None:
    """Emit the HELP/TYPE header for a metric family once."""
    out.append(f"# HELP {PROMETHEUS_PREFIX}_{name} {help_text}")
    out.append(f"# TYPE {PROMETHEUS_PREFIX}_{name} {kind}")


def _counters_family(out: list[str], counters: "Counters") -> None:
    """Emit *counters* as the ``counters_total`` family, one line per field."""
    _header(out, "counters_total", "counter", "Work counts, by counter name")
    for name, value in counters.counts().items():
        out.append(_line("counters_total", value, counter=name))


def prometheus_metrics(result: RunResult) -> str:
    """Render *result* as Prometheus text exposition (trailing newline).

    Counters cover the ledger (messages/signatures split by sender class,
    per phase, per processor) and the run's work counts; gauges cover the
    phase counts and — when the run was instrumented — the wall/CPU
    timings of :class:`~repro.obs.telemetry.RunTelemetry`.
    """
    metrics = result.metrics
    out: list[str] = []
    _header(out, "run_info", "gauge", "Static labels of the traced run")
    out.append(
        _line(
            "run_info",
            1,
            algorithm=result.algorithm_name,
            n=result.n,
            t=result.t,
            transmitter=result.transmitter,
            faults=len(result.faulty),
        )
    )
    _header(out, "messages_total", "counter", "Messages sent, by sender class")
    out.append(_line("messages_total", metrics.messages_by_correct, sender="correct"))
    out.append(_line("messages_total", metrics.messages_by_faulty, sender="faulty"))
    _header(out, "signatures_total", "counter", "Signatures appended, by sender class")
    out.append(
        _line("signatures_total", metrics.signatures_by_correct, sender="correct")
    )
    out.append(
        _line("signatures_total", metrics.signatures_by_faulty, sender="faulty")
    )
    _header(
        out,
        "unsigned_correct_messages_total",
        "counter",
        "Correct-sender messages carrying no signature (Theorem 1 assumption)",
    )
    out.append(
        _line("unsigned_correct_messages_total", metrics.unsigned_correct_messages)
    )
    _header(out, "phase_messages_total", "counter", "Messages sent during each phase")
    for phase in range(1, metrics.phases_configured + 1):
        out.append(
            _line(
                "phase_messages_total",
                metrics.messages_per_phase.get(phase, 0),
                phase=phase,
            )
        )
    _header(out, "phase_signatures_total", "counter", "Signatures appended during each phase")
    for phase in range(1, metrics.phases_configured + 1):
        out.append(
            _line(
                "phase_signatures_total",
                metrics.signatures_per_phase.get(phase, 0),
                phase=phase,
            )
        )
    _header(out, "processor_sent_total", "counter", "Messages sent per processor")
    for pid in range(result.n):
        out.append(
            _line(
                "processor_sent_total",
                metrics.sent_per_processor.get(pid, 0),
                processor=pid,
                role="faulty" if pid in result.faulty else "correct",
            )
        )
    _header(out, "processor_received_total", "counter", "Messages received per processor")
    for pid in range(result.n):
        out.append(
            _line(
                "processor_received_total",
                metrics.received_per_processor.get(pid, 0),
                processor=pid,
            )
        )
    _header(out, "last_active_phase", "gauge", "Highest phase with any traffic")
    out.append(_line("last_active_phase", metrics.last_active_phase))
    _header(out, "phases_configured", "gauge", "Phases the algorithm declared")
    out.append(_line("phases_configured", metrics.phases_configured))
    _counters_family(out, result.counters)

    telemetry = result.telemetry
    if telemetry is not None:
        _header(out, "run_wall_seconds", "gauge", "Wall-clock duration of the run")
        out.append(_line("run_wall_seconds", round(telemetry.wall_s, 9)))
        _header(out, "run_cpu_seconds", "gauge", "Process CPU time of the run")
        out.append(_line("run_cpu_seconds", round(telemetry.cpu_s, 9)))
        _header(out, "phase_wall_seconds", "gauge", "Wall-clock duration per phase")
        for timing in telemetry.per_phase:
            out.append(
                _line("phase_wall_seconds", round(timing.wall_s, 9), phase=timing.phase)
            )
        _header(
            out,
            "processor_handler_wall_seconds",
            "gauge",
            "Wall time inside each correct processor's on_phase handler",
        )
        for pid, seconds in sorted(telemetry.handler_wall_s.items()):
            out.append(
                _line(
                    "processor_handler_wall_seconds",
                    round(seconds, 9),
                    processor=pid,
                )
            )
    return "\n".join(out) + "\n"


def bench_json(result: RunResult) -> dict[str, Any]:
    """*result* as a one-case ``repro-bench/1`` document.

    The case key is ``runner:<algorithm>`` — the same key shape ``repro
    bench`` uses — so ``scripts/bench_compare.py`` can diff this run
    against a committed baseline or against another exported run.
    """
    telemetry = result.telemetry
    seconds = telemetry.wall_s if telemetry is not None else 0.0
    messages = result.metrics.messages_by_correct
    return {
        "schema": "repro-bench/1",
        "source": "repro run --metrics-out",
        "workers": 1,
        "repeat": 1,
        "quick": False,
        "cases": {
            f"runner:{result.algorithm_name}": {
                "kind": "runner",
                "n": result.n,
                "t": result.t,
                "seconds": round(seconds, 6),
                "messages": messages,
                "messages_per_sec": round(messages / seconds, 1) if seconds else None,
            }
        },
    }


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
    _header(out, "service_requests_total", "counter", "Requests served, by verdict")
    out.append(_line("service_requests_total", stats.ok, outcome="ok"))
    out.append(_line("service_requests_total", stats.failed, outcome="failed"))
    _header(
        out,
        "service_algorithm_requests_total",
        "counter",
        "Requests served per algorithm, by verdict",
    )
    for name in sorted(stats.per_algorithm):
        counts = stats.per_algorithm[name]
        out.append(
            _line(
                "service_algorithm_requests_total",
                counts.get("ok", 0),
                algorithm=name,
                outcome="ok",
            )
        )
        out.append(
            _line(
                "service_algorithm_requests_total",
                counts.get("requests", 0) - counts.get("ok", 0),
                algorithm=name,
                outcome="failed",
            )
        )
    _header(out, "service_wall_seconds", "gauge", "Wall-clock duration of the traffic run")
    out.append(_line("service_wall_seconds", round(stats.wall_s, 9)))
    _header(out, "service_waves_total", "counter", "Dispatch waves the scheduler ran")
    out.append(_line("service_waves_total", stats.waves))
    _header(
        out,
        "service_agreements_per_second",
        "gauge",
        "Verdict-ok agreement instances completed per second",
    )
    out.append(
        _line("service_agreements_per_second", round(stats.agreements_per_sec or 0, 3))
    )
    _header(out, "service_requests_per_second", "gauge", "Completions per second")
    out.append(
        _line("service_requests_per_second", round(stats.requests_per_sec or 0, 3))
    )
    _header(
        out,
        "service_messages_per_second",
        "gauge",
        "Correct-sender messages moved per second",
    )
    out.append(
        _line("service_messages_per_second", round(stats.messages_per_sec or 0, 1))
    )
    _header(
        out,
        "service_latency_seconds",
        "summary",
        "Request latency by stage (e2e, queue, service)",
    )
    for stage, summary in (
        ("e2e", stats.e2e),
        ("queue", stats.queue),
        ("service", stats.service),
    ):
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
    seconds = stats.wall_s
    e2e = stats.e2e

    def rounded(value: float | None, digits: int) -> float | None:
        return round(value, digits) if value is not None else None

    return {
        "schema": "repro-bench/1",
        "source": "repro loadgen --metrics-out",
        "workers": 1,
        "repeat": 1,
        "quick": False,
        "cases": {
            case: {
                "kind": "service",
                "requests": stats.requests,
                "ok": stats.ok,
                "failed": stats.failed,
                "waves": stats.waves,
                "seconds": round(seconds, 6),
                "messages": stats.messages_total,
                "messages_per_sec": rounded(stats.messages_per_sec, 1),
                "agreements_per_sec": rounded(stats.agreements_per_sec, 2),
                "p50_s": rounded(e2e.p50_s if e2e else None, 6),
                "p99_s": rounded(e2e.p99_s if e2e else None, 6),
                "unique_runs": stats.unique_runs,
                "dedup_ratio": rounded(stats.dedup_ratio, 2),
            }
        },
    }


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
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(to_json(value), handle, indent=2, sort_keys=True)
            handle.write("\n")
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
