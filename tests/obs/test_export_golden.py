"""Golden-file tests for the Prometheus text renderings.

The golden files under ``tests/obs/golden/`` pin the full exposition
byte-for-byte: family names, HELP/TYPE headers, label sets and value
formatting.  Regenerate them by running this module as a script::

    PYTHONPATH=src python tests/obs/test_export_golden.py

and review the diff — a golden change is an exporter API change.
"""

import json
from pathlib import Path

from repro.algorithms.registry import get
from repro.core.runner import run
from repro.obs.export import (
    prometheus_metrics,
    prometheus_service_metrics,
    service_bench_json,
    write_service_metrics,
)
from repro.obs.telemetry import TickClock
from repro.service.stats import LatencySummary, ServiceStats

GOLDEN = Path(__file__).parent / "golden"


def golden_run_metrics() -> str:
    """A deterministic instrumented run (TickClock pins the timings)."""
    result = run(
        get("algorithm-1")(7, 3), 1, collect_telemetry=True, clock=TickClock()
    )
    return prometheus_metrics(result)


def golden_service_stats() -> ServiceStats:
    """A fully pinned synthetic traffic summary (no clocks involved)."""
    summary = LatencySummary(
        count=4, mean_s=0.25, p50_s=0.2, p95_s=0.4, p99_s=0.4, max_s=0.4
    )
    queue = LatencySummary(
        count=4, mean_s=0.05, p50_s=0.04, p95_s=0.08, p99_s=0.08, max_s=0.08
    )
    service = LatencySummary(
        count=4, mean_s=0.2, p50_s=0.16, p95_s=0.32, p99_s=0.32, max_s=0.32
    )
    return ServiceStats(
        requests=4,
        ok=3,
        failed=1,
        wall_s=2.0,
        waves=2,
        messages_total=1200,
        signatures_total=340,
        unique_runs=2,
        replicated_runs=1,
        kernel_runs=1,
        scalar_runs=1,
        digest_hits=90,
        digest_misses=10,
        setup_hits=3,
        setup_misses=1,
        e2e=summary,
        queue=queue,
        service=service,
        per_algorithm={
            "phase-king": {"requests": 3, "ok": 3},
            "ben-or": {"requests": 1, "ok": 0},
        },
    )


def golden_service_metrics() -> str:
    return prometheus_service_metrics(golden_service_stats())


class TestGoldenRenderings:
    def test_run_prometheus_matches_golden(self):
        expected = (GOLDEN / "run_metrics.prom").read_text(encoding="utf-8")
        assert golden_run_metrics() == expected

    def test_service_prometheus_matches_golden(self):
        expected = (GOLDEN / "service_metrics.prom").read_text(encoding="utf-8")
        assert golden_service_metrics() == expected

    def test_service_families_present(self):
        text = golden_service_metrics()
        for family, kind in [
            ("repro_service_requests_total", "counter"),
            ("repro_service_agreements_per_second", "gauge"),
            ("repro_service_latency_seconds", "summary"),
            ("repro_counters_total", "counter"),
        ]:
            assert f"# TYPE {family} {kind}" in text
        assert 'repro_counters_total{counter="unique_runs"} 2' in text
        assert 'repro_counters_total{counter="setup_misses"} 1' in text

    def test_summary_quantiles_and_count_sum(self):
        text = golden_service_metrics()
        assert (
            'repro_service_latency_seconds{stage="e2e",quantile="0.5"} 0.2'
            in text
        )
        assert (
            'repro_service_latency_seconds{stage="queue",quantile="0.99"} 0.08'
            in text
        )
        assert 'repro_service_latency_seconds_count{stage="e2e"} 4' in text
        assert 'repro_service_latency_seconds_sum{stage="e2e"} 1.0' in text


class TestServiceBenchJson:
    def test_document_shape(self):
        document = service_bench_json(golden_service_stats(), case="service:x")
        assert document["schema"] == "repro-bench/1"
        case = document["cases"]["service:x"]
        assert case["kind"] == "service"
        assert case["requests"] == 4
        assert case["agreements_per_sec"] == 1.5
        assert case["p50_s"] == 0.2
        assert case["p99_s"] == 0.4
        assert case["seconds"] == 2.0
        assert case["dedup_ratio"] == 2.0

    def test_write_dispatches_on_extension(self, tmp_path):
        stats = golden_service_stats()
        assert write_service_metrics(stats, tmp_path / "m.prom") == "prometheus"
        assert write_service_metrics(stats, tmp_path / "m.json") == "json"
        text = (tmp_path / "m.prom").read_text(encoding="utf-8")
        assert text == golden_service_metrics()
        document = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert "service:loadgen" in document["cases"]


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "run_metrics.prom").write_text(
        golden_run_metrics(), encoding="utf-8"
    )
    (GOLDEN / "service_metrics.prom").write_text(
        golden_service_metrics(), encoding="utf-8"
    )
    print(f"regenerated goldens under {GOLDEN}")
