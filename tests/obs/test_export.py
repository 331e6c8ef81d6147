"""Tests for the metrics exporters (Prometheus text + bench JSON)."""

import json
import sys
from pathlib import Path

from repro.adversary.standard import SilentAdversary
from repro.algorithms.registry import get
from repro.core.runner import run
from repro.obs.export import bench_json, prometheus_metrics, write_metrics
from repro.obs.telemetry import TickClock

SCRIPTS = str(Path(__file__).resolve().parents[2] / "scripts")


def instrumented_run(name="algorithm-1", n=7, t=3, adversary=None):
    return run(
        get(name)(n, t), 1, adversary, collect_telemetry=True, clock=TickClock()
    )


class TestPrometheus:
    def test_counters_match_the_ledger(self):
        result = instrumented_run()
        text = prometheus_metrics(result)
        assert (
            f'repro_messages_total{{sender="correct"}} '
            f"{result.metrics.messages_by_correct}" in text
        )
        assert (
            f'repro_signatures_total{{sender="correct"}} '
            f"{result.metrics.signatures_by_correct}" in text
        )

    def test_every_configured_phase_exported(self):
        result = instrumented_run()
        text = prometheus_metrics(result)
        for phase in range(1, result.metrics.phases_configured + 1):
            assert f'repro_phase_messages_total{{phase="{phase}"}}' in text

    def test_help_and_type_headers_present(self):
        text = prometheus_metrics(instrumented_run())
        assert "# HELP repro_messages_total" in text
        assert "# TYPE repro_messages_total counter" in text
        assert "# TYPE repro_run_wall_seconds gauge" in text

    def test_faulty_role_labels(self):
        result = run(
            get("dolev-strong")(5, 1),
            1,
            SilentAdversary([2]),
            collect_telemetry=True,
            clock=TickClock(),
        )
        text = prometheus_metrics(result)
        assert 'repro_processor_sent_total{processor="2",role="faulty"}' in text
        assert 'repro_run_info{algorithm="dolev-strong"' in text

    def test_uninstrumented_run_exports_without_timing_block(self):
        result = run(get("dolev-strong")(4, 1), 1)
        text = prometheus_metrics(result)
        assert "repro_messages_total" in text
        assert "repro_run_wall_seconds" not in text

    def test_label_escaping(self):
        from repro.obs.export import _escape_label

        assert _escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


class TestBenchJson:
    def test_document_shape(self):
        document = bench_json(instrumented_run())
        assert document["schema"] == "repro-bench/1"
        case = document["cases"]["runner:algorithm-1"]
        assert case["n"] == 7 and case["t"] == 3
        assert case["seconds"] > 0
        assert case["messages"] > 0

    def test_accepted_by_bench_compare(self, tmp_path):
        sys.path.insert(0, SCRIPTS)
        try:
            import bench_compare
        finally:
            sys.path.remove(SCRIPTS)
        path = tmp_path / "m.json"
        assert write_metrics(instrumented_run(), path) == "json"
        document = bench_compare.load_bench(str(path))
        assert bench_compare.compare(document, document, 0.25) == 0


class TestWriteMetrics:
    def test_extension_selects_format(self, tmp_path):
        result = instrumented_run()
        prom = tmp_path / "m.prom"
        as_json = tmp_path / "m.json"
        assert write_metrics(result, prom) == "prometheus"
        assert write_metrics(result, as_json) == "json"
        assert prom.read_text(encoding="utf-8").startswith("# HELP")
        assert json.loads(as_json.read_text(encoding="utf-8"))["schema"] == (
            "repro-bench/1"
        )
