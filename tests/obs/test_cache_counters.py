"""Cache-counter telemetry: digest memo and canonical fast-path accounting.

Telemetry runs report how much signature-digest work was answered from the
batch engine's shared digest table versus computed fresh, and how often
``canonical()`` took the all-primitives shortcut.  ``repro inspect``
renders both pairs on a ``caches`` line.
"""

from repro.algorithms.registry import get
from repro.core.runner import run
from repro.crypto.signatures import InternedSignatureService, SharedDigestTable
from repro.obs import JsonlTraceSink, TickClock, summarize_trace
from repro.obs.inspect import render_summary


class TestTelemetryCounters:
    def test_authenticated_run_populates_digest_counters(self):
        result = run(get("dolev-strong")(5, 2), 1, collect_telemetry=True)
        telemetry = result.telemetry
        assert telemetry is not None
        # The base service has no digest table: every chain link pays
        # one digest, counted as a miss.
        assert telemetry.digest_memo_misses > 0
        assert telemetry.digest_memo_hits == 0
        assert telemetry.canonical_fast_hits + telemetry.canonical_slow_hits > 0

    def test_interned_service_turns_repeat_digests_into_hits(self):
        # The batch engine's service interns payloads by value, so
        # re-verifying equal chain bodies is answered from the table.
        service = InternedSignatureService(SharedDigestTable())
        result = run(
            get("dolev-strong")(5, 2), 1,
            collect_telemetry=True, service=service,
        )
        assert result.telemetry is not None
        assert result.telemetry.digest_memo_hits > 0

    def test_counters_are_per_run_deltas(self):
        # Two identical runs see identical counters: the second run must
        # not inherit the first run's totals.
        first = run(get("algorithm-3")(9, 2), 1, collect_telemetry=True)
        second = run(get("algorithm-3")(9, 2), 1, collect_telemetry=True)
        assert first.telemetry is not None and second.telemetry is not None
        assert second.telemetry.digest_memo_hits == first.telemetry.digest_memo_hits
        assert (
            second.telemetry.digest_memo_misses
            == first.telemetry.digest_memo_misses
        )
        assert (
            second.telemetry.canonical_fast_hits
            == first.telemetry.canonical_fast_hits
        )

    def test_counters_survive_the_json_round_trip(self):
        result = run(get("dolev-strong")(5, 1), 0, collect_telemetry=True)
        assert result.telemetry is not None
        document = result.telemetry.to_json_dict()
        assert document["digest_memo_hits"] == result.telemetry.digest_memo_hits
        assert document["digest_memo_misses"] == result.telemetry.digest_memo_misses
        assert document["canonical_fast_hits"] == result.telemetry.canonical_fast_hits
        assert document["canonical_slow_hits"] == result.telemetry.canonical_slow_hits


class TestInspectRendering:
    def test_inspect_renders_the_caches_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            run(get("dolev-strong")(5, 1), 1, sinks=(sink,), clock=TickClock())
        rendered = render_summary(summarize_trace(path))
        cache_lines = [
            line for line in rendered.splitlines() if line.startswith("caches")
        ]
        assert len(cache_lines) == 1
        assert "digest memo" in cache_lines[0]
        assert "canonical fast path" in cache_lines[0]
