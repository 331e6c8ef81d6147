"""Per-run work counters: every digest a run makes lands in its ``Counters``.

A run's signature service counts each payload digest — answered from the
batch engine's shared digest table (a hit) or computed (a miss) — into
its own :class:`~repro.core.counters.Counters`.  ``run()`` returns that
value as ``RunResult.counters``, the trace's ``run_end`` event records
it, and ``repro inspect`` renders it on a ``counters`` line.  Tracing a
run does not change it.
"""

import json

import pytest

from repro.algorithms.registry import get
from repro.core.runner import run
from repro.crypto.signatures import InternedSignatureService, SharedDigestTable, Signature
from repro.obs.events import JsonlTraceSink, ListSink
from repro.obs.inspect import render_summary, summarize_trace
from repro.obs.telemetry import TickClock


class TestTelemetryCounters:
    def test_authenticated_run_populates_digest_counters(self):
        counters = run(get("dolev-strong")(5, 2), 1).counters
        # The base service has no digest table: every digest is a miss.
        assert counters.digest_misses > 0
        assert counters.digest_hits == 0

    def test_interned_service_turns_repeat_digests_into_hits(self):
        # The batch engine's service interns payloads by value, so
        # re-verifying equal chain bodies is answered from the table.
        service = InternedSignatureService(SharedDigestTable())
        result = run(get("dolev-strong")(5, 2), 1, service=service)
        assert result.counters == service.counters
        assert result.counters.digest_hits > 0

    def test_counters_are_per_run_deltas(self):
        # Two identical runs see identical counters: the second run does
        # not inherit the first run's totals.
        first = run(get("algorithm-3")(9, 2), 1)
        second = run(get("algorithm-3")(9, 2), 1)
        assert first.counters.digest_misses > 0
        assert second.counters == first.counters
        # Digests made through the run's service after the run are not
        # the run's.
        first.service.verify(Signature(0, "?"), ("after", "the", "run"))
        assert first.counters == second.counters

    def test_counters_survive_the_json_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            result = run(get("dolev-strong")(5, 1), 0, sinks=(sink,), clock=TickClock())
        summary = summarize_trace(path)
        assert summary.counters == result.counters.to_json_dict()
        assert summary.to_json_dict()["counters"] == summary.counters

    def test_plain_run_digest_count_is_exact(self):
        assert run(get("dolev-strong")(6, 2), 1).counters.digest_misses == 51


class TestNoObserverEffect:
    @pytest.mark.parametrize(
        "name,n,t", [("oral-messages", 7, 2), ("dolev-strong", 6, 2), ("algorithm-3", 20, 2)]
    )
    def test_traced_run_counts_what_the_untraced_run_counts(self, name, n, t):
        untraced = run(get(name)(n, t), 1)
        sink = ListSink()
        traced = run(get(name)(n, t), 1, sinks=(sink,))
        (run_end,) = sink.of_kind("run_end")
        assert run_end["counters"] == untraced.counters.to_json_dict()
        assert traced.counters == untraced.counters


class TestInspectRendering:
    def test_inspect_renders_the_counters_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            result = run(get("dolev-strong")(5, 1), 1, sinks=(sink,), clock=TickClock())
        rendered = render_summary(summarize_trace(path))
        counter_lines = [
            line for line in rendered.splitlines() if line.startswith("counters")
        ]
        # Zero counters are left out, the rest appear by name (the trace
        # stores them with sorted keys); the plain service misses every
        # digest and has no table to hit.
        counters = result.counters
        assert counter_lines == [
            f"counters  : chain_verify_calls {counters.chain_verify_calls}, "
            f"digest_misses {counters.digest_misses}, sign_calls {counters.sign_calls}, "
            f"verify_calls {counters.verify_calls}"
        ]

    def test_trace_without_counters_still_inspects(self, tmp_path):
        # A trace written before run_end carried counters has no such key.
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            run(get("dolev-strong")(5, 1), 1, sinks=(sink,), clock=TickClock())
        events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        del events[-1]["counters"]
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )
        summary = summarize_trace(path)
        assert summary.counters is None
        assert summary.consistency_errors() == []
        rendered = render_summary(summary).splitlines()
        assert not [line for line in rendered if line.startswith("counters")]
