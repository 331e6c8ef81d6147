"""Round-trip and determinism guarantees of the trace layer.

The contract pinned here: a trace written by :class:`JsonlTraceSink` and
read back by ``repro inspect``'s engine reports per-phase message and
signature counts that *exactly* equal the :class:`MetricsLedger` totals of
the same run — and two identical seeded runs produce byte-identical trace
files when the clock is injected.
"""

import pytest

from repro.adversary.standard import GarbageAdversary, SilentAdversary
from repro.algorithms.registry import get
from repro.core.runner import run
from repro.obs.events import JsonlTraceSink
from repro.obs.inspect import TraceFormatError, render_summary, summarize_trace
from repro.obs.telemetry import TickClock


def traced_run(tmp_path, algorithm, value=1, adversary=None, name="trace.jsonl"):
    path = tmp_path / name
    with JsonlTraceSink(path) as sink:
        result = run(algorithm, value, adversary, sinks=(sink,), clock=TickClock())
    return path, result


SCENARIOS = [
    ("dolev-strong", 5, 1, None),
    ("algorithm-1", 7, 3, None),
    ("algorithm-2", 5, 2, None),
    ("phase-king", 9, 2, None),
]


class TestInspectEqualsLedger:
    @pytest.mark.parametrize("name,n,t,adversary", SCENARIOS)
    def test_per_phase_counts_equal_ledger(self, tmp_path, name, n, t, adversary):
        path, result = traced_run(tmp_path, get(name)(n, t), adversary=adversary)
        summary = summarize_trace(path)
        assert summary.messages_per_phase == dict(result.metrics.messages_per_phase)
        assert summary.signatures_per_phase == dict(
            result.metrics.signatures_per_phase
        )
        assert summary.messages_by_correct == result.metrics.messages_by_correct
        assert summary.signatures_by_correct == result.metrics.signatures_by_correct
        assert summary.consistency_errors() == []

    def test_faulty_traffic_split_matches_ledger(self, tmp_path):
        path, result = traced_run(
            tmp_path, get("dolev-strong")(6, 2), adversary=GarbageAdversary([1, 2])
        )
        summary = summarize_trace(path)
        assert summary.faulty == [1, 2]
        assert summary.messages_by_faulty == result.metrics.messages_by_faulty
        assert summary.signatures_by_faulty == result.metrics.signatures_by_faulty
        assert summary.consistency_errors() == []

    def test_sent_per_processor_matches_ledger(self, tmp_path):
        path, result = traced_run(tmp_path, get("algorithm-1")(7, 3))
        summary = summarize_trace(path)
        assert summary.sent_per_processor == dict(result.metrics.sent_per_processor)

    def test_decisions_recorded(self, tmp_path):
        path, result = traced_run(
            tmp_path, get("dolev-strong")(5, 1), adversary=SilentAdversary([2])
        )
        summary = summarize_trace(path)
        assert set(summary.decisions) == set(result.decisions)

    def test_adaptive_cost_uses_actual_faults(self, tmp_path):
        path, result = traced_run(
            tmp_path, get("dolev-strong")(6, 2), adversary=SilentAdversary([1])
        )
        summary = summarize_trace(path)
        adaptive = summary.adaptive_cost()
        assert adaptive["actual_faults"] == 1  # f=1 even though t=2
        assert adaptive["messages_per_fault"] == pytest.approx(
            result.metrics.messages_by_correct
        )


class TestDeterminism:
    def test_identical_seeded_runs_yield_byte_identical_traces(self, tmp_path):
        path_a, _ = traced_run(tmp_path, get("algorithm-2")(5, 2), name="a.jsonl")
        path_b, _ = traced_run(tmp_path, get("algorithm-2")(5, 2), name="b.jsonl")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_adversarial_runs_also_deterministic(self, tmp_path):
        path_a, _ = traced_run(
            tmp_path, get("dolev-strong")(6, 2),
            adversary=SilentAdversary([1, 3]), name="a.jsonl",
        )
        path_b, _ = traced_run(
            tmp_path, get("dolev-strong")(6, 2),
            adversary=SilentAdversary([1, 3]), name="b.jsonl",
        )
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_inputs_yield_different_traces(self, tmp_path):
        path_a, _ = traced_run(tmp_path, get("dolev-strong")(5, 1), 0, name="a.jsonl")
        path_b, _ = traced_run(tmp_path, get("dolev-strong")(5, 1), 1, name="b.jsonl")
        assert path_a.read_bytes() != path_b.read_bytes()


class TestTraceValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TraceFormatError, match="empty"):
            summarize_trace(path)

    def test_wrong_first_event_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event":"send","phase":1}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError, match="run_start"):
            summarize_trace(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"event":"run_start","schema":"repro-trace/99","n":3,"t":1}\n',
            encoding="utf-8",
        )
        with pytest.raises(TraceFormatError, match="repro-trace/99"):
            summarize_trace(path)

    def test_truncated_trace_flagged_incomplete(self, tmp_path):
        path, _ = traced_run(tmp_path, get("dolev-strong")(4, 1))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        summary = summarize_trace(truncated)
        assert not summary.complete
        assert any("incomplete" in e for e in summary.consistency_errors())

    def test_tampered_trace_fails_consistency(self, tmp_path):
        import json

        path, _ = traced_run(tmp_path, get("dolev-strong")(4, 1))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        events = [json.loads(line) for line in lines]
        # Drop one send event: the recomputed histogram no longer matches
        # the ledger snapshot recorded in run_end.
        send_index = next(
            i for i, e in enumerate(events) if e["event"] == "send"
        )
        del events[send_index]
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text(
            "\n".join(json.dumps(e) for e in events) + "\n", encoding="utf-8"
        )
        summary = summarize_trace(tampered)
        assert summary.consistency_errors() != []

    def test_render_summary_mentions_key_figures(self, tmp_path):
        path, result = traced_run(tmp_path, get("algorithm-1")(7, 3))
        text = render_summary(summarize_trace(path))
        assert "algorithm-1" in text
        assert str(result.metrics.messages_by_correct) in text
        assert "consistency: ok" in text
