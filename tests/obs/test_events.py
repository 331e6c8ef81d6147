"""Tests for the event sinks and trace primitives."""

import io
import json

import pytest

from repro.algorithms.dolev_strong import DolevStrong
from repro.core.runner import run
from repro.obs.events import (
    EVENT_KINDS,
    TRACE_SCHEMA,
    EventSink,
    JsonlTraceSink,
    ListSink,
    jsonable,
    read_events,
    safe_digest,
)


class TestListSink:
    def test_collects_all_event_kinds(self):
        # A crash fault is needed to exercise the full vocabulary: plain
        # runs never emit 'fault' events.
        from repro.transport.faults import CrashFault, FaultPlan
        from repro.transport.faulty import FaultyTransport

        sink = ListSink()
        transport = FaultyTransport(FaultPlan(faults=(CrashFault(pid=2, phase=1),)))
        run(DolevStrong(4, 1), 1, sinks=(sink,), transport=transport)
        kinds = {event["event"] for event in sink.events}
        assert kinds == set(EVENT_KINDS)

    def test_plain_run_emits_every_kind_but_fault(self):
        sink = ListSink()
        run(DolevStrong(4, 1), 1, sinks=(sink,))
        kinds = {event["event"] for event in sink.events}
        assert kinds == set(EVENT_KINDS) - {"fault"}

    def test_first_event_is_schema_versioned_run_start(self):
        sink = ListSink()
        run(DolevStrong(4, 1), 1, sinks=(sink,))
        first = sink.events[0]
        assert first["event"] == "run_start"
        assert first["schema"] == TRACE_SCHEMA
        assert first["n"] == 4 and first["t"] == 1

    def test_of_kind_filters(self):
        sink = ListSink()
        result = run(DolevStrong(4, 1), 1, sinks=(sink,))
        sends = sink.of_kind("send")
        assert len(sends) == result.metrics.total_messages
        assert len(sink.of_kind("run_end")) == 1

    def test_satisfies_the_sink_protocol(self):
        assert isinstance(ListSink(), EventSink)
        assert isinstance(JsonlTraceSink(io.StringIO()), EventSink)


class TestJsonlTraceSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            run(DolevStrong(4, 1), 1, sinks=(sink,))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"

    def test_borrowed_handle_not_closed(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        sink.emit({"event": "run_start", "schema": TRACE_SCHEMA})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["event"] == "run_start"

    def test_multiple_sinks_receive_identical_streams(self, tmp_path):
        list_sink = ListSink()
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as file_sink:
            run(DolevStrong(4, 1), 1, sinks=(list_sink, file_sink))
        from_file = list(read_events(path))
        assert from_file == list_sink.events


class TestReadEvents:
    def test_rejects_non_json_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event":"run_start"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not JSON"):
            list(read_events(path))

    def test_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1,2,3]\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an object"):
            list(read_events(path))

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event":"x"}\n\n{"event":"y"}\n', encoding="utf-8")
        assert [e["event"] for e in read_events(path)] == ["x", "y"]


class TestHelpers:
    def test_jsonable_passes_scalars(self):
        for value in (None, True, 3, 2.5, "s"):
            assert jsonable(value) == value

    def test_jsonable_reprs_rich_values(self):
        assert jsonable((1, 2)) == "(1, 2)"

    def test_safe_digest_matches_payload_digest(self):
        from repro.core.message import payload_digest

        assert safe_digest((1, "a")) == payload_digest((1, "a"))

    def test_safe_digest_survives_uncanonicalisable_payloads(self):
        assert safe_digest(object()) is None
