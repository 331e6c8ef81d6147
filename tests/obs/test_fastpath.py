"""The no-sink fast path: tracing must cost nothing when it is off.

PR-2's hot-path numbers (``BENCH_runner.json``) are protected by the
guarantee that with no sinks attached the runner performs *zero* event-hook
work per message: no event dicts are built, no digests computed, no
telemetry recorded.  These tests pin that structurally — the emit hook and
the digest helper are patched to raise, so a single stray call on the fast
path fails loudly — and the bench smoke in ``scripts/check.sh`` pins it by
wall clock.
"""

import pytest

import repro.core.runner as runner_module
from repro.algorithms.registry import get
from repro.core.runner import run
from repro.obs.events import ListSink
from repro.obs.telemetry import RunTelemetry, TickClock


class TestNoSinkFastPath:
    def test_event_hook_never_called_without_sinks(self, monkeypatch):
        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("_emit called on the no-sink fast path")

        monkeypatch.setattr(runner_module, "_emit", forbidden)
        result = run(get("algorithm-1")(7, 3), 1)
        assert result.unanimous_value() == 1

    def test_digest_helper_never_called_without_sinks(self, monkeypatch):
        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("safe_digest called on the no-sink fast path")

        monkeypatch.setattr(runner_module, "safe_digest", forbidden)
        result = run(get("dolev-strong")(5, 1), 1)
        assert result.unanimous_value() == 1

    def test_event_hook_is_called_when_a_sink_is_attached(self, monkeypatch):
        calls = []
        original = runner_module._emit

        def counting(sinks, event, telemetry=None):
            calls.append(event["event"])
            original(sinks, event, telemetry)

        monkeypatch.setattr(runner_module, "_emit", counting)
        run(get("dolev-strong")(4, 1), 1, sinks=(ListSink(),))
        assert "send" in calls and "run_end" in calls

    def test_no_telemetry_allocated_without_instrumentation(self):
        result = run(get("algorithm-1")(5, 2), 1)
        assert result.telemetry is None

    def test_clock_not_read_without_instrumentation(self):
        class ExplodingClock:
            @property
            def wall(self):  # pragma: no cover - must not run
                raise AssertionError("clock read on the no-sink fast path")

            cpu = wall

        result = run(get("dolev-strong")(4, 1), 1, clock=ExplodingClock())
        assert result.telemetry is None

    def test_per_message_allocations_do_not_grow_with_tracing_machinery(self):
        """Allocation regression guard: the bytes allocated per run on the
        no-sink path must not include trace events — two identical runs
        allocate (essentially) the same, and a traced run measurably more.
        """
        import tracemalloc

        algorithm = get("dolev-strong")
        run(algorithm(6, 1), 1, record_history=False)  # warm caches

        def allocated(**kwargs) -> int:
            # Minimum of a few samples: peak memory is noisy (GC timing,
            # interpreter caches warmed by unrelated tests), but the
            # *floor* of identical runs is stable.
            peaks = []
            for _ in range(3):
                tracemalloc.start()
                run(algorithm(6, 1), 1, record_history=False, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                peaks.append(peak)
            return min(peaks)

        plain_a = allocated()
        plain_b = allocated()
        traced = allocated(sinks=(ListSink(),))
        # Identical no-sink runs are within noise of each other...
        assert abs(plain_a - plain_b) < 0.2 * max(plain_a, plain_b)
        # ...while the traced run allocates strictly more (the event dicts),
        # proving the no-sink path did not pay for them.
        assert traced > max(plain_a, plain_b)


class TestOptInTelemetry:
    def test_collect_telemetry_without_sinks(self):
        result = run(
            get("algorithm-1")(5, 2), 1, collect_telemetry=True, clock=TickClock()
        )
        telemetry = result.telemetry
        assert isinstance(telemetry, RunTelemetry)
        assert len(telemetry.per_phase) == 4  # algorithm-1 at t=2 has 2t phases
        assert telemetry.wall_s > 0
        assert telemetry.events_emitted == 0  # no sinks -> no events

    def test_handler_timings_cover_every_correct_processor(self):
        result = run(
            get("dolev-strong")(5, 1), 1, collect_telemetry=True, clock=TickClock()
        )
        assert set(result.telemetry.handler_wall_s) == set(range(5))
        phases = result.metrics.phases_configured
        assert all(
            calls == phases for calls in result.telemetry.handler_calls.values()
        )

    def test_injected_clock_makes_timings_deterministic(self):
        def profile():
            result = run(
                get("algorithm-2")(5, 2), 1, collect_telemetry=True, clock=TickClock()
            )
            return result.telemetry.to_json_dict()

        assert profile() == profile()

    def test_telemetry_events_emitted_counts_sink_traffic(self):
        sink = ListSink()
        result = run(get("dolev-strong")(4, 1), 1, sinks=(sink,))
        # run_end increments after its own payload is built, so the
        # attached telemetry counts every event including run_end.
        assert result.telemetry.events_emitted == len(sink.events)


class TestSweepPointUnchanged:
    def test_measure_defaults_stay_untraced(self):
        from repro.analysis.sweep import measure

        point = measure(get("algorithm-1")(5, 2), 1)
        assert point.agreement_ok

    def test_bound_excess_guard(self):
        # A traced run must account exactly like an untraced one.
        sink = ListSink()
        traced = run(get("algorithm-3")(20, 2), 1, sinks=(sink,))
        plain = run(get("algorithm-3")(20, 2), 1)
        assert traced.metrics.summary() == plain.metrics.summary()
        assert traced.decisions == plain.decisions
