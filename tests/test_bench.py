"""``repro bench``: the document it writes and the one timing rule of its rows."""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main
from repro.service import Scheduler

BASELINE = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_runner.json").read_text(encoding="utf-8")
)

#: Quick-mode figures that do not depend on timing.  A service row's
#: ``unique_runs``, ``waves`` and ``dedup_ratio`` are not among them:
#: waves form by arrival timing.
QUICK_FIGURES = {
    "runner:dolev-strong": {"messages": 361},
    "runner:algorithm-5": {"messages": 1_099},
    "runner:phase-king": {"messages": 780},
    "batch:phase-king": {"messages": 1_597_440, "unique_runs": 2, "kernel_runs": 2},
    "batch:oral-messages": {"messages": 819_200, "unique_runs": 2, "kernel_runs": 2},
    "batch:algorithm-3": {"messages": 22_272, "runs": 128},
    "sweep:algorithm-3:grid": {"scenarios": 2, "messages": 540},
    "service:mixed": {"requests": 120, "messages": 82_560, "failed": 0},
    "service:faulty": {"requests": 60, "messages": 48_748, "failed": 0},
}


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    output = tmp_path_factory.mktemp("bench") / "bench.json"
    argv = ["bench", "--quick", "--repeat", "1", "--workers", "1", "--output", str(output)]
    assert main(argv) == 0
    return json.loads(output.read_text(encoding="utf-8"))


def keys_by_kind(document):
    """Each kind's case names, and the field names of each of its cases."""
    kinds = {}
    for name, case in document["cases"].items():
        kinds.setdefault(case["kind"], {})[name] = set(case)
    return kinds


class TestDocument:
    def test_keys_match_the_committed_baseline(self, document):
        assert set(document) == set(BASELINE)
        assert keys_by_kind(document) == keys_by_kind(BASELINE)

    def test_one_row_per_case(self):
        names = [f"{row.kind}:{row.key}" for row in bench.ROWS]
        assert sorted(names) == sorted(BASELINE["cases"])

    @pytest.mark.parametrize("name", sorted(QUICK_FIGURES))
    def test_quick_figures(self, document, name):
        case = document["cases"][name]
        figures = QUICK_FIGURES[name]
        assert {field: case[field] for field in figures} == figures

    def test_envelope_records_the_settings(self, document):
        assert (document["schema"], document["quick"]) == ("repro-bench/1", True)
        assert (document["repeat"], document["trials"], document["workers"]) == (1, 1, 1)


class TestTiming:
    def test_timed_is_the_median_over_trials_of_the_min_over_repeat(self, monkeypatch):
        # Two calls per trial lasting 5 and 3, 1 and 2, 9 and 4 seconds:
        # the trial minima are 3, 1 and 4, so the row reports 3.
        durations = iter([5.0, 3.0, 1.0, 2.0, 9.0, 4.0])
        clock = [0.0]

        def call(_):
            clock[0] += next(durations)
            return clock[0]

        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
        work = bench.Work(setup=lambda: None, call=call, case=None)
        assert bench.timed(work, repeat=2, trials=3) == (3.0, 24.0)

    def test_an_even_trial_count_takes_the_middle_of_both_minima(self, monkeypatch):
        durations = iter([3.0, 1.0])
        clock = [0.0]

        def call(_):
            clock[0] += next(durations)

        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
        work = bench.Work(setup=lambda: None, call=call, case=None)
        assert bench.timed(work, repeat=1, trials=2)[0] == 2.0

    def test_sweep_and_service_rows_make_repeat_times_trials_calls(
        self, monkeypatch, tmp_path
    ):
        calls = {"sweep": 0, "service": 0}
        real_sweep, real_serve = bench.sweep_parallel, Scheduler.serve

        def sweep(*args, **kwargs):
            calls["sweep"] += 1
            return real_sweep(*args, **kwargs)

        def serve(self, *args, **kwargs):
            calls["service"] += 1
            return real_serve(self, *args, **kwargs)

        monkeypatch.setattr(bench, "sweep_parallel", sweep)
        monkeypatch.setattr(Scheduler, "serve", serve)
        rows = tuple(row for row in bench.ROWS if row.kind in ("sweep", "service"))
        monkeypatch.setattr(bench, "ROWS", rows[:2])
        output = tmp_path / "bench.json"
        assert bench.run_bench(str(output), workers=1, repeat=2, trials=3, quick=True) == 0
        assert calls == {"sweep": 6, "service": 6}
        cases = json.loads(output.read_text(encoding="utf-8"))["cases"]
        assert set(cases) == {"sweep:algorithm-3:grid", "service:mixed"}

    def test_rates_come_from_the_reported_seconds(self, document):
        for case in document["cases"].values():
            seconds = case["seconds"]
            assert case["messages_per_sec"] == pytest.approx(
                case["messages"] / seconds, rel=0.01
            )
            if case["kind"] == "service":
                assert case["agreements_per_sec"] == pytest.approx(
                    case["ok"] / seconds, rel=0.01
                )
