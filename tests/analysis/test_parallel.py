"""Tests for the parallel sweep executor.

The load-bearing property is determinism: for the same grid, the executor
must produce the *identical* ordered ``SweepPoint`` list as a plain loop of
:func:`repro.analysis.sweep.measure` calls — regardless of worker count or
chunking.  The grids below mirror experiments E7 (Algorithm 3 over n) and
E10 (Algorithm 5 over s).
"""

import pickle
from functools import partial

import pytest

from repro.adversary.standard import SilentAdversary
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.algorithm5 import Algorithm5
from repro.analysis.parallel import (
    ScenarioSpec,
    default_workers,
    expand,
    run_tasks,
    sweep_parallel,
)
from repro.analysis.sweep import measure


def e7_grid():
    """A small cut of the E7 Theorem 5 grid: Algorithm 3 over n at fixed t."""
    return [({"n": n}, partial(Algorithm3, n, 2)) for n in (20, 40, 60)]


def e10_grid():
    """A small cut of the E10 trade-off grid: Algorithm 5 over s."""
    return [({"s": s}, partial(Algorithm5, 80, 2, s=s)) for s in (1, 7)]


def silent_one(algorithm):
    return SilentAdversary([1])


class TestExpand:
    def test_matches_sweep_order(self):
        """expand() flattens configurations → adversaries → values."""
        configurations = [({"t": t}, partial(Algorithm1, 2 * t + 1, t)) for t in (1, 2)]
        adversaries = [("fault-free", None), ("silent-1", silent_one)]
        specs = expand(configurations, values=(0, 1), adversaries=adversaries)
        assert len(specs) == 2 * 2 * 2
        observed = [(s.params, s.adversary_name, s.value) for s in specs]
        expected = [
            (tuple(sorted(params.items())), name, value)
            for params, _ in configurations
            for name, _ in adversaries
            for value in (0, 1)
        ]
        assert observed == expected

    def test_specs_are_picklable(self):
        specs = expand(e7_grid(), values=(1,))
        restored = pickle.loads(pickle.dumps(specs))
        assert [(s.params, s.adversary_name, s.value) for s in restored] == [
            (s.params, s.adversary_name, s.value) for s in specs
        ]
        # a restored spec produces the same point as the original
        assert restored[0].run() == specs[0].run()


class TestDeterminism:
    def test_e7_grid_parallel_equals_serial(self):
        grid = e7_grid()
        serial = sweep_parallel(grid, values=(0, 1), workers=1)
        parallel = sweep_parallel(grid, values=(0, 1), workers=2)
        assert parallel == serial
        # byte-identical points, not merely == (whole-list dumps differ only
        # in pickle memo references when serial points share param tuples):
        assert [pickle.dumps(p) for p in parallel] == [pickle.dumps(p) for p in serial]

    def test_e7_grid_matches_sweep(self):
        grid = e7_grid()
        reference = [measure(factory(), 1, params=params) for params, factory in grid]
        assert sweep_parallel(grid, values=(1,), workers=2) == reference

    def test_e10_grid_parallel_equals_serial(self):
        grid = e10_grid()
        serial = sweep_parallel(grid, values=(1,), workers=1)
        parallel = sweep_parallel(grid, values=(1,), workers=2)
        assert parallel == serial
        assert [pickle.dumps(p) for p in parallel] == [pickle.dumps(p) for p in serial]

    def test_chunk_size_does_not_change_order(self):
        specs = expand(e7_grid(), values=(0, 1))
        reference = run_tasks(specs, workers=1)
        for chunk_size in (1, 2, 5):
            assert run_tasks(specs, workers=2, chunk_size=chunk_size) == reference

    def test_adversary_axis(self):
        grid = [({"t": 2}, partial(Algorithm1, 5, 2))]
        adversaries = [("fault-free", None), ("silent-1", silent_one)]
        serial = sweep_parallel(grid, values=(1,), adversaries=adversaries, workers=1)
        parallel = sweep_parallel(grid, values=(1,), adversaries=adversaries, workers=2)
        assert parallel == serial
        assert [p.adversary for p in parallel] == ["fault-free", "silent-1"]


class TestFallbacksAndErrors:
    def test_workers_1_accepts_lambdas(self):
        """The serial path never pickles, so lambdas work."""
        points = sweep_parallel(
            [({}, lambda: Algorithm1(5, 2))],
            values=(1,),
            adversaries=(("fault-free", lambda _: None),),
            workers=1,
        )
        assert len(points) == 1 and points[0].agreement_ok

    def test_unpicklable_factory_rejected_with_clear_error(self):
        grid = [({"n": n}, (lambda n=n: Algorithm1(5, 2))) for n in (5, 6, 7)]
        with pytest.raises(ValueError, match="picklable"):
            sweep_parallel(grid, values=(0, 1), workers=2)

    def test_empty_grid(self):
        assert sweep_parallel([], values=(0, 1), workers=4) == []

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert default_workers() == 1

    def test_default_workers_rejects_a_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "four")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS.*'four'"):
            default_workers()

    def test_trace_dir_writes_one_trace_per_scenario(self, tmp_path):
        from repro.obs import summarize_trace

        grid = e7_grid()
        points = sweep_parallel(
            grid, values=(0, 1), workers=1, trace_dir=str(tmp_path)
        )
        traces = sorted(tmp_path.glob("*.jsonl"))
        assert len(traces) == len(points) == 6
        summary = summarize_trace(traces[0])
        assert summary.consistency_errors() == []

    def test_trace_file_set_independent_of_worker_count(self, tmp_path):
        grid = e7_grid()
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        sweep_parallel(grid, values=(1,), workers=1, trace_dir=str(serial_dir))
        sweep_parallel(grid, values=(1,), workers=2, trace_dir=str(parallel_dir))
        serial_names = sorted(p.name for p in serial_dir.glob("*.jsonl"))
        parallel_names = sorted(p.name for p in parallel_dir.glob("*.jsonl"))
        assert serial_names == parallel_names
        for name in serial_names:
            assert (serial_dir / name).read_bytes() != b""

    def test_fresh_algorithm_per_point(self):
        """Every measurement builds a fresh instance."""
        spec = ScenarioSpec(
            params=(),
            factory=partial(Algorithm1, 5, 2),
            adversary_name="fault-free",
            adversary_factory=None,
            value=1,
        )
        first, second = spec.run(), spec.run()
        assert first == second
