"""Tests for the batched sweep executor (repro.analysis.batchsweep)."""

from functools import partial

import pytest

import repro.analysis.batchsweep as batchsweep
from repro.algorithms.registry import get
from repro.analysis.batchsweep import MIN_STRIPE, BatchStripe, _stripes, batch_specs
from repro.analysis.parallel import expand, run_tasks, sweep_parallel


def grid(ns=(5, 7), t=1, name="dolev-strong", values=(0, 1, 0, 1)):
    configs = [
        ({"n": n, "t": t}, partial(get(name).build, n, t)) for n in ns
    ]
    return expand(configs, values=values)


@pytest.fixture
def engine_stats(monkeypatch):
    """The BatchStats of every in-process run_batch call (workers=1)."""
    calls = []
    original = batchsweep.run_batch

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result.stats)
        return result

    monkeypatch.setattr(batchsweep, "run_batch", spy)
    return calls


def total(calls, name):
    return sum(getattr(stats, name) for stats in calls)


class TestEquality:
    def test_points_equal_scalar_run_specs_in_order(self):
        specs = grid()
        assert batch_specs(specs, workers=1) == run_tasks(specs, workers=1)

    def test_mixed_algorithm_grids_group_by_factory(self, engine_stats):
        specs = grid(name="dolev-strong") + grid(name="phase-king", ns=(9,), t=2)
        assert batch_specs(specs, workers=1) == run_tasks(specs, workers=1)
        # dedup worked within each factory group: 2 values x 3 configs.
        assert total(engine_stats, "runs") == len(specs)
        assert total(engine_stats, "unique_runs") == 6

    def test_parallel_workers_preserve_order(self):
        specs = grid(ns=(5, 6, 7), values=(0, 1) * 4)
        assert batch_specs(specs, workers=2) == run_tasks(specs, workers=1)

    def test_large_groups_are_striped(self, engine_stats):
        specs = grid(ns=(5,), values=tuple([0, 1] * MIN_STRIPE))
        assert batch_specs(specs, workers=2) == run_tasks(specs, workers=1)
        # Striping splits one group into several batches, so each stripe
        # re-runs its own class representatives.
        stripes = _stripes(range(len(specs)), 2)
        assert len(stripes) == 2
        for stripe in stripes:
            BatchStripe(specs=tuple(specs[index] for index in stripe)).run()
        assert total(engine_stats, "unique_runs") >= 2


class TestStripe:
    def test_stripe_runs_standalone(self, engine_stats):
        specs = tuple(grid(ns=(5,), values=(0, 1, 0)))
        assert BatchStripe(specs=specs).run() == run_tasks(list(specs), workers=1)
        assert total(engine_stats, "runs") == 3
        assert total(engine_stats, "replicated_runs") == 1


class TestTraceFallback:
    def test_traced_specs_keep_their_scalar_trace_files(self, tmp_path, engine_stats):
        trace_dir = tmp_path / "traces"
        configs = [({"n": 5, "t": 1}, partial(get("dolev-strong").build, 5, 1))]
        specs = expand(configs, values=(0, 1), trace_dir=str(trace_dir))
        assert batch_specs(specs, workers=1) == run_tasks(specs, workers=1)
        produced = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        assert len(produced) == 2
        # Traced specs bypass the batch engine entirely.
        assert engine_stats == []


class TestSweepParallelWiring:
    def test_batch_flag_matches_scalar_sweep(self):
        configs = [
            ({"n": n}, partial(get("algorithm-3").build, n, 2)) for n in (9, 12)
        ]
        scalar = sweep_parallel(configs, values=(0, 1, 1), workers=1)
        batched = sweep_parallel(configs, values=(0, 1, 1), workers=1, batch=True)
        assert batched == scalar

    def test_unpicklable_factories_still_work_serially(self):
        configs = [({"n": 5}, lambda: get("dolev-strong").build(5, 1))]
        specs = expand(configs, values=(0, 1))
        assert batch_specs(specs, workers=1) == run_tasks(specs, workers=1)


class TestFamilyVerdicts:
    """The batched sweep judges each family as the scalar sweep does."""

    @pytest.mark.parametrize(
        "name,n,t", [("midpoint-approx", 7, 2), ("filtered-mean-approx", 7, 1)]
    )
    def test_approx_points_match_the_scalar_sweep(self, name, n, t):
        configs = [({"n": n}, partial(get(name).build, n, t))]
        batched = sweep_parallel(configs, workers=1, batch=True)
        assert batched == sweep_parallel(configs, workers=1)
        assert [point.agreement_ok for point in batched] == [True, True]

    def test_ben_or_runs_on_seed_zero_on_both_sweep_paths(self):
        from repro.core.runner import run

        configs = [({"n": 6}, partial(get("ben-or").build, 6, 1))]
        scalar = sweep_parallel(configs, workers=1)
        assert sweep_parallel(configs, workers=1, batch=True) == scalar
        assert [point.agreement_ok for point in scalar] == [True, True]
        algorithm = get("ben-or")(6, 1)
        for point in scalar:
            reference = run(
                algorithm, point.value, coins=algorithm.make_coin_source(0)
            )
            assert point.messages == reference.metrics.messages_by_correct
            assert point.phases_used == reference.metrics.last_active_phase
