"""Tests for the batched sweep executor (repro.analysis.batchsweep)."""

from functools import partial

import pytest

from repro.algorithms.registry import get
from repro.analysis.batchsweep import MIN_STRIPE, BatchStripe, batch_specs
from repro.analysis.parallel import expand, run_specs, sweep_parallel


def grid(ns=(5, 7), t=1, name="dolev-strong", values=(0, 1, 0, 1)):
    configs = [
        ({"n": n, "t": t}, partial(get(name).build, n, t)) for n in ns
    ]
    return expand(configs, values=values)


class TestEquality:
    def test_points_equal_scalar_run_specs_in_order(self):
        specs = grid()
        assert batch_specs(specs, workers=1).points == run_specs(specs, workers=1)

    def test_mixed_algorithm_grids_group_by_factory(self):
        specs = grid(name="dolev-strong") + grid(name="phase-king", ns=(9,), t=2)
        result = batch_specs(specs, workers=1, strict=True)
        assert result.points == run_specs(specs, workers=1)
        # dedup worked within each factory group: 2 values x 3 configs.
        assert result.stats.runs == len(specs)
        assert result.stats.unique_runs == 6

    def test_parallel_workers_preserve_order(self):
        specs = grid(ns=(5, 6, 7), values=(0, 1) * 4)
        assert batch_specs(specs, workers=2).points == run_specs(specs, workers=1)

    def test_large_groups_are_striped(self):
        specs = grid(ns=(5,), values=tuple([0, 1] * MIN_STRIPE))
        result = batch_specs(specs, workers=2)
        assert result.points == run_specs(specs, workers=1)
        # Striping splits one group into several batches, so each stripe
        # re-runs its own class representatives.
        assert result.stats.unique_runs >= 2


class TestStripe:
    def test_stripe_runs_standalone(self):
        specs = tuple(grid(ns=(5,), values=(0, 1, 0)))
        points, stats = BatchStripe(specs=specs).run()
        assert points == run_specs(list(specs), workers=1)
        assert stats["runs"] == 3
        assert stats["replicated_runs"] == 1


class TestTraceFallback:
    def test_traced_specs_keep_their_scalar_trace_files(self, tmp_path):
        trace_dir = tmp_path / "traces"
        configs = [({"n": 5, "t": 1}, partial(get("dolev-strong").build, 5, 1))]
        specs = expand(configs, values=(0, 1), trace_dir=str(trace_dir))
        result = batch_specs(specs, workers=1)
        assert result.points == run_specs(specs, workers=1)
        produced = sorted(p.name for p in trace_dir.glob("*.jsonl"))
        assert len(produced) == 2
        # Traced specs bypass the batch engine entirely.
        assert result.stats.scalar_runs == len(specs)


class TestSweepParallelWiring:
    def test_batch_flag_matches_scalar_sweep(self):
        configs = [
            ({"n": n}, partial(get("algorithm-3").build, n, 2)) for n in (9, 12)
        ]
        scalar = sweep_parallel(configs, values=(0, 1, 1), workers=1)
        batched = sweep_parallel(configs, values=(0, 1, 1), workers=1, batch=True)
        assert batched == scalar

    def test_batch_strict_flag_passes_through(self):
        configs = [({"n": 9}, partial(get("phase-king").build, 9, 2))]
        points = sweep_parallel(
            configs, values=(0, 1), workers=1, batch=True, batch_strict=True
        )
        assert len(points) == 2

    def test_checkpoint_with_batch_is_rejected(self, tmp_path):
        configs = [({"n": 5}, partial(get("dolev-strong").build, 5, 1))]
        with pytest.raises(ValueError, match="checkpoint"):
            sweep_parallel(
                configs, workers=1, batch=True,
                checkpoint=str(tmp_path / "ck.bin"),
            )

    def test_unpicklable_factories_still_work_serially(self):
        configs = [({"n": 5}, lambda: get("dolev-strong").build(5, 1))]
        specs = expand(configs, values=(0, 1))
        assert batch_specs(specs, workers=1).points == run_specs(specs, workers=1)


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
