"""Tests for the striped sweep executor (batch_specs in repro.analysis.parallel)."""

import json
import os
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.parallel as parallel
import repro.crypto.signatures as signatures
from repro.adversary.standard import SilentAdversary
from repro.algorithms.registry import get
from repro.analysis.parallel import (
    MAX_STRIPE,
    BatchStripe,
    batch_specs,
    expand,
    run_tasks,
    stripe_positions,
    sweep_parallel,
)
from repro.core.protocol import AgreementAlgorithm
from repro.obs.inspect import summarize_trace


def grid(ns=(5, 7), t=1, name="dolev-strong", values=(0, 1, 0, 1)):
    configs = [
        ({"n": n, "t": t}, partial(get(name).build, n, t)) for n in ns
    ]
    return expand(configs, values=values)


@pytest.fixture
def engine_stats(monkeypatch):
    """The Counters of every in-process run_batch call (workers=1)."""
    calls = []
    original = parallel.run_batch

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result.stats)
        return result

    monkeypatch.setattr(parallel, "run_batch", spy)
    return calls


def total(calls, name):
    return sum(getattr(stats, name) for stats in calls)


#: run_end telemetry fields read from the wall or CPU clock, which differ
#: between any two runs of one scenario.
CLOCK_FIELDS = ("cpu_s", "wall_s", "handler_wall_s", "per_phase")


def without_clock_readings(path):
    """The trace's lines, byte for byte, with the clock readings removed."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        if event["event"] == "run_end":
            for key in CLOCK_FIELDS:
                del event["telemetry"][key]
            line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        lines.append(line)
    return lines


def silent_last_t(algorithm):
    return SilentAdversary(range(algorithm.n - algorithm.t, algorithm.n))


@pytest.fixture
def crypto_counts(monkeypatch):
    """Calls of the signing, verifying and digesting primitives."""
    counts = Counter()

    def count(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(signatures.SignatureService, "sign", "sign")
    count(signatures.SignatureService, "verify", "verify")
    count(signatures.SharedDigestTable, "digest", "table_digest")
    count(signatures, "payload_digest", "payload_digest")
    return counts


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

    def test_large_groups_are_striped(self, engine_stats, monkeypatch):
        # A factory group of MAX_STRIPE + 2 specs is cut into stripes of
        # whole run classes whatever the pool size, and the pool gets one
        # stripe per chunk: MAX_STRIPE + 2 classes of one spec are cut at
        # MAX_STRIPE, and two classes of MAX_STRIPE // 2 + 1 specs get a
        # stripe each.
        half = MAX_STRIPE // 2 + 1
        dispatched = []
        real = parallel.run_tasks

        def spy(tasks, **kwargs):
            dispatched.append(([len(task.specs) for task in tasks], kwargs["chunk_size"]))
            return real(tasks, **kwargs)

        monkeypatch.setattr(parallel, "run_tasks", spy)
        for values, stripes, unique in (
            (tuple(range(MAX_STRIPE + 2)), [MAX_STRIPE, 2], MAX_STRIPE + 2),
            ((0, 1) * half, [half, half], 2),
        ):
            specs = grid(ns=(5,), values=values)
            reference = run_tasks(specs, workers=1)
            dispatched.clear()
            engine_stats.clear()
            for workers in (1, 2):
                assert batch_specs(specs, workers=workers) == reference
            assert dispatched == [(stripes, 1)] * 2
            # Each run class executes in its one stripe (the spy sees the
            # in-process batches of workers=1 only).
            assert [stats.runs for stats in engine_stats] == stripes
            assert total(engine_stats, "unique_runs") == unique


class TestStripe:
    def test_positions_group_by_key_in_first_seen_order(self):
        # Cases of their own (class None) fill stripes of MAX_STRIPE.
        configs = ["b", "a"] * (MAX_STRIPE + 1) + ["c"]
        stripes = stripe_positions(iter((config, None) for config in configs))
        assert [(configs[stripe[0][0]], len(stripe)) for stripe in stripes] == [
            ("b", MAX_STRIPE), ("b", 1), ("a", MAX_STRIPE), ("a", 1), ("c", 1)
        ]
        for stripe in stripes:
            assert all(len(positions) == 1 for positions in stripe)
            flat = [positions[0] for positions in stripe]
            assert {configs[position] for position in flat} == {configs[flat[0]]}
            assert flat == sorted(flat)
        assert sorted(
            p for stripe in stripes for positions in stripe for p in positions
        ) == list(range(len(configs)))

    @settings(max_examples=60, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.sampled_from("ab"),
                st.none() | st.integers(0, 5),
                st.integers(1, MAX_STRIPE + 40),
            ),
            max_size=10,
        ),
        shuffler=st.randoms(use_true_random=False),
    )
    def test_no_class_spans_two_stripes(self, draws, shuffler):
        keys = [(config, run_class) for config, run_class, size in draws for _ in range(size)]
        shuffler.shuffle(keys)
        stripes = stripe_positions(keys)
        assert sorted(
            p for stripe in stripes for positions in stripe for p in positions
        ) == list(range(len(keys)))
        homes = set()
        firsts: dict = {}
        for stripe in stripes:
            (config,) = {keys[positions[0]][0] for positions in stripe}
            # Over MAX_STRIPE cases only in a stripe of one class.
            assert sum(map(len, stripe)) <= MAX_STRIPE or len(stripe) == 1
            for positions in stripe:
                key = keys[positions[0]]
                assert positions == sorted(positions)
                assert {keys[p] for p in positions} == {key}
                if key[1] is None:
                    assert len(positions) == 1
                else:
                    assert key not in homes, "a class is split"
                    homes.add(key)
                firsts.setdefault(config, []).append(positions[0])
        # Classes come in first-seen order within their configuration.
        for first in firsts.values():
            assert first == sorted(first)

    def test_stripe_runs_standalone(self, engine_stats):
        specs = tuple(grid(ns=(5,), values=(0, 1, 0)))
        assert BatchStripe(specs=specs).run() == run_tasks(list(specs), workers=1)
        assert total(engine_stats, "runs") == 3
        assert total(engine_stats, "replicated_runs") == 1


class TestTracedCases:
    """A traced spec is one more case of its stripe's batch."""

    def test_traced_specs_run_as_one_batch(self, tmp_path, engine_stats):
        trace_dir = tmp_path / "traces"
        configs = [({"n": 5, "t": 1}, partial(get("dolev-strong").build, 5, 1))]
        specs = expand(configs, values=(0, 1), trace_dir=str(trace_dir))
        assert batch_specs(specs, workers=1) == run_tasks(specs, workers=1)
        produced = sorted(trace_dir.glob("*.jsonl"))
        assert len(produced) == 2
        for path in produced:
            assert summarize_trace(path).consistency_errors() == []
        # One engine call; traced cases are not deduplicated.
        assert len(engine_stats) == 1
        assert total(engine_stats, "scalar_runs") == 2

    def test_traced_sweep_does_the_untraced_work(self, tmp_path, crypto_counts):
        configs = [
            ({"n": 5}, partial(get("dolev-strong").build, 5, 1)),
            ({"n": 9}, partial(get("algorithm-5").build, 9, 1)),
        ]
        adversaries = (("fault-free", None), ("silent-last-t", silent_last_t))

        def sweep(**trace):
            points = sweep_parallel(
                configs, values=(0, 1), adversaries=adversaries, workers=1, **trace
            )
            counts = dict(crypto_counts)
            crypto_counts.clear()
            return points, counts

        untraced, untraced_counts = sweep()
        traced, traced_counts = sweep(trace_dir=str(tmp_path))
        assert traced == untraced
        assert traced_counts == untraced_counts
        assert set(untraced_counts) == {"sign", "verify", "table_digest", "payload_digest"}
        assert len(list(tmp_path.glob("*.jsonl"))) == len(traced) == 8

    def test_traced_grid_runs_on_the_pool(self, tmp_path, monkeypatch):
        parent = os.getpid()
        in_parent = []
        stripe_run = BatchStripe.run

        def spy(stripe):
            if os.getpid() == parent:
                in_parent.append(stripe)
            return stripe_run(stripe)

        configs = [
            ({"n": n}, partial(get("dolev-strong").build, n, 1)) for n in (5, 6, 7)
        ]
        serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
        serial = batch_specs(
            expand(configs, trace_dir=str(serial_dir)), workers=1
        )
        monkeypatch.setattr(BatchStripe, "run", spy)
        pooled = batch_specs(
            expand(configs, trace_dir=str(pooled_dir)), workers=2
        )
        assert in_parent == []
        assert pooled == serial
        names = sorted(path.name for path in serial_dir.glob("*.jsonl"))
        assert len(names) == 6
        assert sorted(path.name for path in pooled_dir.glob("*.jsonl")) == names
        for name in names:
            assert without_clock_readings(pooled_dir / name) == (
                without_clock_readings(serial_dir / name)
            )

    def test_striping_changes_only_run_end_telemetry(self, tmp_path):
        # One factory group of 80 specs is one stripe at any pool size, so
        # the traces agree at workers 1 and 2 in everything but the clock
        # readings, the run_end digest counters included.
        dolev_strong = partial(get("dolev-strong").build, 5, 1)
        configs = [({"k": k}, dolev_strong) for k in range(40)]
        points = {}
        for workers in (1, 2):
            directory = tmp_path / f"w{workers}"
            points[workers] = sweep_parallel(
                configs, values=(0, 1), workers=workers, trace_dir=str(directory)
            )
        assert points[2] == points[1]
        names = sorted(path.name for path in (tmp_path / "w1").glob("*.jsonl"))
        assert len(names) == 80
        assert sorted(path.name for path in (tmp_path / "w2").glob("*.jsonl")) == names
        for name in names:
            assert without_clock_readings(tmp_path / "w2" / name) == (
                without_clock_readings(tmp_path / "w1" / name)
            )


class TestSweepParallelWiring:
    def test_sweep_matches_per_spec_runs(self):
        configs = [
            ({"n": n}, partial(get("algorithm-3").build, n, 2)) for n in (9, 12)
        ]
        specs = expand(configs, values=(0, 1, 1))
        batched = sweep_parallel(configs, values=(0, 1, 1), workers=1)
        assert batched == run_tasks(specs, workers=1)

    def test_untraced_grid_reaches_run_batch_once_per_factory_group(
        self, engine_stats
    ):
        dolev_strong = get("dolev-strong").build
        configs = [
            ({"n": 5}, partial(dolev_strong, 5, 1)),
            ({"n": 7}, partial(dolev_strong, 7, 1)),
            ({"n": 5, "again": True}, partial(dolev_strong, 5, 1)),
            ({"n": 9}, partial(get("phase-king").build, 9, 2)),
        ]
        points = sweep_parallel(configs, values=(0, 1), workers=1)
        assert points == run_tasks(expand(configs, values=(0, 1)), workers=1)
        # Equal factories share a group, so three groups for four configs.
        assert len(engine_stats) == 3
        assert total(engine_stats, "runs") == len(points) == 8

    def test_message_bound_is_evaluated_once_per_stripe(self, monkeypatch):
        # Evaluating a declared bound parses and compiles its expression:
        # run_batch evaluates it once, and the stripe's points read it
        # from the batch result.
        dolev_strong = get("dolev-strong").build
        expected = dolev_strong(5, 1).upper_bound_messages()
        calls = []
        evaluate = AgreementAlgorithm.declared_bound

        def spy(self, declaration):
            calls.append(declaration)
            return evaluate(self, declaration)

        monkeypatch.setattr(AgreementAlgorithm, "declared_bound", spy)
        configs = [({"n": 5}, partial(dolev_strong, 5, 1))]
        points = sweep_parallel(configs, values=(0, 1) * 4, workers=1)
        assert [point.message_bound for point in points] == [expected] * 8
        assert calls.count(dolev_strong.message_bound) == 1, calls

    def test_unpicklable_factories_still_work_serially(self):
        configs = [({"n": 5}, lambda: get("dolev-strong").build(5, 1))]
        specs = expand(configs, values=(0, 1))
        assert batch_specs(specs, workers=1) == run_tasks(specs, workers=1)


class TestFamilyVerdicts:
    """The striped sweep judges each family as the per-spec path does."""

    @pytest.mark.parametrize(
        "name,n,t", [("midpoint-approx", 7, 2), ("filtered-mean-approx", 7, 1)]
    )
    def test_approx_points_match_the_scalar_sweep(self, name, n, t):
        configs = [({"n": n}, partial(get(name).build, n, t))]
        batched = sweep_parallel(configs, workers=1)
        assert batched == run_tasks(expand(configs), workers=1)
        assert [point.agreement_ok for point in batched] == [True, True]

    def test_ben_or_runs_on_seed_zero_on_both_sweep_paths(self):
        from repro.core.runner import run

        configs = [({"n": 6}, partial(get("ben-or").build, 6, 1))]
        scalar = run_tasks(expand(configs), workers=1)
        assert sweep_parallel(configs, workers=1) == scalar
        assert [point.agreement_ok for point in scalar] == [True, True]
        algorithm = get("ben-or")(6, 1)
        for point in scalar:
            reference = run(
                algorithm, point.value, coins=algorithm.coin_source(0)
            )
            assert point.messages == reference.metrics.messages_by_correct
            assert point.phases_used == reference.metrics.last_active_phase
