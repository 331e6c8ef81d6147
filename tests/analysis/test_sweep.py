"""Tests for the sweep harness."""

from functools import partial

import repro.analysis.sweep as sweep
from repro.adversary.standard import RandomizedAdversary, SilentAdversary
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.registry import get
from repro.analysis.parallel import sweep_parallel
from repro.analysis.sweep import measure, worst_case

import pytest


class TestMeasure:
    def test_point_fields(self):
        point = measure(DolevStrong(5, 1), 1, params={"n": 5})
        assert point.algorithm == "dolev-strong"
        assert point.messages > 0
        assert point.agreement_ok
        assert point.param("n") == 5
        assert point.param("missing", "x") == "x"

    def test_measure_is_a_one_case_batch(self, monkeypatch):
        calls = []
        run_batch = sweep.run_batch

        def spy(algorithm, cases, **kwargs):
            calls.append(list(cases))
            return run_batch(algorithm, calls[-1], **kwargs)

        monkeypatch.setattr(sweep, "run_batch", spy)
        adversary = SilentAdversary([1])
        point = measure(DolevStrong(5, 1), 1, adversary, adversary_name="silent-1")
        assert [len(cases) for cases in calls] == [1]
        (case,) = calls[0]
        assert case.adversary_factory(None) is adversary
        assert (point.adversary, point.agreement_ok) == ("silent-1", True)

    def test_as_row_merges_params(self):
        point = measure(Algorithm1(5, 2), 1, params={"t": 2})
        row = point.as_row()
        assert row["algorithm"] == "algorithm-1"
        assert row["t"] == 2
        assert "messages" in row and "bound" in row

    def test_as_row_params_cannot_overwrite_base_columns(self):
        """A sweep param named like a base column must not clobber the
        measured value — it gets a ``param_`` prefix instead."""
        point = measure(
            Algorithm1(5, 2), 1, params={"n": "grid-n", "messages": -1, "s": 4}
        )
        row = point.as_row()
        assert row["n"] == 5  # the measured system size, not the param
        assert row["messages"] == point.messages
        assert row["param_n"] == "grid-n"
        assert row["param_messages"] == -1
        assert row["s"] == 4  # non-colliding params keep their names


class TestSweep:
    def test_cartesian_product(self):
        configurations = [
            ({"t": t}, (lambda t=t: Algorithm1(2 * t + 1, t))) for t in (1, 2)
        ]
        points = sweep_parallel(
            configurations,
            values=(0, 1),
            adversaries=(
                ("fault-free", lambda alg: None),
                ("silent-1", lambda alg: SilentAdversary([1])),
            ),
            workers=1,
        )
        assert len(points) == 2 * 2 * 2
        assert all(p.agreement_ok for p in points)

    def test_factory_called_once_per_stripe(self):
        """A stripe's scenarios share one instance, the batch engine's arena."""
        counter = {"built": 0}

        def factory():
            counter["built"] += 1
            return DolevStrong(4, 1)

        points = sweep_parallel([({}, factory)], values=(0, 1, 0, 1), workers=1)
        assert len(points) == 4
        assert counter["built"] == 1

    def test_shared_instance_matches_fresh_measure_per_point(self):
        """Sharing the arena changes no point of a grid that mixes values
        and adversaries."""
        configurations = [
            ({"n": 5}, partial(DolevStrong, 5, 1)),
            ({"n": 9}, partial(get("phase-king").build, 9, 2)),
        ]
        values = (0, 1, 1)
        adversaries = (
            ("fault-free", None),
            ("silent-1", lambda algorithm: SilentAdversary([1])),
            ("randomized", lambda algorithm: RandomizedAdversary([2], 7)),
        )
        expected = []
        for params, factory in configurations:
            for name, make_adversary in adversaries:
                for value in values:
                    algorithm = factory()
                    expected.append(
                        measure(
                            algorithm,
                            value,
                            make_adversary(algorithm) if make_adversary else None,
                            adversary_name=name,
                            params=params,
                        )
                    )
        points = sweep_parallel(
            configurations, values=values, adversaries=adversaries, workers=1
        )
        assert points == expected


class TestWorstCase:
    def test_maximises_messages(self):
        points = sweep_parallel(
            [({"t": t}, (lambda t=t: Algorithm1(2 * t + 1, t))) for t in (1, 2, 3)],
            values=(1,),
            workers=1,
        )
        worst = worst_case(points)
        assert worst.param("t") == 3

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            worst_case([])

    def test_accepts_other_cost_measures(self):
        points = sweep_parallel(
            [({"t": t}, (lambda t=t: Algorithm1(2 * t + 1, t))) for t in (1, 2)],
            values=(1,),
            workers=1,
        )
        assert worst_case(points, key="signatures").param("t") == 2
        # phases_used ties across this grid (both settle in 2 phases), so
        # assert the maximum is attained rather than which point wins the tie.
        worst_phases = worst_case(points, key="phases_used")
        assert worst_phases.phases_used == max(p.phases_used for p in points)

    def test_unknown_key_raises_value_error(self):
        points = sweep_parallel([({}, lambda: Algorithm1(5, 2))], values=(1,), workers=1)
        with pytest.raises(ValueError, match="unknown worst_case key"):
            worst_case(points, key="message")  # typo for "messages"
        with pytest.raises(ValueError, match="params"):
            worst_case(points, key="params")  # real field, not maximisable
