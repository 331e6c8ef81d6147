"""Tests for the Section 6 hub-relay exchange."""

import pytest

from repro.adversary.standard import (
    GarbageAdversary,
    ScriptedAdversary,
    SilentAdversary,
)
from repro.algorithms.hub_exchange import HubExchange
from repro.core.errors import ConfigurationError
from repro.core.runner import run


def values_for(n: int) -> dict:
    return {pid: ("v", pid) for pid in range(n)}


class TestConfiguration:
    def test_needs_a_correct_relay_margin(self):
        with pytest.raises(ConfigurationError):
            HubExchange(3, 2, values_for(3))

    def test_two_phases(self):
        assert HubExchange(10, 2, values_for(10)).num_phases() == 2

    def test_missing_values_rejected(self):
        with pytest.raises(ConfigurationError, match="no value"):
            HubExchange(5, 1, {0: "a"})


class TestFaultFree:
    @pytest.mark.parametrize("n,t", [(5, 1), (10, 2), (20, 3)])
    def test_everyone_learns_everyone(self, n, t):
        algorithm = HubExchange(n, t, values_for(n))
        result = run(algorithm, 0)
        assert algorithm.conditions(result).violations == []

    @pytest.mark.parametrize("n,t", [(5, 1), (10, 2), (20, 3)])
    def test_message_count_matches_papers_formula(self, n, t):
        algorithm = HubExchange(n, t, values_for(n))
        result = run(algorithm, 0)
        expected = (n - 1) * (t + 1) + (n - t - 1) * (t + 1)
        assert result.metrics.messages_by_correct == expected


class TestByzantineResilience:
    def test_t_silent_relays(self):
        """With t of the t+1 relays dead, the survivor covers everybody."""
        n, t = 12, 3
        algorithm = HubExchange(n, t, values_for(n))
        result = run(algorithm, 0, SilentAdversary(list(range(t))))
        assert algorithm.conditions(result).violations == []

    def test_lying_relay_cannot_corrupt_values(self):
        """A relay rewriting bundle contents fails verification — receivers
        only accept correctly signed values."""
        n, t = 8, 1

        def script(view, env):
            if view.phase == 2:
                from repro.crypto.chains import SignatureChain

                fake = SignatureChain.initial(("fake", 99), env.keys[0], env.service)
                return [(0, q, (fake,)) for q in range(t + 1, n)]
            return []

        algorithm = HubExchange(n, t, values_for(n))
        result = run(algorithm, 0, ScriptedAdversary([0], script))
        assert algorithm.conditions(result).violations == []
        # the fake value is attributed to the faulty relay only.
        for receiver in sorted(result.correct)[t + 1 :]:
            gathered = result.processors[receiver].gathered
            for source, values in gathered.items():
                if source != 0:
                    assert values == {("v", source)}

    def test_garbage_from_non_relay(self):
        n, t = 10, 2
        algorithm = HubExchange(n, t, values_for(n))
        result = run(algorithm, 0, GarbageAdversary([5]))
        assert algorithm.conditions(result).violations == []


class TestConditions:
    def test_missed_and_wrong_values_are_violations_unless_excused(self):
        algorithm = HubExchange(5, 1, values_for(5))
        result = run(algorithm, 0)
        gathered = result.processors[3].gathered
        del gathered[4]
        gathered[2] = {("v", 99)}
        report = algorithm.conditions(result)
        assert not report.ok
        assert report.violations == [
            "3 holds a wrong value for 2", "3 missed the value of 4",
        ]
        assert algorithm.conditions(result, frozenset({3})).ok


class TestComparisonWithGrid:
    def test_grid_beats_hub_exactly_where_theorem6_says(self):
        """Measured, not computed: at N = 36 the grid exchange undercuts
        the hub once t ≥ 8 ≈ 1.5·√N."""
        from repro.algorithms.algorithm4 import Algorithm4
        from repro.core.runner import run as run_algorithm

        m = 6
        n = m * m
        grid = run_algorithm(
            Algorithm4(m, 3, values_for(n)), 0
        ).metrics.messages_by_correct
        costs = {}
        for t in (3, 8, 12):
            hub = run_algorithm(
                HubExchange(n, t, values_for(n)), 0
            ).metrics.messages_by_correct
            costs[t] = hub
        assert grid > costs[3]  # hub wins at small t
        assert grid < costs[8]  # grid wins past ~1.5·√N
        assert grid < costs[12]
