"""Tests for Algorithm 4 (Theorem 6 / Lemma 2): the grid exchange."""

import pytest

from repro.adversary.standard import (
    GarbageAdversary,
    ScriptedAdversary,
    SilentAdversary,
)
from repro.algorithms.algorithm4 import Algorithm4, nonisolated_set
from repro.bounds.formulas import theorem6_message_upper_bound
from repro.core.errors import ConfigurationError
from repro.core.runner import run
from repro.network.topology import Grid


def values_for(n: int) -> dict[int, object]:
    return {pid: ("value-of", pid) for pid in range(n)}


class TestConfiguration:
    def test_rejects_missing_values(self):
        with pytest.raises(ConfigurationError, match="no value"):
            Algorithm4(2, 1, {0: "a"})

    def test_rejects_zero_grid(self):
        with pytest.raises(ConfigurationError):
            Algorithm4(0, 0, {})

    def test_three_phases_always(self):
        assert Algorithm4(3, 2, values_for(9)).num_phases() == 3


class TestFaultFree:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_everyone_learns_everything(self, m):
        algorithm = Algorithm4(m, max(1, m // 2) if m > 1 else 0, values_for(m * m))
        result = run(algorithm, 0)
        assert algorithm.conditions(result).violations == []
        p_set = nonisolated_set(algorithm.grid, result.faulty)
        assert p_set == set(range(m * m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_message_count_exactly_at_bound(self, m):
        algorithm = Algorithm4(m, 1, values_for(m * m))
        result = run(algorithm, 0)
        assert result.metrics.messages_by_correct == theorem6_message_upper_bound(m)

    def test_beats_hub_relay_for_large_t(self):
        """The point of Theorem 6: ``3(m−1)m² = O(N^1.5)`` undercuts the
        ``Θ(Nt)`` hub-relay solution once ``t`` grows past ``≈ 3√N``."""
        m = 4
        n = m * m
        t = 3 * m
        hub_relay = (n - 1) * (t + 1) + (n - t - 1) * (t + 1)
        assert theorem6_message_upper_bound(m) < n * t
        assert theorem6_message_upper_bound(m) < hub_relay


class TestLemma2UnderFaults:
    def test_silent_row_isolation(self):
        m, t = 4, 2
        algorithm = Algorithm4(m, t, values_for(m * m))
        # both faults in row 0: rows 1..3 stay clean, row 0 survivors have
        # half their row faulty and fall out of P.
        result = run(algorithm, 0, SilentAdversary([0, 1]))
        assert algorithm.conditions(result).violations == []
        p_set = nonisolated_set(algorithm.grid, result.faulty)
        assert p_set == set(range(4, 16))

    def test_spread_faults_keep_everyone_nonisolated(self):
        m, t = 4, 2
        algorithm = Algorithm4(m, t, values_for(m * m))
        # one fault in each of two different rows: < m/2 = 2 per row.
        result = run(algorithm, 0, SilentAdversary([0, 5]))
        assert algorithm.conditions(result).violations == []
        p_set = nonisolated_set(algorithm.grid, result.faulty)
        assert p_set == set(range(16)) - {0, 5}

    def test_garbage_bundles_rejected(self):
        m, t = 3, 2
        algorithm = Algorithm4(m, t, values_for(9))
        result = run(algorithm, 0, GarbageAdversary([0, 4]))
        assert algorithm.conditions(result).violations == []

    def test_lying_relay_cannot_corrupt_values(self):
        """A faulty processor forwarding altered bundles cannot make a
        non-isolated processor accept a wrong value for a correct one —
        signatures travel with the values."""
        m, t = 3, 1
        algorithm = Algorithm4(m, t, values_for(9))

        def script(view, env):
            if view.phase == 2:
                from repro.crypto.chains import SignatureChain

                fake = SignatureChain.initial(
                    ("value-of", 99), env.keys[4], env.service
                )
                # 4 claims row 1's bundle is just its fake value.
                return [(4, q, (fake,)) for q in (1, 7)]
            return []

        result = run(algorithm, 0, ScriptedAdversary([4], script))
        assert algorithm.conditions(result).violations == []
        p_set = nonisolated_set(algorithm.grid, result.faulty)
        for receiver in p_set:
            exchange = result.processors[receiver].exchange
            for source, values in exchange.gathered.items():
                if source != 4:
                    assert values == {("value-of", source)}


class TestConditions:
    def test_missed_and_wrong_values_are_violations_unless_excused(self):
        algorithm = Algorithm4(3, 1, values_for(9))
        result = run(algorithm, 0)
        gathered = result.processors[3].exchange.gathered
        del gathered[8]
        gathered[2] = {("value-of", 99)}
        report = algorithm.conditions(result)
        assert not report.ok
        assert report.violations == [
            "3 holds a wrong value for 2", "3 missed the value of 8",
        ]
        assert algorithm.conditions(result, frozenset({3})).ok

    def test_p_is_taken_over_the_faulty_and_excused(self):
        """Excusing two of row 0's members isolates the third, as two
        faulty members would."""
        algorithm = Algorithm4(3, 2, values_for(9))
        result = run(algorithm, 0)
        del result.processors[2].exchange.gathered[5]
        assert not algorithm.conditions(result).ok
        assert algorithm.conditions(result, frozenset({0, 1})).ok


class TestNonIsolatedSet:
    def test_counts_row_faults(self):
        grid = Grid(tuple(range(9)))
        p = nonisolated_set(grid, frozenset({0, 1}))
        # row 0 has 2 ≥ m/2 = 1.5 faulty → 2 is isolated.
        assert p == set(range(3, 9))

    def test_no_faults(self):
        grid = Grid(tuple(range(4)))
        assert nonisolated_set(grid, frozenset()) == {0, 1, 2, 3}


class TestGridExchangeFormatChecks:
    def test_oversized_bundle_rejected(self):
        m, t = 2, 1
        algorithm = Algorithm4(m, t, values_for(4))

        def script(view, env):
            if view.phase == 2:
                from repro.crypto.chains import SignatureChain

                chains = tuple(
                    SignatureChain.initial(("spam", i), env.keys[1], env.service)
                    for i in range(5)
                )
                return [(1, 3, chains)]
            return []

        result = run(algorithm, 0, ScriptedAdversary([1], script))
        exchange = result.processors[3].exchange
        assert all(
            not str(v).startswith("('spam'") for vs in exchange.gathered.values() for v in vs
        )

    def test_wrong_signer_in_bundle_rejected(self):
        """A phase-2 bundle may only carry signatures of the *sender's row*;
        smuggling another row's (colluding) signature poisons the whole
        bundle, which is then treated as the empty string."""
        m, t = 3, 2
        algorithm = Algorithm4(m, t, values_for(9))

        def script(view, env):
            if view.phase == 2:
                from repro.crypto.chains import SignatureChain

                outsider = SignatureChain.initial("outside", env.keys[0], env.service)
                # faulty 4 (row 1) sends its column peer 1 a "row 1" bundle
                # signed by faulty 0 — signer 0 is in row 0, not row 1.
                return [(4, 1, (outsider,))]
            return []

        result = run(algorithm, 0, ScriptedAdversary([0, 4], script))
        exchange = result.processors[1].exchange
        assert "outside" not in {v for vs in exchange.gathered.values() for v in vs}
