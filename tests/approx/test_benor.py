"""Ben-Or: coin-driven binary consensus under the variable-round runner."""

import pytest

from repro.adversary.standard import GarbageAdversary, SilentAdversary
from repro.approx.benor import BenOr
from repro.core.errors import ConfigurationError, ProtocolViolationError
from repro.core.runner import run


def run_benor(algorithm: BenOr, seed: int, adversary=None):
    return run(
        algorithm,
        algorithm.inputs[algorithm.transmitter],
        adversary,
        coins=algorithm.coin_source(seed),
    )


class TestConfiguration:
    def test_requires_n_gt_5t(self):
        with pytest.raises(ConfigurationError):
            BenOr(5, 1)
        BenOr(6, 1)  # boundary: 6 > 5

    def test_requires_binary_inputs(self):
        with pytest.raises(ConfigurationError):
            BenOr(6, 1, inputs=(0, 1, 2, 0, 1, 0))

    def test_phase_cap_is_two_per_round(self):
        assert BenOr(6, 1, max_rounds=8).num_phases() == 16


class TestUnanimousFastPath:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_inputs_decide_that_value(self, value):
        algorithm = BenOr(6, 1, inputs=(value,) * 6)
        result = run_benor(algorithm, seed=0)
        assert set(result.decisions.values()) == {value}
        # Unanimity needs no coins: round 1 reports are unanimous, the
        # proposal clears the threshold, decision settles at phase 3.
        assert result.metrics.last_active_phase <= 5

    def test_variable_rounds_stop_early(self):
        algorithm = BenOr(6, 1, inputs=(1,) * 6, max_rounds=30)
        result = run_benor(algorithm, seed=0)
        assert result.metrics.last_active_phase < algorithm.num_phases()


class TestMixedInputs:
    def test_decides_and_agrees_per_seed(self):
        algorithm = BenOr(6, 1)
        for seed in range(10):
            result = run_benor(algorithm, seed)
            values = set(result.decisions.values())
            assert None not in values, f"seed {seed} hit the cap"
            assert len(values) == 1, f"seed {seed} disagreed: {values}"
            assert algorithm.conditions(result).ok

    def test_same_seed_reproduces_exactly(self):
        algorithm = BenOr(6, 1)
        a = run_benor(algorithm, seed=3)
        b = run_benor(algorithm, seed=3)
        assert a.decisions == b.decisions
        assert a.metrics == b.metrics
        assert a.coin_seed == b.coin_seed == 3

    def test_different_seeds_vary_round_count(self):
        algorithm = BenOr(6, 1)
        phases = {run_benor(algorithm, seed).metrics.last_active_phase
                  for seed in range(20)}
        assert len(phases) > 1  # the coin actually steers termination


class TestFaults:
    def test_tolerates_t_silent(self):
        algorithm = BenOr(6, 1)
        for seed in range(5):
            result = run_benor(algorithm, seed, SilentAdversary([5]))
            decided = {v for v in result.decisions.values() if v is not None}
            assert len(decided) <= 1
            assert algorithm.conditions(result).ok

    def test_tolerates_t_garbage(self):
        algorithm = BenOr(6, 1)
        for seed in range(5):
            result = run_benor(algorithm, seed, GarbageAdversary([5]))
            assert algorithm.conditions(result).ok


class TestCoinsRequired:
    def test_mixed_run_without_coins_raises(self):
        algorithm = BenOr(6, 1)
        with pytest.raises(ProtocolViolationError):
            run(algorithm, 1)

    def test_undecided_at_cap_is_not_a_per_run_failure(self):
        """A cap-censored run is a statistics question (see stats.py)."""
        algorithm = BenOr(6, 1, max_rounds=1)
        result = run_benor(algorithm, seed=0)
        report = algorithm.conditions(result)
        assert report.ok
