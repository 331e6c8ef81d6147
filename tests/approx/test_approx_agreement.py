"""ε-agreement: round derivation, trimming, robustness, and validation."""

import math

import pytest

from repro.adversary.standard import GarbageAdversary, SilentAdversary
from repro.approx.filtered_mean import FilteredMeanApprox
from repro.approx.midpoint import MidpointApprox
from repro.approx.strawman import OvershootMidpoint
from repro.core.errors import ConfigurationError
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement
from fractions import Fraction


class TestConfiguration:
    def test_midpoint_requires_n_gt_3t(self):
        with pytest.raises(ConfigurationError):
            MidpointApprox(6, 2)
        MidpointApprox(7, 2)  # boundary: 7 > 6

    def test_filtered_mean_requires_t_at_least_1(self):
        with pytest.raises(ConfigurationError):
            FilteredMeanApprox(4, 0)

    def test_eps_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MidpointApprox(7, 2, eps=0.0)

    def test_inputs_must_match_n(self):
        with pytest.raises(ConfigurationError):
            MidpointApprox(7, 2, inputs=(1.0, 2.0))


class TestRoundDerivation:
    def test_midpoint_rate_is_half(self):
        assert MidpointApprox(7, 2).contraction_rate() == Fraction(1, 2)

    def test_filtered_mean_rate(self):
        # t / (n - 2t) at (7, 2) = 2/3
        assert FilteredMeanApprox(7, 2).contraction_rate() == Fraction(2, 3)

    def test_rounds_shrink_diameter_below_eps(self):
        for eps in (1.0, 0.25, 0.01):
            algorithm = MidpointApprox(7, 2, eps=eps)
            diameter = max(algorithm.inputs) - min(algorithm.inputs)
            rate = float(algorithm.contraction_rate())
            assert diameter * rate**algorithm.m <= eps
            if algorithm.m > 1:  # minimality: one round fewer is not enough
                assert diameter * rate ** (algorithm.m - 1) > eps

    def test_tighter_eps_needs_more_rounds(self):
        loose = MidpointApprox(7, 2, eps=1.0)
        tight = MidpointApprox(7, 2, eps=0.01)
        assert tight.m > loose.m


class TestTrimming:
    def test_trims_t_per_side(self):
        algorithm = MidpointApprox(7, 2)
        survivors = algorithm.trimmed([7.0, 1.0, 3.0, 5.0, 2.0, 6.0, 4.0])
        assert survivors == [3.0, 4.0, 5.0]


class TestFaultFreeConvergence:
    @pytest.mark.parametrize("cls", [MidpointApprox, FilteredMeanApprox])
    def test_decisions_within_eps_and_range(self, cls):
        algorithm = cls(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0])
        values = [result.decisions[pid] for pid in range(7)]
        assert max(values) - min(values) <= 0.25
        assert min(algorithm.inputs) <= min(values)
        assert max(values) <= max(algorithm.inputs)
        assert algorithm.conditions(result).ok


class TestRobustness:
    @pytest.mark.parametrize("cls", [MidpointApprox, FilteredMeanApprox])
    def test_garbage_senders_are_trimmed(self, cls):
        """t junk-spamming processors cannot break ε-agreement/validity."""
        algorithm = cls(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0], GarbageAdversary([5, 6]))
        report = algorithm.conditions(result)
        assert report.ok, str(report)

    def test_silent_senders_are_substituted(self):
        algorithm = MidpointApprox(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0], SilentAdversary([1, 2]))
        report = algorithm.conditions(result)
        assert report.ok, str(report)

    def test_overshoot_strawman_breaks_validity_under_garbage(self):
        """The untrimmed midpoint absorbs junk-as-0.0 and exits the
        correct-input range — the seeded ε-bug the fuzzer must find."""
        algorithm = OvershootMidpoint(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0], GarbageAdversary([6]))
        report = algorithm.conditions(result)
        assert not report.ok
        assert not report.validity

    def test_overshoot_strawman_is_fine_fault_free(self):
        algorithm = OvershootMidpoint(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0])
        assert algorithm.conditions(result).ok


class TestValidator:
    def test_flags_spread_beyond_eps(self):
        algorithm = MidpointApprox(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0])
        result.decisions[0] = result.decisions[1] + 1.0
        report = algorithm.conditions(result)
        assert not report.ok and not report.agreement

    def test_flags_nan_decision_as_undecided(self):
        algorithm = MidpointApprox(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0])
        result.decisions[3] = math.nan
        report = algorithm.conditions(result)
        assert not report.ok and not report.all_decided

    def test_excused_processors_are_ignored(self):
        algorithm = MidpointApprox(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0])
        result.decisions[0] = 1e9
        report = algorithm.conditions(result, excused=frozenset({0}))
        assert report.ok

    def test_dispatch_routes_by_family(self):
        """The run passes its own family's conditions, not exact BA's:
        nobody decides the transmitter's input."""
        algorithm = MidpointApprox(7, 2, eps=0.25)
        result = run(algorithm, algorithm.inputs[0])
        assert algorithm.conditions(result).ok
        assert not check_byzantine_agreement(result).validity
