"""Tests for the Section 2 correctness predicate (repro.core.conformance)."""

import pytest

from repro.adversary.standard import (
    CrashAdversary,
    EquivocatingTransmitter,
    GarbageAdversary,
    SelectiveSilenceAdversary,
    SilentAdversary,
    SimulatingAdversary,
)
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm2 import Algorithm2
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.oral_messages import OralMessages
from repro.core.conformance import (
    behaviourally_faulty,
    check_conformance,
    conformance_of,
)
from repro.core.errors import ConfigurationError
from repro.core.runner import run


class TestCorrectProcessorsConform:
    """Self-check: the runner's correct processors must be correct-in-H."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DolevStrong(6, 2),
            lambda: OralMessages(7, 2),
            lambda: Algorithm1(7, 3),
            lambda: Algorithm2(5, 2),
            lambda: Algorithm3(14, 2, s=3),
        ],
        ids=["ds", "om", "a1", "a2", "a3"],
    )
    @pytest.mark.parametrize("value", [0, 1])
    def test_fault_free_everyone_conforms(self, factory, value):
        algorithm = factory()
        result = run(algorithm, value)
        verdicts = check_conformance(result, factory())
        for pid, verdict in verdicts.items():
            assert verdict.correct_in_history, (pid, verdict.deviations)

    def test_correct_processors_conform_despite_faulty_peers(self):
        algorithm = DolevStrong(7, 2)
        result = run(algorithm, 1, GarbageAdversary([1, 5]))
        verdicts = check_conformance(result, DolevStrong(7, 2))
        for pid in result.correct:
            assert verdicts[pid].correct_in_history, pid


class TestFaultLocalisation:
    def test_silent_processor_deviates_when_it_should_speak(self):
        algorithm = DolevStrong(6, 2)
        result = run(algorithm, 1, SilentAdversary([2]))
        verdict = conformance_of(result, DolevStrong(6, 2), 2)
        assert not verdict.correct_in_history
        # in Dolev-Strong, 2's duty was the phase-2 relay.
        assert verdict.first_deviation_phase == 2
        assert verdict.deviations[0].missing

    def test_crash_deviation_phase_matches_crash(self):
        algorithm = Algorithm1(7, 3)
        result = run(algorithm, 1, CrashAdversary({1: 2}))
        verdict = conformance_of(result, Algorithm1(7, 3), 1)
        assert verdict.first_deviation_phase == 2

    def test_selective_silence_shows_missing_sends_only(self):
        algorithm = DolevStrong(6, 2)
        result = run(algorithm, 1, SelectiveSilenceAdversary([2], muted=[4]))
        verdict = conformance_of(result, DolevStrong(6, 2), 2)
        assert not verdict.correct_in_history
        deviation = verdict.deviations[0]
        assert deviation.missing and not deviation.extra

    def test_garbage_shows_extra_sends(self):
        algorithm = DolevStrong(6, 2)
        result = run(algorithm, 1, GarbageAdversary([2]))
        verdict = conformance_of(result, DolevStrong(6, 2), 2)
        assert any(d.extra for d in verdict.deviations)

    def test_equivocating_transmitter_is_behaviourally_faulty(self):
        algorithm = DolevStrong(6, 1)
        adversary = EquivocatingTransmitter(0, {q: q % 2 for q in range(1, 6)})
        result = run(algorithm, 0, adversary)
        assert 0 in behaviourally_faulty(check_conformance(result, DolevStrong(6, 1)))


class TestBehaviouralCorrectness:
    """The paper's point: correctness is about behaviour, not allegiance."""

    def test_identity_simulated_faulty_are_correct_in_history(self):
        algorithm = DolevStrong(7, 2)
        result = run(algorithm, 1, SimulatingAdversary([2, 3]))
        assert behaviourally_faulty(check_conformance(result, DolevStrong(7, 2))) == frozenset()

    def test_behavioural_set_is_subset_of_corrupted_set(self):
        """Corrupting a processor does not make it incorrect-in-H until it
        actually deviates: 1 crashes before its phase-2 relay duty and is
        caught; 4's crash phase lies beyond the run, and a late-crash 2
        whose only duty already passed stays correct-in-H."""
        algorithm = Algorithm1(7, 3)
        result = run(algorithm, 1, CrashAdversary({1: 2, 2: 3, 4: 99}))
        behavioural = behaviourally_faulty(check_conformance(result, Algorithm1(7, 3)))
        assert behavioural <= result.faulty
        # 1 missed its relay; 2 relayed at phase 2 and owed nothing more;
        # 4 never reached its crash phase.
        assert behavioural == frozenset({1})


class TestPreconditions:
    def test_requires_recorded_history(self):
        algorithm = DolevStrong(5, 1)
        result = run(algorithm, 1, record_history=False)
        with pytest.raises(ConfigurationError, match="history"):
            check_conformance(result, DolevStrong(5, 1))

    def test_deviation_description(self):
        algorithm = DolevStrong(6, 2)
        result = run(algorithm, 1, SilentAdversary([2]))
        verdict = conformance_of(result, DolevStrong(6, 2), 2)
        assert "phase 2" in verdict.deviations[0].describe()
