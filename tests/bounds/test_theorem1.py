"""Tests for the executable Theorem 1 (signature lower bound)."""

import pytest

from repro.algorithms.active_set import ActiveSetBroadcast
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm2 import Algorithm2
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.cheap_strawman import UnderSigningBroadcast
from repro.algorithms.dolev_strong import DolevStrong
from repro.bounds.theorem1 import (
    exchange_sets,
    signature_flows,
    theorem1_experiment,
)
from repro.core.runner import run


class TestSignatureFlows:
    def test_flows_extracted_from_history(self):
        result = run(DolevStrong(4, 1), 1)
        flows = signature_flows(result.history)
        # phase 1: the transmitter's signature reaches everyone.
        assert {(0, q) for q in (1, 2, 3)} <= flows

    def test_exchange_sets_are_symmetric(self):
        h = run(DolevStrong(5, 1), 0)
        g = run(DolevStrong(5, 1), 1)
        sets = exchange_sets(h.history, g.history, 5)
        for p, partners in sets.items():
            for q in partners:
                assert p in sets[q]


class TestCorrectAlgorithmsRespectTheBound:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: DolevStrong(5, 1),
            lambda: DolevStrong(8, 3),
            lambda: ActiveSetBroadcast(12, 2),
            lambda: Algorithm1(5, 2),
            lambda: Algorithm1(9, 4),
            lambda: Algorithm2(7, 3),
            lambda: Algorithm3(20, 2, s=3),
        ],
        ids=["ds-5-1", "ds-8-3", "as-12-2", "a1-5-2", "a1-9-4", "a2-7-3", "a3-20-2"],
    )
    def test_no_weak_processor_and_budget_met(self, factory):
        report = theorem1_experiment(factory)
        assert not report.weak_processors
        assert report.min_exchange >= report.t + 1
        assert report.bound_respected
        assert report.attack is None


class TestStrawmanIsBroken:
    @pytest.mark.parametrize("n,t", [(4, 1), (6, 2), (8, 3)])
    def test_split_attack_succeeds(self, n, t):
        report = theorem1_experiment(lambda: UnderSigningBroadcast(n, t))
        assert report.weak_processors
        attack = report.attack
        assert attack is not None
        # the proof's indistinguishability step holds exactly:
        assert attack.target_view_matches_h
        # the target decides H's value while the rest decide G's.
        assert attack.target_decision == 0
        assert set(attack.other_decisions.values()) == {1}
        assert attack.agreement_violated

    def test_faulty_set_is_within_budget(self):
        report = theorem1_experiment(lambda: UnderSigningBroadcast(6, 2))
        assert len(report.attack.faulty) <= 2

    def test_weak_processors_are_all_non_transmitters(self):
        report = theorem1_experiment(lambda: UnderSigningBroadcast(6, 2))
        assert report.weak_processors == list(range(1, 6))


class TestReportContents:
    def test_bound_is_n_t_plus_one_quarter(self):
        report = theorem1_experiment(lambda: DolevStrong(8, 3))
        assert float(report.bound) == 8 * 4 / 4

    def test_signature_totals_recorded(self):
        report = theorem1_experiment(lambda: DolevStrong(5, 1))
        h = run(DolevStrong(5, 1), 0)
        assert report.signatures_h == h.metrics.signatures_by_correct
