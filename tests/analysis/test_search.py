"""Tests for the worst-case probing harness."""

import random

import pytest

from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.dolev_strong import DolevStrong
from repro.analysis.search import (
    adversary_family,
    fault_placements,
    probe,
    worst_case_probe,
)
from repro.analysis.sweep import SweepPoint, worst_case


class TestFaultPlacements:
    def test_all_within_budget_and_range(self):
        placements = list(
            fault_placements(10, 3, samples=20, rng=random.Random(1))
        )
        assert placements
        for placement in placements:
            assert 1 <= len(placement) <= 3
            assert all(0 <= pid < 10 for pid in placement)

    def test_no_duplicates(self):
        placements = list(
            fault_placements(8, 2, samples=30, rng=random.Random(2))
        )
        assert len(placements) == len(set(placements))

    def test_systematic_placements_present(self):
        placements = set(fault_placements(10, 2, samples=0, rng=random.Random(0)))
        assert (0,) in placements  # the transmitter
        assert (9,) in placements  # the last (passive/leaf) processor
        assert (0, 1) in placements


class TestAdversaryFamily:
    def test_four_behaviours_per_placement(self):
        family = list(adversary_family((1, 2), random.Random(0)))
        names = [name.split("[")[0].split("{")[0] for name, _ in family]
        assert names == ["silent", "crash", "garbage", "random"]
        for _, adversary in family:
            assert adversary.faulty == frozenset({1, 2})


class TestProbe:
    def test_probe_includes_fault_free(self):
        results = probe(lambda: DolevStrong(5, 1), samples=2)
        assert any(r.adversary == "fault-free" for r in results)

    def test_probe_never_breaks_dolev_strong(self):
        worst, results = worst_case_probe(lambda: DolevStrong(6, 2), samples=5)
        assert all(r.agreement_ok for r in results)
        assert worst.messages == max(r.messages for r in results)

    def test_probe_respects_algorithm1_bound(self):
        worst, _ = worst_case_probe(lambda: Algorithm1(7, 3), samples=8)
        assert worst.messages <= Algorithm1(7, 3).upper_bound_messages()
        # the fault-free value-1 run IS the worst case for Algorithm 1.
        assert worst.messages == Algorithm1(7, 3).upper_bound_messages()
        assert worst.adversary == "fault-free"

    def test_probe_finds_algorithm3s_faulty_root_surcharge(self):
        """For Algorithm 3 some adversarial scenario must cost more than
        fault-free (the 3t²s term of Lemma 1 exists for a reason)."""
        factory = lambda: Algorithm3(16, 2, s=3)
        worst, results = worst_case_probe(factory, samples=10)
        fault_free = max(
            r.messages for r in results if r.adversary == "fault-free"
        )
        assert worst.messages > fault_free
        assert worst.messages <= factory().upper_bound_messages()

    def test_points_are_measured_sweep_points(self):
        worst, points = worst_case_probe(lambda: DolevStrong(5, 1), samples=2)
        assert all(isinstance(point, SweepPoint) for point in points)
        assert worst == worst_case(points)
        assert {point.message_bound for point in points} == {
            DolevStrong(5, 1).upper_bound_messages()
        }
        with pytest.raises(ValueError, match="unknown worst_case key"):
            worst_case_probe(lambda: DolevStrong(5, 1), samples=2, key="faulty")

    def test_deterministic_given_seed(self):
        a = probe(lambda: DolevStrong(5, 1), samples=3, seed=7)
        b = probe(lambda: DolevStrong(5, 1), samples=3, seed=7)
        assert [(r.adversary, r.messages) for r in a] == [
            (r.adversary, r.messages) for r in b
        ]
