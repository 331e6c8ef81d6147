"""Tests for interactive consistency (n parallel rotated BA instances)."""

import pytest

from repro.adversary.standard import (
    GarbageAdversary,
    RandomizedAdversary,
    SilentAdversary,
)
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.interactive import InteractiveConsistency
from repro.algorithms.oral_messages import OralMessages
from repro.core.errors import ConfigurationError
from repro.core.runner import run


def make(n=7, t=2, inner=DolevStrong, values=None):
    values = values if values is not None else [f"v{i}" for i in range(n)]
    return InteractiveConsistency(n, t, values=values, inner_factory=inner)


class TestConfiguration:
    def test_value_count_must_match(self):
        with pytest.raises(ConfigurationError, match="one value per"):
            InteractiveConsistency(5, 1, values=["a"], inner_factory=DolevStrong)

    def test_name_and_phases_follow_inner(self):
        algorithm = make()
        assert algorithm.name == "interactive-dolev-strong"
        assert algorithm.num_phases() == DolevStrong(7, 2).num_phases()

    def test_message_bound_is_n_times_inner(self):
        algorithm = make()
        assert (
            algorithm.upper_bound_messages()
            == 7 * DolevStrong(7, 2).upper_bound_messages()
        )


class TestFaultFree:
    def test_everyone_holds_the_true_vector(self):
        algorithm = make()
        result = run(algorithm, "v0")
        assert algorithm.conditions(result).violations == []
        for pid in result.correct:
            assert result.processors[pid].vector() == tuple(
                f"v{i}" for i in range(7)
            )

    def test_unauthenticated_inner(self):
        algorithm = make(inner=OralMessages, values=list(range(7)))
        result = run(algorithm, 0)
        assert algorithm.conditions(result).violations == []

    def test_within_message_bound(self):
        algorithm = make()
        result = run(algorithm, "v0")
        assert result.metrics.messages_by_correct <= algorithm.upper_bound_messages()


class TestConditions:
    def test_split_vectors_and_wrong_slots_are_violations_unless_excused(self):
        algorithm = make(n=5, t=1)
        result = run(algorithm, "v0")
        copies = result.processors[3].copies
        copies[1].decision = lambda: "forged"
        report = algorithm.conditions(result)
        assert (report.agreement, report.validity) == (False, False)
        assert report.violations == [
            "correct processors hold 2 different vectors",
            "3 holds 'forged' for correct source 1 (true value 'v1')",
        ]
        assert algorithm.conditions(result, frozenset({3})).ok


class TestByzantineResilience:
    def test_silent_sources_default_consistently(self):
        algorithm = make()
        result = run(algorithm, "v0", SilentAdversary([2, 5]))
        assert algorithm.conditions(result).violations == []
        vectors = {result.processors[p].vector() for p in result.correct}
        assert len(vectors) == 1
        vector = vectors.pop()
        # faulty sources' slots are the inner default, consistently.
        assert vector[2] == vector[5] == 0
        assert vector[0] == "v0" and vector[3] == "v3"

    def test_garbage_across_all_instances(self):
        algorithm = make(inner=OralMessages, values=list(range(7)))
        result = run(algorithm, 0, GarbageAdversary([4], forge=False))
        assert algorithm.conditions(result).violations == []

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_chaos(self, seed):
        algorithm = make()
        adversary = RandomizedAdversary([1, 6], seed)
        result = run(algorithm, "v0", adversary)
        assert algorithm.conditions(result).violations == []

    def test_signature_rotation_is_unforgeable_across_instances(self):
        """Real processor 3 signs as virtual 0 in instance 3 only; no other
        instance's registry accepts that identity from anyone else."""
        algorithm = make()
        result = run(algorithm, "v0")
        service_3 = algorithm._services[3]
        service_4 = algorithm._services[4]
        from repro.crypto.chains import SignatureChain, chain_body

        forged = service_4.forge(0, chain_body("v3", ()))
        assert not service_4.verify(forged, chain_body("v3", ()))
        # instance 3's registry holds virtual-0 signatures (real 3 signed).
        legit = SignatureChain.initial("x", service_3.key_for(0), service_3)
        assert legit.verify(service_3)
        assert not legit.verify(service_4)
