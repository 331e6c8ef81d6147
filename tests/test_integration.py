"""Cross-module integration tests.

These exercise whole pipelines rather than single modules: Lemma 4's
activation accounting inside Algorithm 5, determinism of complete runs,
rushing-adversary mode, and the sweep, ``measure()`` and the adversary
probe over the full algorithm registry.
"""

from functools import partial

import pytest

from repro.adversary.standard import (
    RandomizedAdversary,
    SilentAdversary,
    SimulatingAdversary,
)
from repro.algorithms.algorithm5 import Algorithm5, Algorithm5Passive
from repro.algorithms.registry import ALGORITHMS, WORKLOADS
from repro.analysis.parallel import sweep_parallel
from repro.analysis.search import worst_case_probe
from repro.analysis.sweep import measure
from repro.bounds.formulas import theorem2_message_lower_bound
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement
from repro.fuzz.campaign import FUZZ_CONFIGS


class TestLemma4ActivationBound:
    """Lemma 4: in each tree C with b(C) faulty members, at most
    2·b(C) + 1 processors get activated or are faulty."""

    def activated_or_faulty_per_tree(self, algorithm, result):
        counts = {}
        for index, tree in enumerate(algorithm.forest.trees):
            total = 0
            for pid in tree.members:
                if pid in result.faulty:
                    total += 1
                    continue
                processor = result.processors[pid]
                assert isinstance(processor, Algorithm5Passive)
                if processor.activated_block is not None:
                    total += 1
            counts[index] = total
        return counts

    def faulty_per_tree(self, algorithm, faulty):
        return {
            index: sum(1 for pid in tree.members if pid in faulty)
            for index, tree in enumerate(algorithm.forest.trees)
        }

    def check(self, n, t, s, faulty):
        algorithm = Algorithm5(n, t, s=s)
        result = run(algorithm, 1, SilentAdversary(faulty) if faulty else None)
        assert check_byzantine_agreement(result).ok
        activated = self.activated_or_faulty_per_tree(algorithm, result)
        b = self.faulty_per_tree(algorithm, frozenset(faulty))
        for index in activated:
            assert activated[index] <= 2 * b[index] + 1, (
                index,
                activated[index],
                b[index],
            )

    def test_fault_free_only_roots_activate(self):
        self.check(40, 2, 7, faulty=[])

    def test_one_faulty_root(self):
        algorithm = Algorithm5(40, 2, s=7)
        root = algorithm.forest.trees[0].root()
        self.check(40, 2, 7, faulty=[root])

    def test_faulty_root_and_internal_node(self):
        algorithm = Algorithm5(40, 2, s=7)
        tree = algorithm.forest.trees[0]
        self.check(40, 2, 7, faulty=[tree.root(), tree.processor_at(2)])

    def test_two_faulty_leaves(self):
        algorithm = Algorithm5(46, 2, s=7)
        tree = algorithm.forest.trees[0]
        self.check(46, 2, 7, faulty=[tree.processor_at(4), tree.processor_at(6)])


class TestDeterminism:
    """Identical configurations produce identical executions — essential
    for the replay-based lower-bound proofs."""

    @pytest.mark.parametrize(
        "name,n,t",
        [("dolev-strong", 7, 2), ("algorithm-3", 16, 2), ("algorithm-5", 24, 2)],
    )
    def test_fault_free_runs_are_identical(self, name, n, t):
        info = ALGORITHMS[name]
        first = run(info(n, t), 1)
        second = run(info(n, t), 1)
        assert first.decisions == second.decisions
        assert first.metrics.summary() == second.metrics.summary()
        for pid in range(n):
            assert first.history.individual(pid) == second.history.individual(pid)

    def test_seeded_adversaries_are_deterministic(self):
        info = ALGORITHMS["algorithm-1"]
        runs = [
            run(info(7, 3), 1, RandomizedAdversary([1, 4], seed=99))
            for _ in range(2)
        ]
        assert runs[0].decisions == runs[1].decisions
        assert (
            runs[0].metrics.messages_by_faulty == runs[1].metrics.messages_by_faulty
        )


class TestRushingMode:
    """The algorithms remain correct when the adversary sees the current
    phase's correct traffic before choosing its own messages."""

    @pytest.mark.parametrize(
        "name,n,t",
        [("dolev-strong", 7, 2), ("algorithm-1", 7, 3), ("algorithm-2", 7, 3)],
    )
    def test_simulating_adversary_under_rushing(self, name, n, t):
        info = ALGORITHMS[name]
        result = run(info(n, t), 1, SimulatingAdversary([1, 2]), rushing=True)
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1


class TestFullRegistryGrid:
    """Every registered algorithm × several adversaries × both values."""

    def test_registry_wide_bounds_check(self):
        sizing = {
            "algorithm-1": (7, 3),
            "algorithm-2": (7, 3),
            "oral-messages": (7, 2),
            "phase-king": (9, 2),
        }
        factories = {
            name: partial(info, *sizing.get(name, (18, 2)))
            for name, info in ALGORITHMS.items()
        }
        adversaries = (
            ("fault-free", None),
            ("silent-1", lambda alg: SilentAdversary([1])),
            ("shadow", lambda alg: SimulatingAdversary([1, 2][: alg.t])),
        )
        points = sweep_parallel(
            [({}, factory) for factory in factories.values()],
            values=(0, 1),
            adversaries=adversaries,
            workers=1,
        )
        assert len(points) == len(factories) * 3 * 2
        bad = [p for p in points if not p.agreement_ok]
        assert not bad, [(p.algorithm, p.adversary, p.value) for p in bad]

        # The two checks the verdict does not make, on each run's ledger.
        for name, factory in factories.items():
            for adversary_name, make_adversary in adversaries:
                for value in (0, 1):
                    algorithm = factory()
                    adversary = make_adversary(algorithm) if make_adversary else None
                    metrics = run(algorithm, value, adversary, record_history=False).metrics
                    scenario = (name, adversary_name, value)
                    if algorithm.authenticated:
                        assert metrics.unsigned_correct_messages == 0, scenario
                    # Theorem 2's bound is worst-case over histories; a
                    # fault-free run below it is possible only for a
                    # value-asymmetric algorithm (Algorithm 1 on 0), so
                    # only the larger value is held to it.
                    if adversary is None and value == 1:
                        assert metrics.messages_by_correct >= theorem2_message_lower_bound(
                            algorithm.n, algorithm.t
                        ), scenario


class TestHarnessesJudgeEveryFamily:
    """The adversary probe and ``measure()`` judge each workload by its own
    family's conditions and run it on its coins, as every other path
    does."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_passes_both_harnesses(self, name):
        n, t, params = FUZZ_CONFIGS[name]
        factory = partial(WORKLOADS[name], n, t, **params)
        _, points = worst_case_probe(factory, samples=1)
        assert points and all(point.agreement_ok for point in points)
        for value in (0, 1):
            assert measure(factory(), value).agreement_ok
