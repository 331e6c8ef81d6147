"""Tests for Algorithm 5 (Lemma 5 / Theorem 7): the O(n + t²) algorithm."""

import pytest

from repro.adversary.standard import (
    CrashAdversary,
    EquivocatingTransmitter,
    GarbageAdversary,
    ScriptedAdversary,
    SilentAdversary,
)
from repro.algorithms.algorithm5 import (
    Algorithm5,
    Algorithm5Passive,
    Algorithm5Schedule,
    flist_string,
    parse_flist,
    pi_counts,
)
from repro.core.batch import BatchCase, run_batch
from repro.core.errors import ConfigurationError
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement


class TestFlistStrings:
    def test_round_trip(self):
        value = flist_string(3, [9, 7, 8])
        assert parse_flist(value) == (3, frozenset({7, 8, 9}))

    def test_parse_rejects_malformed(self):
        assert parse_flist("nonsense") is None
        assert parse_flist(("flist", "x", (1,))) is None
        assert parse_flist(("flist", 1, (1, "b"))) is None

    def test_count_pi(self):
        strings = {
            0: {flist_string(2, [10, 11])},
            1: {flist_string(2, [10]), flist_string(1, [12])},
            2: {flist_string(1, [10])},
            # lists 10 in two strings of index 2: one signer, counted once
            3: {flist_string(2, [10, 13]), flist_string(2, [10])},
        }

        def pi(index):
            flists = {
                signer: [
                    parsed[1]
                    for parsed in map(parse_flist, values)
                    if parsed[0] == index
                ]
                for signer, values in strings.items()
            }
            return pi_counts(flists)

        assert pi(2)[10] == 3
        assert pi(1)[10] == 1
        assert pi(1)[12] == 1
        assert pi(2)[12] == 0
        assert pi(2)[13] == 1
        assert pi(2) == {10: 3, 11: 1, 13: 1}


class TestSchedule:
    def test_block_layout(self):
        schedule = Algorithm5Schedule(t=2, levels=2)
        assert schedule.spread_phase == 10
        assert [b.x for b in schedule.blocks] == [2, 1]
        assert schedule.blocks[0].start == 11
        assert schedule.blocks[0].length == 2 * 3 + 3  # L = 3
        assert schedule.blocks[1].start == 20
        assert schedule.blocks[1].length == 2 * 1 + 3  # L = 1
        assert schedule.block0_phase == 25
        assert schedule.num_phases == 25

    def test_block_lookup(self):
        schedule = Algorithm5Schedule(t=2, levels=2)
        block = schedule.block_for(12)
        assert block is not None and block.x == 2
        assert block.offset(12) == 2
        assert schedule.block_for(10) is None  # the spread phase

    def test_zero_levels(self):
        schedule = Algorithm5Schedule(t=1, levels=0)
        assert schedule.blocks == []
        assert schedule.block0_phase == schedule.spread_phase + 1


class TestConfiguration:
    def test_alpha_is_smallest_square_above_6t(self):
        assert Algorithm5(20, 1).alpha == 9
        assert Algorithm5(20, 2).alpha == 16
        assert Algorithm5(30, 3).alpha == 25

    def test_rejects_n_below_alpha(self):
        with pytest.raises(ConfigurationError, match="α"):
            Algorithm5(8, 1)

    def test_default_s_is_t(self):
        assert Algorithm5(30, 3).s == 3


class TestFaultFree:
    @pytest.mark.parametrize("n,t,s", [(9, 1, 1), (12, 1, 3), (30, 2, 3), (40, 2, 7)])
    @pytest.mark.parametrize("value", [0, 1])
    def test_agreement_and_validity(self, n, t, s, value):
        result = run(Algorithm5(n, t, s=s), value)
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == value

    @pytest.mark.parametrize("n,t,s", [(30, 2, 3), (60, 2, 3), (25, 3, 3)])
    def test_within_declared_bound(self, n, t, s):
        algorithm = Algorithm5(n, t, s=s)
        result = run(algorithm, 1)
        assert result.metrics.messages_by_correct <= algorithm.upper_bound_messages()

    def test_fault_free_blocks_after_first_are_idle(self):
        """When every tree activates in block λ, all F-lists are empty and
        later blocks carry only the Algorithm 4 gossip."""
        algorithm = Algorithm5(30, 2, s=3)
        result = run(algorithm, 1)
        last_block = algorithm.schedule.blocks[-1]
        activation_traffic = result.metrics.messages_per_phase[last_block.start]
        assert activation_traffic == 0

    def test_no_direct_deliveries_when_fault_free(self):
        algorithm = Algorithm5(30, 2, s=3)
        result = run(algorithm, 1)
        assert result.metrics.messages_per_phase[algorithm.schedule.block0_phase] == 0


class TestByzantineResilience:
    def test_silent_tree_roots(self):
        algorithm = Algorithm5(40, 2, s=3)
        roots = [tree.root() for tree in algorithm.forest.trees[:2]]
        result = run(algorithm, 1, SilentAdversary(roots))
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1

    def test_silent_internal_nodes(self):
        algorithm = Algorithm5(40, 2, s=7)
        tree = algorithm.forest.trees[0]
        internal = [tree.processor_at(2), tree.processor_at(3)][:2]
        result = run(algorithm, 1, SilentAdversary(internal))
        assert check_byzantine_agreement(result).ok

    def test_silent_leaves(self):
        algorithm = Algorithm5(40, 2, s=7)
        tree = algorithm.forest.trees[0]
        leaves = [tree.processor_at(6), tree.processor_at(7)]
        result = run(algorithm, 1, SilentAdversary(leaves))
        assert check_byzantine_agreement(result).ok

    def test_silent_extra_actives(self):
        algorithm = Algorithm5(40, 2, s=3)
        result = run(algorithm, 1, SilentAdversary([2 * 2 + 1, 2 * 2 + 2]))
        assert check_byzantine_agreement(result).ok

    def test_equivocating_transmitter(self):
        algorithm = Algorithm5(30, 2, s=3)
        adversary = EquivocatingTransmitter(0, {q: q % 2 for q in range(1, 30)})
        result = run(algorithm, 0, adversary)
        assert check_byzantine_agreement(result).ok

    def test_garbage_resilience(self):
        algorithm = Algorithm5(30, 2, s=3)
        result = run(algorithm, 1, GarbageAdversary([3, algorithm.alpha]))
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1

    def test_crash_resilience(self):
        algorithm = Algorithm5(30, 2, s=3)
        result = run(
            algorithm, 1, CrashAdversary({algorithm.alpha: 12, 1: 5})
        )
        assert check_byzantine_agreement(result).ok


class TestProofOfWork:
    def test_faulty_actives_cannot_activate_without_quorum(self):
        """t faulty actives forging an activation with a fabricated proof
        cannot reach the α − 2t quorum, so correct roots stay silent and no
        spurious tree traffic appears."""
        t = 2
        algorithm = Algorithm5(40, t, s=3)
        alpha = algorithm.alpha
        last_block = algorithm.schedule.blocks[-1]  # depth-1 subtrees
        leaf_targets = [
            tree.processor_at(index)
            for tree in algorithm.forest.trees[:1]
            for index in tree.roots_at_depth(1)
        ]

        def script(view, env):
            from repro.algorithms.algorithm5 import Activation
            from repro.crypto.chains import SignatureChain

            if view.phase == last_block.start:
                proof = tuple(
                    SignatureChain.initial(
                        flist_string(1, leaf_targets), env.keys[src], env.service
                    )
                    for src in (1, 2)
                )
                message = SignatureChain(1)
                for src in (1, 2):
                    message = message.extend(env.keys[src], env.service)
                payload = Activation(message=message, proof=proof)
                return [(1, leaf, payload) for leaf in leaf_targets]
            return []

        result = run(algorithm, 1, ScriptedAdversary([1, 2], script))
        assert check_byzantine_agreement(result).ok
        # no leaf got activated by the forged proof: leaves signed nothing
        # beyond their legitimate block-λ chain replies.
        for leaf in leaf_targets:
            processor = result.processors.get(leaf)
            if processor is not None:
                assert processor.activated_block is None

    def test_root_block_assignment(self):
        algorithm = Algorithm5(40, 2, s=7)
        tree = algorithm.forest.trees[0]
        processor = algorithm.make_processor(tree.processor_at(1))
        assert isinstance(processor, Algorithm5Passive)
        # root of a 3-level tree is activated in block 3; leaves in block 1.
        from tests.conftest import make_context

        processor.bind(make_context(pid=tree.processor_at(1), n=40, t=2))
        assert processor.root_block == 3
        leaf = algorithm.make_processor(tree.processor_at(5))
        leaf.bind(make_context(pid=tree.processor_at(5), n=40, t=2))
        assert leaf.root_block == 1


class TestActivationDescent:
    def test_faulty_tree_root_activates_child_subtrees(self):
        """The recursive mechanism itself: when a tree's root is silent,
        block λ stalls for that tree, the gossip spreads its members'
        names, and the *child* subtree roots are activated in block λ−1."""
        algorithm = Algorithm5(40, 2, s=7)  # 3-level trees
        tree = algorithm.forest.trees[0]
        root = tree.root()
        result = run(algorithm, 1, SilentAdversary([root]))
        assert check_byzantine_agreement(result).ok
        levels = algorithm.schedule.levels
        for child_index in tree.children(1):
            child = tree.processor_at(child_index)
            processor = result.processors[child]
            assert processor.activated_block == levels - 1, (
                child,
                processor.activated_block,
            )
        # healthy trees activated at the top block only.
        other_root = algorithm.forest.trees[1].root()
        assert result.processors[other_root].activated_block == levels

    def test_descent_reaches_leaves_when_path_is_faulty(self):
        """Root and one internal node faulty: the leaves under the faulty
        internal node still receive the value (via their own activation or
        the final direct block)."""
        algorithm = Algorithm5(40, 2, s=7)
        tree = algorithm.forest.trees[0]
        faulty = [tree.root(), tree.processor_at(2)]
        result = run(algorithm, 1, SilentAdversary(faulty))
        assert check_byzantine_agreement(result).ok
        for leaf_index in (4, 5):
            leaf = tree.processor_at(leaf_index)
            assert result.decisions[leaf] == 1


class TestTradeoff:
    def test_larger_s_fewer_messages_more_phases(self):
        t, n = 2, 80
        small_s = Algorithm5(n, t, s=1)
        large_s = Algorithm5(n, t, s=7)
        result_small = run(small_s, 1)
        result_large = run(large_s, 1)
        assert large_s.num_phases() > small_s.num_phases()
        assert (
            result_large.metrics.messages_by_correct
            < result_small.metrics.messages_by_correct
        )


class TestExactCounts:
    """Operation counts pinned at their current values: a count that rises
    fails on any machine, however fast it runs."""

    def test_batch_counts_are_unchanged(self):
        def silent_last(algorithm):
            return SilentAdversary(range(algorithm.n - algorithm.t, algorithm.n))

        cases = [BatchCase(value=value) for value in (0, 1)] + [
            BatchCase(
                value=value,
                adversary_name="silent-last",
                adversary_factory=silent_last,
            )
            for value in (0, 1)
        ]
        result = run_batch(Algorithm5(80, 2), cases)
        stats = result.stats
        assert (stats.digest_hits, stats.digest_misses) == (549, 15)
        assert (stats.sign_calls, stats.verify_calls, stats.chain_verify_calls) == (
            290,
            274,
            10638,
        )
        assert [
            (o.messages_by_correct, o.signatures_by_correct, o.phases_used, o.kind)
            for o in result.outcomes
        ] == [
            (1431, 8226, 24, "ok"),
            (1439, 8242, 24, "ok"),
            (1429, 8455, 24, "ok"),
            (1437, 8471, 24, "ok"),
        ]
