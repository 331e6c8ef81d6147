"""Scale tests: the algorithms at sizes well past the unit-test range.

These keep the suite honest about simulator performance and shake out
bugs that only appear with many trees / chain sets / grid rows (index
arithmetic, remainder groups, schedule length).  Each case also asserts
the paper's bound at that size.
"""

import pytest

from repro.adversary.standard import RandomizedAdversary, SilentAdversary
from repro.algorithms.active_set import ActiveSetBroadcast
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.algorithm4 import Algorithm4
from repro.algorithms.algorithm5 import Algorithm5
from repro.algorithms.oral_messages import OralMessages
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement


class TestScale:
    def test_active_set_500_processors(self):
        algorithm = ActiveSetBroadcast(500, 5)
        result = run(algorithm, 1, record_history=False)
        assert check_byzantine_agreement(result).ok
        assert result.metrics.messages_by_correct <= algorithm.upper_bound_messages()

    def test_algorithm3_500_processors_many_chain_sets(self):
        algorithm = Algorithm3(500, 4)  # s = 16, ~31 chain sets
        result = run(algorithm, 1, record_history=False)
        assert check_byzantine_agreement(result).ok
        assert result.metrics.messages_by_correct <= algorithm.upper_bound_messages()

    def test_algorithm3_with_faults_at_scale(self):
        algorithm = Algorithm3(300, 3, s=5)
        roots = [cs.root for cs in algorithm.sets[:3]]
        result = run(algorithm, 1, SilentAdversary(roots), record_history=False)
        assert check_byzantine_agreement(result).ok

    def test_algorithm5_200_processors_many_trees(self):
        algorithm = Algorithm5(200, 4, s=7)
        result = run(algorithm, 1, record_history=False)
        assert check_byzantine_agreement(result).ok
        assert result.metrics.messages_by_correct <= algorithm.upper_bound_messages()

    def test_algorithm5_with_scattered_faults_at_scale(self):
        algorithm = Algorithm5(150, 3, s=3)
        alpha = algorithm.alpha
        faulty = [1, alpha + 1, alpha + 30]
        result = run(
            algorithm, 1, RandomizedAdversary(faulty, seed=7), record_history=False
        )
        assert check_byzantine_agreement(result).ok

    def test_grid_exchange_100_processors(self):
        m = 10
        algorithm = Algorithm4(m, 4, {pid: pid for pid in range(100)})
        result = run(algorithm, 0, SilentAdversary([0, 1, 2, 3]))
        assert algorithm.conditions(result).violations == []

    def test_oral_messages_t4_exponential_but_finishes(self):
        algorithm = OralMessages(13, 4)
        result = run(algorithm, 1, record_history=False)
        assert check_byzantine_agreement(result).ok
        assert result.metrics.messages_by_correct == algorithm.upper_bound_messages()

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_algorithm5_remainder_trees(self, n):
        """n chosen so the last tree is truncated at different fill levels."""
        algorithm = Algorithm5(n, 2, s=7)
        result = run(algorithm, 1, record_history=False)
        assert check_byzantine_agreement(result).ok
