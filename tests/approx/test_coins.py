"""CoinSource: the only entropy the randomized workloads are allowed."""

import pytest

from repro.algorithms.registry import get
from repro.approx.coins import CoinSource


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = CoinSource(7)
        b = CoinSource(7)
        draws_a = [a.uniform(lane, r) for lane in range(4) for r in range(20)]
        draws_b = [b.uniform(lane, r) for lane in range(4) for r in range(20)]
        assert draws_a == draws_b

    def test_different_seeds_differ(self):
        assert CoinSource(1).uniform(0, 1) != CoinSource(2).uniform(0, 1)

    def test_value_independent_of_call_order(self):
        """(lane, round) addresses the value — call order cannot matter."""
        forward = CoinSource(3)
        backward = CoinSource(3)
        keys = [(lane, r) for lane in range(3) for r in range(5)]
        left = {k: forward.uniform(*k) for k in keys}
        right = {k: backward.uniform(*k) for k in reversed(keys)}
        assert left == right

    def test_uniform_in_unit_interval(self):
        coins = CoinSource(0)
        for r in range(200):
            value = coins.uniform(0, r)
            assert 0.0 <= value < 1.0


class TestFlip:
    def test_flip_is_binary_and_counts(self):
        coins = CoinSource(11)
        flips = [coins.flip(pid, r) for pid in range(4) for r in range(10)]
        assert set(flips) <= {0, 1}
        assert coins.flips == len(flips)

    def test_bias_zero_and_one_are_degenerate(self):
        always = CoinSource(5, bias=1.0)
        never = CoinSource(5, bias=0.0)
        assert all(always.flip(0, r) == 1 for r in range(50))
        assert all(never.flip(0, r) == 0 for r in range(50))

    def test_bias_shifts_frequency(self):
        heavy = CoinSource(9, bias=0.9)
        ones = sum(heavy.flip(0, r) for r in range(500))
        assert ones > 400  # E = 450, this is > 6 sigma of slack


class TestScope:
    def test_local_scope_distinguishes_lanes(self):
        coins = CoinSource(13, scope="local")
        a = [coins.uniform(0, r) for r in range(30)]
        b = [coins.uniform(1, r) for r in range(30)]
        assert a != b

    def test_common_scope_ignores_lane(self):
        coins = CoinSource(13, scope="common")
        a = [coins.uniform(0, r) for r in range(30)]
        b = [coins.uniform(1, r) for r in range(30)]
        assert a == b


class TestValidation:
    def test_rejects_bad_bias(self):
        with pytest.raises(ValueError):
            CoinSource(0, bias=-0.1)
        with pytest.raises(ValueError):
            CoinSource(0, bias=1.5)

    def test_rejects_bad_scope(self):
        with pytest.raises(ValueError):
            CoinSource(0, scope="global")


class TestCoinsFor:
    def test_deterministic_algorithms_get_no_coins(self):
        assert get("phase-king")(9, 2).coin_source(None) is None
        assert get("phase-king")(9, 2).coin_source(7) is None

    def test_a_missing_seed_means_seed_zero(self):
        algorithm = get("ben-or")(6, 1, coin_bias=0.25)
        assert algorithm.coin_source(None) == CoinSource(0, bias=0.25)
        assert algorithm.coin_source(7) == CoinSource(7, bias=0.25)
