"""Tests for the seeded open-loop load generator."""

import pytest

from repro.service.loadgen import DEFAULT_MIX, MixSpecError, generate_schedule, parse_mix


class TestParseMix:
    def test_default_mix_parses(self):
        items = parse_mix(DEFAULT_MIX)
        assert [item.algorithm for item in items] == [
            "algorithm-3",
            "phase-king",
            "midpoint-approx",
        ]
        assert items[0].weight == 3.0

    def test_weight_defaults_to_one(self):
        (item,) = parse_mix("phase-king:n=24,t=2")
        assert item.weight == 1.0

    def test_extra_params_become_constructor_params(self):
        (item,) = parse_mix("algorithm-3:n=60,t=2,s=4")
        assert item.params == (("s", 4),)

    def test_family_comes_from_the_registry(self):
        assert parse_mix("ben-or:n=11,t=2")[0].family == "randomized"
        assert parse_mix("midpoint-approx:n=8,t=2")[0].family == "approx"
        assert parse_mix("phase-king:n=24,t=2")[0].family == "exact"

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("no-such-algo:n=4,t=1", "no-such-algo"),
            ("phase-king:n=24", "must set n= and t="),
            ("phase-king:n=24,t=2:0", "weight must be positive"),
            ("phase-king:n=24,t=2:zzz", "not a number"),
            ("phase-king", "not NAME"),
            ("phase-king:n=x,t=2", "neither int nor float"),
            ("  ;  ", "no clauses"),
        ],
    )
    def test_malformed_specs_raise(self, spec, match):
        with pytest.raises(MixSpecError, match=match):
            parse_mix(spec)


class TestGenerateSchedule:
    def test_deterministic_for_a_seed(self):
        a = generate_schedule(requests=40, rate=100, seed=7, fault_rate=0.3)
        b = generate_schedule(requests=40, rate=100, seed=7, fault_rate=0.3)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_schedule(requests=40, rate=100, seed=7)
        b = generate_schedule(requests=40, rate=100, seed=8)
        assert a != b

    def test_arrivals_are_strictly_increasing(self):
        schedule = generate_schedule(requests=50, rate=100, seed=1)
        arrivals = [item.arrival_s for item in schedule]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0

    def test_request_ids_are_sequential(self):
        schedule = generate_schedule(requests=10, rate=100, seed=1)
        assert [item.request.request_id for item in schedule] == list(range(10))

    def test_fault_plans_only_on_exact_family(self):
        schedule = generate_schedule(
            requests=120,
            rate=100,
            seed=3,
            mix="phase-king:n=8,t=1; midpoint-approx:n=6,t=1; ben-or:n=7,t=1",
            fault_rate=1.0,
        )
        planned = [s.request for s in schedule if s.request.fault_plan is not None]
        assert planned, "fault_rate=1.0 must produce fault plans"
        assert {r.algorithm for r in planned} == {"phase-king"}

    def test_coin_seeds_only_on_randomized_family(self):
        schedule = generate_schedule(
            requests=80,
            rate=100,
            seed=3,
            mix="phase-king:n=8,t=1; ben-or:n=7,t=1",
        )
        for item in schedule:
            if item.request.algorithm == "ben-or":
                assert item.request.coin_seed is not None
            else:
                assert item.request.coin_seed is None

    def test_coin_seeds_differ_per_request(self):
        schedule = generate_schedule(
            requests=30, rate=100, seed=3, mix="ben-or:n=7,t=1"
        )
        seeds = [item.request.coin_seed for item in schedule]
        assert len(set(seeds)) == len(seeds)

    def test_fault_rate_zero_means_no_plans(self):
        schedule = generate_schedule(requests=60, rate=100, seed=2)
        assert all(item.request.fault_plan is None for item in schedule)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(requests=-1, rate=10, seed=0), "requests"),
            (dict(requests=1, rate=0, seed=0), "rate"),
            (dict(requests=1, rate=10, seed=0, fault_rate=1.5), "fault_rate"),
        ],
    )
    def test_invalid_arguments_raise(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            generate_schedule(**kwargs)
