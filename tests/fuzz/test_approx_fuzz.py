"""Fuzzing the approximate / randomized workload family.

The seeded ε-bug (``strawman-overshoot``, an untrimmed midpoint) must be
*found* by a stock campaign, classified under the dedicated
``eps_violation`` verdict, and shrunk to a script a human can read.
Ben-Or cases must carry a derived coin seed so every finding replays the
exact coin stream that produced it.
"""

from dataclasses import replace

import pytest

from repro.core.validation import EPS_VIOLATION, OK
from repro.fuzz.campaign import (
    FUZZ_CONFIGS,
    plan_cases,
    shrink_result,
    summarize,
)
from repro.fuzz.corpus import CorpusEntry

pytestmark = pytest.mark.fuzz


def _run_overshoot_campaign(budget=40, seed=0):
    cases = plan_cases(["strawman-overshoot"], budget=budget, seed=seed)
    return [case.run() for case in cases]


class TestEpsViolationDiscovery:
    def test_campaign_finds_the_seeded_eps_bug(self):
        results = _run_overshoot_campaign()
        verdicts = {result.outcome.verdict for result in results}
        # The overshoot strawman is correct fault-free but leaks junk into
        # its mean: the only failure class is the epsilon one.
        assert EPS_VIOLATION in verdicts
        assert verdicts <= {OK, EPS_VIOLATION}

    def test_eps_failure_shrinks_to_a_tiny_script(self):
        results = _run_overshoot_campaign()
        first = next(r for r in results if r.outcome.verdict == EPS_VIOLATION)
        shrunk = shrink_result(first)
        assert shrunk.outcome.verdict == EPS_VIOLATION
        assert len(shrunk.case.script.mutations) <= 2
        assert len(shrunk.case.script.faulty) <= first.case.t

    def test_eps_detail_names_the_violated_condition(self):
        results = _run_overshoot_campaign()
        first = next(r for r in results if r.outcome.verdict == EPS_VIOLATION)
        assert "eps" in first.outcome.detail

    def test_summary_counts_eps_in_its_own_bucket(self):
        results = _run_overshoot_campaign()
        (summary,) = summarize(results)
        eps_count = sum(
            1 for r in results if r.outcome.verdict == EPS_VIOLATION
        )
        assert summary.eps == eps_count > 0
        assert summary.safety == 0
        assert summary.ok + summary.eps == summary.cases


class TestCoinSeedDerivation:
    def test_coin_algorithms_get_derived_coin_seeds(self):
        cases = plan_cases(["ben-or"], budget=5, seed=7)
        seeds = [case.coin_seed for case in cases]
        assert all(s is not None for s in seeds)
        assert len(set(seeds)) == len(seeds)  # one stream per case

    def test_deterministic_algorithms_get_none(self):
        for name in ("midpoint-approx", "filtered-mean-approx", "dolev-strong"):
            cases = plan_cases([name], budget=3, seed=7)
            assert all(case.coin_seed is None for case in cases)

    def test_planning_is_deterministic(self):
        assert plan_cases(["ben-or"], budget=5, seed=7) == plan_cases(
            ["ben-or"], budget=5, seed=7
        )

    def test_benor_case_replays_bit_for_bit(self):
        case = plan_cases(["ben-or"], budget=3, seed=11)[1]
        a = case.run().outcome
        b = case.run().outcome
        assert a == b


class TestCorpusRoundTrip:
    def test_float_params_and_coin_seed_survive_json(self):
        results = _run_overshoot_campaign(budget=10)
        first = next(r for r in results if r.outcome.verdict == EPS_VIOLATION)
        entry = CorpusEntry(
            case=replace(first.case, coin_seed=99),
            verdict=first.outcome.verdict,
            detail=first.outcome.detail,
        )
        restored = CorpusEntry.from_json_dict(entry.to_json_dict())
        assert restored == entry
        assert isinstance(dict(restored.case.params)["eps"], float)
        assert restored.case.coin_seed == 99

    def test_coinless_entry_omits_coin_seed_key(self):
        results = _run_overshoot_campaign(budget=10)
        first = next(r for r in results if r.outcome.failed)
        entry = CorpusEntry(
            case=first.case,
            verdict=first.outcome.verdict,
            detail=first.outcome.detail,
        )
        assert "coin_seed" not in entry.to_json_dict()


class TestWorkloadConfigs:
    def test_every_workload_has_a_fuzz_config(self):
        for name in ("midpoint-approx", "filtered-mean-approx", "ben-or",
                     "strawman-overshoot"):
            assert name in FUZZ_CONFIGS

    def test_honest_workloads_survive_a_small_campaign(self):
        for name in ("midpoint-approx", "filtered-mean-approx", "ben-or"):
            cases = plan_cases([name], budget=6, seed=0)
            for case in cases:
                outcome = case.run().outcome
                assert not outcome.failed, (
                    f"{name} seed {case.seed}: {outcome.verdict} "
                    f"({outcome.detail})"
                )
