"""Generated adversaries on the batch engine agree with the scalar runner.

The oracle runs every fuzz case as a one-case ``run_batch``.  Strict mode
re-runs each case through the scalar runner and demands byte-identical
decisions, metrics and verdicts, so this holds the engine to the
reference under the fuzzer's mutation primitives (forgeries, stale
replays, equivocation, garbling) and its benign fault plans, for every
fuzz configuration, strawmen included.
"""

import pytest

from repro.core.batch import BatchCase, run_batch
from repro.fuzz.campaign import FUZZ_CONFIGS, plan_cases

pytestmark = pytest.mark.fuzz


@pytest.mark.parametrize("name", sorted(FUZZ_CONFIGS))
def test_generated_cases_pass_strict_batches(name):
    cases = plan_cases([name], budget=10, seed=0) + plan_cases(
        [name], budget=10, seed=0, fault_rate=0.3
    )
    batch = [
        BatchCase(
            value=case.value,
            adversary_name="script",
            adversary_factory=lambda _, script=case.script: script.build(),
            fault_plan=case.fault_plan,
            coin_seed=case.coin_seed,
        )
        for case in cases
    ]
    result = run_batch(cases[0].build_algorithm(), batch, strict=True)
    assert len(result.outcomes) == 20
    assert result.stats.scalar_runs == 20
