"""The exact-count manifest: every fuzz configuration's operation counts.

Each entry of ``FUZZ_CONFIGS`` runs in three scenarios: fault-free,
under one fixed-seed ``random_plan`` of benign delivery faults, and
against one fixed-seed ``RandomizedAdversary`` on its last ``t``
processors.  Coin-flipping algorithms use coin seed 0.  Each scenario is
a one-case ``run_batch`` on a fresh algorithm and a fresh digest table,
so its counts depend on the input alone.  A row records the verdict
kind, the paper's measures (correct-sender messages and signatures,
phases used) and every ``Counters`` field.

The test regenerates the manifest and diffs it exactly.  A change that
moves a count re-pins it by running this module as a script and lists
each changed count, old → new::

    PYTHONPATH=src python tests/test_count_manifest.py
"""

import json
from functools import partial
from pathlib import Path

from repro.adversary.standard import RandomizedAdversary
from repro.algorithms.registry import get
from repro.core.batch import BatchCase, run_batch
from repro.fuzz.campaign import FUZZ_CONFIGS
from repro.transport.faults import random_plan

MANIFEST = Path(__file__).parent / "count_manifest.json"

#: The fixed seeds (and fault rate) of the faulted scenarios.
PLAN_SEED, PLAN_RATE, ADVERSARY_SEED = 2, 1.0, 1


def scenarios(algorithm):
    """The three cases each configuration runs, by scenario name."""
    n, t = algorithm.n, algorithm.t
    coin_seed = 0 if algorithm.uses_coins else None
    plan = random_plan(
        PLAN_SEED, n=n, t=t, num_phases=algorithm.num_phases(), rate=PLAN_RATE
    )
    return {
        "fault-free": BatchCase(value=1, coin_seed=coin_seed),
        "fault-plan": BatchCase(value=1, fault_plan=plan, coin_seed=coin_seed),
        "adversary": BatchCase(
            value=1,
            adversary_name="randomized",
            adversary_factory=lambda _: RandomizedAdversary(range(n - t, n), ADVERSARY_SEED),
            coin_seed=coin_seed,
        ),
    }


def manifest_rows():
    rows = []
    for name, (n, t, params) in FUZZ_CONFIGS.items():
        build = partial(get(name), n, t, **params)
        for scenario, case in scenarios(build()).items():
            batch = run_batch(build(), [case])
            (outcome,) = batch.outcomes
            rows.append({
                "algorithm": name, "n": n, "t": t, "scenario": scenario,
                "verdict": outcome.kind,
                "messages": outcome.messages_by_correct,
                "signatures": outcome.signatures_by_correct,
                "phases_used": outcome.phases_used,
                **batch.stats.counts(),
            })
    return rows


def render(rows):
    """One row per line, so a changed count is a one-line diff."""
    return "[\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n]\n"


def test_manifest_matches_the_counts():
    expected = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert render(manifest_rows()).splitlines() == expected


def test_manifest_covers_every_configuration_in_three_scenarios():
    rows = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [(row["algorithm"], row["scenario"]) for row in rows] == [
        (name, scenario)
        for name in FUZZ_CONFIGS
        for scenario in ("fault-free", "fault-plan", "adversary")
    ]


if __name__ == "__main__":  # pragma: no cover - manifest re-pinning
    MANIFEST.write_text(render(manifest_rows()), encoding="utf-8")
    print(f"re-pinned {MANIFEST}")
