"""Fuzz campaigns: per-algorithm budgets, parallel execution, shrinking.

A campaign is a deterministic function of ``(algorithms, budget, seed)``:
per-case seeds are derived by hashing, scripts are generated up front, and
the cases fan out over the same process pool the parameter sweeps use
(:func:`repro.analysis.parallel.run_tasks`), which preserves submission
order — so the summary is identical for any worker count, and running the
same campaign twice produces the same bytes.

Shrinking happens after the parallel stage, in-process: failures are rare
and each shrink needs a tight re-execute loop that would waste pool
round-trips.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.algorithms.registry import ALGORITHMS, STRAWMEN, WORKLOADS, get
from repro.approx.validation import BENIGN, BOUND, EPS_VIOLATION, OK, SAFETY
from repro.core.protocol import AgreementAlgorithm
from repro.core.types import Value
from repro.fuzz.generator import generate_script
from repro.fuzz.oracle import FuzzOutcome, execute_script
from repro.fuzz.script import AdversaryScript
from repro.fuzz.shrinker import shrink_script
from repro.transport.faults import FaultPlan, random_plan

#: Small-but-faulty configurations per registered algorithm: big enough for
#: t >= 2 coalitions where the size constraints allow it, small enough that
#: a 200-case budget per algorithm stays interactive.  Algorithms 1/2 need
#: n = 2t + 1; Algorithm 5 needs n >= the smallest square above 6t, so it
#: fuzzes at t = 1.
FUZZ_CONFIGS: dict[str, tuple[int, int, dict[str, object]]] = {
    "dolev-strong": (6, 2, {}),
    "active-set": (8, 2, {}),
    "oral-messages": (7, 2, {}),
    "algorithm-1": (7, 3, {}),
    "algorithm-2": (5, 2, {}),
    "algorithm-3": (7, 2, {"s": 2}),
    "algorithm-5": (10, 1, {}),
    "informed-algorithm-2": (7, 2, {}),
    "phase-king": (9, 2, {}),
    # the approximate / randomized workload family (float-valued params;
    # ben-or's round cap keeps worst-case scripts bounded).
    "midpoint-approx": (7, 2, {"eps": 0.25}),
    "filtered-mean-approx": (7, 2, {"eps": 0.5}),
    "ben-or": (6, 1, {"max_rounds": 8}),
    # strawmen: deliberately broken counterexample algorithms — fuzzable on
    # demand (and the seed corpus is built from them), excluded from "all".
    "strawman-undersigning": (6, 2, {}),
    "strawman-echo": (6, 2, {}),
    "strawman-overshoot": (7, 2, {"eps": 0.25}),
}

#: The values every campaign tries (the paper's algorithms are binary).
CAMPAIGN_VALUES: tuple[Value, ...] = (0, 1)


def derive_seed(master: int, algorithm: str, index: int) -> int:
    """Stable per-case seed: a hash, not Python's salted ``hash()``."""
    text = f"{master}:{algorithm}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:6], "big")


@dataclass(frozen=True)
class FuzzCase:
    """One picklable scenario: algorithm configuration + script + value."""

    algorithm: str
    n: int
    t: int
    value: Value
    seed: int
    script: AdversaryScript
    #: Algorithm tuning parameters; values may be ints (``s``, round caps)
    #: or floats (``eps``, ``coin_bias``).
    params: tuple[tuple[str, object], ...] = ()
    #: Delivery faults injected under the Byzantine script (chaos mode);
    #: ``None`` keeps the perfect lock-step network.
    fault_plan: FaultPlan | None = None
    #: Coin-stream seed for ``uses_coins`` algorithms (derived per case,
    #: like the script seed); ``None`` for the deterministic zoo.
    coin_seed: int | None = None

    def build_algorithm(self) -> AgreementAlgorithm:
        return get(self.algorithm)(self.n, self.t, **dict(self.params))

    def run(self) -> "FuzzResult":
        """Execute the case (worker-pool entry point)."""
        outcome = execute_script(
            self.build_algorithm(),
            self.value,
            self.script,
            fault_plan=self.fault_plan,
            coin_seed=self.coin_seed,
        )
        return FuzzResult(case=self, outcome=outcome)


@dataclass(frozen=True)
class FuzzResult:
    """A case plus its oracle verdict (and, later, its shrunk script)."""

    case: FuzzCase
    outcome: FuzzOutcome
    shrunk: AdversaryScript | None = None

    @property
    def failed(self) -> bool:
        return self.outcome.failed

    @property
    def minimal_script(self) -> AdversaryScript:
        return self.shrunk if self.shrunk is not None else self.case.script


def plan_cases(
    algorithms: Iterable[str],
    *,
    budget: int,
    seed: int,
    values: Sequence[Value] = CAMPAIGN_VALUES,
    configs: Mapping[str, tuple[int, int, dict[str, object]]] | None = None,
) -> list[FuzzCase]:
    """Generate the full deterministic case list for a campaign.

    *budget* is per algorithm; case ``i`` fuzzes value ``values[i % len]``
    under the script of :func:`derive_seed`'s per-case seed, so the list is
    a pure function of the arguments.  Coin-flipping algorithms get a
    second derived seed (lane ``"<name>/coin"``) for their coin stream.
    """
    configs = dict(configs) if configs is not None else FUZZ_CONFIGS
    cases: list[FuzzCase] = []
    for name in algorithms:
        if name not in configs:
            raise KeyError(
                f"no fuzz configuration for algorithm {name!r}; "
                f"known: {sorted(configs)}"
            )
        n, t, params = configs[name]
        algorithm = get(name)(n, t, **params)
        num_phases = algorithm.num_phases()
        domain = sorted(algorithm.value_domain or {0, 1}, key=repr)
        for index in range(budget):
            case_seed = derive_seed(seed, name, index)
            script = generate_script(
                case_seed,
                n=n,
                t=t,
                num_phases=num_phases,
                transmitter=algorithm.transmitter,
                value_domain=domain,
            )
            cases.append(
                FuzzCase(
                    algorithm=name,
                    n=n,
                    t=t,
                    value=values[index % len(values)],
                    seed=case_seed,
                    script=script,
                    params=tuple(sorted(params.items())),
                    coin_seed=(
                        derive_seed(seed, name + "/coin", index)
                        if algorithm.uses_coins
                        else None
                    ),
                )
            )
    return cases


def plan_chaos_cases(
    algorithms: Iterable[str],
    *,
    budget: int,
    seed: int,
    fault_rate: float,
    values: Sequence[Value] = CAMPAIGN_VALUES,
    configs: Mapping[str, tuple[int, int, dict[str, object]]] | None = None,
) -> list[FuzzCase]:
    """Chaos campaign: benign delivery faults instead of Byzantine scripts.

    Each case runs the algorithm with an *empty* adversary script (no
    Byzantine coalition) under a seeded
    :func:`~repro.transport.faults.random_plan` of crash/omission faults
    whose fault-carrying processors stay within the tolerance ``t`` — so
    the crash-tolerant oracle reading applies and any ``safety`` verdict
    is a genuine finding, not fault-budget noise.  Deterministic in
    ``(algorithms, budget, seed, fault_rate)`` exactly like
    :func:`plan_cases`.
    """
    configs = dict(configs) if configs is not None else FUZZ_CONFIGS
    cases: list[FuzzCase] = []
    for name in algorithms:
        if name not in configs:
            raise KeyError(
                f"no fuzz configuration for algorithm {name!r}; "
                f"known: {sorted(configs)}"
            )
        n, t, params = configs[name]
        algorithm = get(name)(n, t, **params)
        num_phases = algorithm.num_phases()
        for index in range(budget):
            case_seed = derive_seed(seed, name, index)
            plan = random_plan(
                case_seed,
                n=n,
                t=t,
                num_phases=num_phases,
                rate=fault_rate,
            )
            cases.append(
                FuzzCase(
                    algorithm=name,
                    n=n,
                    t=t,
                    value=values[index % len(values)],
                    seed=case_seed,
                    script=AdversaryScript(faulty=()),
                    params=tuple(sorted(params.items())),
                    fault_plan=plan,
                    coin_seed=(
                        derive_seed(seed, name + "/coin", index)
                        if algorithm.uses_coins
                        else None
                    ),
                )
            )
    return cases


def shrink_result(result: FuzzResult, *, max_attempts: int = 200) -> FuzzResult:
    """Minimise a failing result's script (no-op for passing results).

    A candidate reproduces when it yields the *same verdict class* as the
    original failure — shrinking never trades a safety violation for a
    mere bound excess.
    """
    if not result.failed:
        return result
    algorithm = result.case.build_algorithm()
    target = result.outcome.verdict
    value = result.case.value

    def reproduce(candidate: AdversaryScript) -> bool:
        """Re-run one failure and check the verdict reproduces.

        The case's fault plan and coin seed (if any) are held fixed:
        shrinking minimises the Byzantine script *under the same injected
        network faults and the same coin stream*.
        """
        probe = execute_script(
            result.case.build_algorithm(),
            value,
            candidate,
            fault_plan=result.case.fault_plan,
            coin_seed=result.case.coin_seed,
        )
        return probe.verdict == target

    shrunk = shrink_script(
        result.case.script,
        reproduce,
        num_phases=algorithm.num_phases(),
        max_attempts=max_attempts,
    )
    return replace(result, shrunk=shrunk)


@dataclass
class AlgorithmSummary:
    """Aggregated campaign verdicts for one algorithm."""

    algorithm: str
    cases: int = 0
    ok: int = 0
    #: Divergence fully attributable to injected benign faults (chaos
    #: campaigns only; not a failure).
    benign: int = 0
    safety: int = 0
    #: ε-agreement / ε-validity failures (approximate workloads only).
    eps: int = 0
    bound: int = 0
    crash: int = 0
    worst_messages: int = 0
    first_failing_seed: int | None = None

    def as_row(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "cases": self.cases,
            "ok": self.ok,
            "benign": self.benign,
            "safety": self.safety,
            "eps": self.eps,
            "bound": self.bound,
            "crash": self.crash,
            "worst msgs": self.worst_messages,
            "first failing seed": (
                self.first_failing_seed
                if self.first_failing_seed is not None
                else "-"
            ),
        }


def summarize(results: Sequence[FuzzResult]) -> list[AlgorithmSummary]:
    """Per-algorithm verdict counts, in first-seen algorithm order."""
    summaries: dict[str, AlgorithmSummary] = {}
    for result in results:
        name = result.case.algorithm
        summary = summaries.setdefault(name, AlgorithmSummary(algorithm=name))
        summary.cases += 1
        verdict = result.outcome.verdict
        if verdict == OK:
            summary.ok += 1
        elif verdict == BENIGN:
            summary.benign += 1
        elif verdict == SAFETY:
            summary.safety += 1
        elif verdict == EPS_VIOLATION:
            summary.eps += 1
        elif verdict == BOUND:
            summary.bound += 1
        else:
            summary.crash += 1
        summary.worst_messages = max(
            summary.worst_messages, result.outcome.messages
        )
        if result.failed and summary.first_failing_seed is None:
            summary.first_failing_seed = result.case.seed
    return list(summaries.values())


def default_algorithm_names() -> list[str]:
    """The ``--algorithm all`` set: every real registered algorithm and
    workload that has a fuzz configuration (strawmen excluded — they are
    *supposed* to fail; fuzz them by name)."""
    return [
        name
        for name in list(ALGORITHMS) + list(WORKLOADS)
        if name in FUZZ_CONFIGS
    ]


def known_algorithm_names() -> list[str]:
    """Everything ``repro fuzz --algorithm`` accepts by name."""
    return [
        name
        for name in list(ALGORITHMS) + list(WORKLOADS) + list(STRAWMEN)
        if name in FUZZ_CONFIGS
    ]
