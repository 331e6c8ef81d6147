"""Cross-checking harness: measured costs vs. the paper's bounds.

For a grid of scenarios (algorithm × adversary × value) this module runs
the executions and checks, per run:

* the run passes :func:`~repro.approx.validation.judge_run`, the verdict
  every path reaches: its family's conditions, then the declared message,
  signature and phase bounds;
* correct processors of an authenticated algorithm sign every message;
* fault-free runs respect both lower bounds (Theorem 2 for messages, and
  for authenticated algorithms the Theorem 1 signature budget across the
  ``H``/``G`` pair).

The same records feed EXPERIMENTS.md and the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.adversary.base import Adversary
from repro.approx.coins import coins_for
from repro.approx.validation import declared_costs, judge_run
from repro.bounds.formulas import theorem2_message_lower_bound
from repro.bounds.theorem1 import theorem1_experiment
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import run
from repro.core.types import Value

AlgorithmFactory = Callable[[], AgreementAlgorithm]
AdversaryFactory = Callable[[AgreementAlgorithm], Adversary | None]


def no_adversary(_: AgreementAlgorithm) -> None:
    """The fault-free scenario."""
    return None


@dataclass
class BoundCheckRecord:
    """One scenario's measurements and verdicts."""

    algorithm: str
    n: int
    t: int
    adversary: str
    value: Value
    messages: int
    signatures: int
    phases_used: int
    phases_configured: int
    message_upper_bound: int | None
    agreement_ok: bool
    within_upper_bound: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.agreement_ok and self.within_upper_bound and not self.violations


def check_scenario(
    factory: AlgorithmFactory,
    value: Value,
    adversary_factory: AdversaryFactory = no_adversary,
    adversary_name: str = "fault-free",
) -> BoundCheckRecord:
    """Run one scenario and compare it against every applicable bound."""
    algorithm = factory()
    adversary = adversary_factory(algorithm)
    result = run(algorithm, value, adversary, coins=coins_for(algorithm))
    declared = declared_costs(algorithm)
    verdict = judge_run(result, algorithm, declared)

    violations = [verdict.text] if verdict.failed else []
    upper = declared.messages
    messages = result.metrics.messages_by_correct
    if algorithm.authenticated and result.metrics.unsigned_correct_messages:
        violations.append(
            f"{result.metrics.unsigned_correct_messages} unsigned messages "
            f"from correct processors in an authenticated algorithm"
        )
    if adversary is None and messages < theorem2_message_lower_bound(algorithm.n, algorithm.t):
        # the Theorem 2 bound is worst-case over histories; a fault-free
        # run below it is possible only for value-asymmetric algorithms
        # (e.g. Algorithm 1 with value 0), so only flag the larger value.
        if value == 1:
            violations.append(
                f"fault-free messages {messages} below the Theorem 2 bound "
                f"{theorem2_message_lower_bound(algorithm.n, algorithm.t)}"
            )

    return BoundCheckRecord(
        algorithm=algorithm.name,
        n=algorithm.n,
        t=algorithm.t,
        adversary=adversary_name,
        value=value,
        messages=messages,
        signatures=result.metrics.signatures_by_correct,
        phases_used=result.metrics.last_active_phase,
        phases_configured=algorithm.num_phases(),
        message_upper_bound=upper,
        agreement_ok=not verdict.failed,
        within_upper_bound=upper is None or messages <= upper,
        violations=violations,
    )


def check_signature_budget(factory: AlgorithmFactory) -> tuple[bool, str]:
    """Theorem 1's check for one authenticated algorithm: the fault-free
    ``H``/``G`` pair carries at least ``n(t+1)/4`` signatures and nobody's
    exchange set is splittable."""
    report = theorem1_experiment(factory)
    if report.weak_processors:
        return False, (
            f"processors {report.weak_processors} exchange ≤ t signatures — "
            f"splittable"
        )
    if not report.bound_respected:
        return False, (
            f"signatures {report.signatures_h + report.signatures_g} below "
            f"bound {report.bound}"
        )
    return True, "ok"


def check_grid(
    factories: Sequence[AlgorithmFactory],
    values: Iterable[Value] = (0, 1),
    adversaries: Sequence[tuple[str, AdversaryFactory]] = (("fault-free", no_adversary),),
) -> list[BoundCheckRecord]:
    """The full scenario grid; returns every record (callers assert .ok)."""
    records = []
    for factory in factories:
        for name, adversary_factory in adversaries:
            for value in values:
                records.append(
                    check_scenario(factory, value, adversary_factory, name)
                )
    return records
