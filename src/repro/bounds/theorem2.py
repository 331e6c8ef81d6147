"""Theorem 2, executable: the ``Ω(n + t²)`` message lower bound.

The proof has two prongs, both runnable:

* **Linear prong** — one of the two values, say ``v*``, has a set ``Q`` of
  at least ``⌈(n−1)/2⌉`` non-transmitter processors that do *not* decide
  ``v*`` on an empty view (:func:`sensitivity_set` actually feeds a fresh
  processor silence and reads its decision).  In the fault-free history
  with value ``v*`` every member of ``Q`` must therefore receive at least
  one message.

* **Quadratic prong** — corrupt a set ``B ⊆ Q`` of ``⌊1 + t/2⌋``
  processors that never talk to each other and ignore the first ``⌈t/2⌉``
  messages they receive (history ``H'``).  If the algorithm is correct,
  every member of ``B`` must still be *sent* at least ``⌈1 + t/2⌉``
  messages by correct processors: otherwise the *switch* history ``H''`` —
  make one starved member ``p`` correct, corrupt instead the ≤ ``⌈t/2⌉``
  processors that had been feeding it — leaves ``p`` with a completely
  empty view while every other correct processor's view is unchanged from
  ``H'``; ``p`` fails to decide ``v*`` and agreement breaks.

For correct algorithms the experiment verifies the per-member message
counts; for an algorithm that under-communicates it executes ``H''`` and
reports the violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.adversary.lowerbound import IgnoreFirstAdversary, Theorem2SwitchAdversary
from repro.bounds.formulas import (
    theorem2_b_set_size,
    theorem2_ignore_count,
    theorem2_message_lower_bound,
    theorem2_per_b_member_messages,
)
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult, run
from repro.core.types import ProcessorId, Value
from repro.core.validation import check_byzantine_agreement
from repro.crypto.signatures import SignatureService

AlgorithmFactory = Callable[[], AgreementAlgorithm]


def empty_view_decision(
    algorithm: AgreementAlgorithm, pid: ProcessorId, coin_seed: int | None = None
) -> Value:
    """What *pid* decides if it never receives a single message.

    Runs the processor's actual protocol against total silence — the
    operational meaning of "does not agree on v if it receives no messages
    at all" — flipping the coins of *coin_seed* if it flips any.
    """
    service = SignatureService()
    processor = algorithm.spawn(
        pid, service.key_for(pid), service, algorithm.coin_source(coin_seed)
    )
    for phase in range(1, algorithm.num_phases() + 1):
        processor.on_phase(phase, ())
    processor.on_final(())
    return processor.decision()


def sensitivity_set(
    algorithm: AgreementAlgorithm, value: Value, coin_seed: int | None = None
) -> list[ProcessorId]:
    """``Q(value)``: non-transmitter processors whose empty-view decision
    differs from *value*."""
    return [
        pid
        for pid in range(algorithm.n)
        if pid != algorithm.transmitter
        and empty_view_decision(algorithm, pid, coin_seed) != value
    ]


def pick_starved_value(
    algorithm: AgreementAlgorithm, coin_seed: int | None = None
) -> tuple[Value, list[ProcessorId]]:
    """The value whose sensitivity set is larger (the proof's ``v*``)."""
    q0 = sensitivity_set(algorithm, 0, coin_seed)
    q1 = sensitivity_set(algorithm, 1, coin_seed)
    return (0, q0) if len(q0) >= len(q1) else (1, q1)


@dataclass
class SwitchAttackOutcome:
    """The executed contradiction history ``H''``."""

    target: ProcessorId
    faulty: frozenset[ProcessorId]
    target_messages_received: int
    target_decision: object
    other_decisions: dict[ProcessorId, object]
    agreement_violated: bool


@dataclass
class Theorem2Report:
    """Everything Theorem 2's experiment measured for one algorithm."""

    n: int
    t: int
    #: the combined lower bound max{⌈(n−1)/2⌉, ⌊1+t/2⌋·⌈1+t/2⌉}.
    bound: int
    starved_value: Value
    sensitivity_size: int
    #: messages sent by correct processors in the fault-free v* history.
    fault_free_messages: int
    b_set: tuple[ProcessorId, ...]
    #: messages each B member received from correct processors in H'.
    received_by_b: dict[ProcessorId, int]
    per_member_requirement: int
    hprime_messages: int
    hprime_agreement_ok: bool
    attack: SwitchAttackOutcome | None

    @property
    def min_received(self) -> int:
        return min(self.received_by_b.values()) if self.received_by_b else 0

    @property
    def starvable(self) -> bool:
        """True when some B member was fed at most ⌈t/2⌉ messages — the
        precondition of the switch attack."""
        return self.min_received <= theorem2_ignore_count(self.t)

    @property
    def bound_respected(self) -> bool:
        return self.fault_free_messages >= (self.n - 1 + 1) // 2 and not self.starvable


def default_b_set(
    algorithm: AgreementAlgorithm, sensitive: Sequence[ProcessorId]
) -> tuple[ProcessorId, ...]:
    """The proof only needs *some* ``B ⊆ Q``; we take the highest-numbered
    sensitive processors (typically passive ones — the most starvable)."""
    size = theorem2_b_set_size(algorithm.t)
    return tuple(sorted(sensitive)[-size:])


def run_switch_attack(
    factory: AlgorithmFactory,
    hprime: RunResult,
    b_set: Sequence[ProcessorId],
    target: ProcessorId,
    starved_value: Value,
    coin_seed: int | None = None,
) -> SwitchAttackOutcome:
    """Execute ``H''`` for a *target* that received ≤ ⌈t/2⌉ messages."""
    algorithm = factory()
    starvers = frozenset(
        edge.src
        for _, phase in enumerate(hprime.history.phases)
        for edge in phase.edges_to(target)
        if edge.src in hprime.correct
    )
    adversary = Theorem2SwitchAdversary(
        b_rest=[b for b in b_set if b != target],
        starvers=starvers,
        target=target,
        ignore_count=theorem2_ignore_count(algorithm.t),
    )
    result = run(algorithm, starved_value, adversary, coins=algorithm.coin_source(coin_seed))
    report = check_byzantine_agreement(result)
    received = result.history.individual(target).total_received()
    others = {
        pid: value
        for pid, value in result.decisions.items()
        if pid != target
    }
    return SwitchAttackOutcome(
        target=target,
        faulty=adversary.faulty,
        target_messages_received=received,
        target_decision=result.decisions.get(target),
        other_decisions=others,
        agreement_violated=not report.agreement or not report.all_decided,
    )


def theorem2_experiment(
    factory: AlgorithmFactory,
    b_set: Sequence[ProcessorId] | None = None,
    coin_seed: int | None = None,
) -> Theorem2Report:
    """Run the full Theorem 2 pipeline against one algorithm; a
    coin-flipping one flips the coins of *coin_seed* in every run."""
    algorithm = factory()
    n, t = algorithm.n, algorithm.t

    starved_value, sensitive = pick_starved_value(algorithm, coin_seed)
    fault_free = run(factory(), starved_value, coins=algorithm.coin_source(coin_seed))

    chosen_b = tuple(b_set) if b_set is not None else default_b_set(algorithm, sensitive)
    adversary = IgnoreFirstAdversary(chosen_b, theorem2_ignore_count(t))
    hprime = run(
        factory(), starved_value, adversary, coins=algorithm.coin_source(coin_seed)
    )
    hprime_report = check_byzantine_agreement(hprime)
    received = {
        b: hprime.metrics.correct_messages_received_by.get(b, 0) for b in chosen_b
    }

    attack: SwitchAttackOutcome | None = None
    starved = [
        b for b, got in received.items() if got <= theorem2_ignore_count(t)
    ]
    if starved:
        attack = run_switch_attack(
            factory, hprime, chosen_b, starved[0], starved_value, coin_seed
        )

    return Theorem2Report(
        n=n,
        t=t,
        bound=theorem2_message_lower_bound(n, t),
        starved_value=starved_value,
        sensitivity_size=len(sensitive),
        fault_free_messages=fault_free.metrics.messages_by_correct,
        b_set=chosen_b,
        received_by_b=received,
        per_member_requirement=theorem2_per_b_member_messages(t),
        hprime_messages=hprime.metrics.messages_by_correct,
        hprime_agreement_ok=hprime_report.ok,
        attack=attack,
    )
