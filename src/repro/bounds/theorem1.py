"""Theorem 1, executable: the ``Ω(nt)`` signature lower bound.

The proof, step by step (all steps runnable here):

1. Run the two fault-free histories ``H`` (value 0) and ``G`` (value 1).
2. For every processor ``p`` compute ``A(p)`` — everyone that received
   ``p``'s signature or whose signature ``p`` received, in either history.
   Because every authenticated message carries at least its sender's
   signature, all of ``p``'s communication partners are in ``A(p)``.
3. If every ``|A(p)| ≥ t + 1``, the correct processors exchanged at least
   ``n(t+1)/4`` signatures between the two histories (each of ``n``
   processors touches ``t+1`` signature exchanges; each exchange is
   counted at most twice per history pair — hence the ``/4``): the bound
   holds.
4. Otherwise some ``|A(p)| ≤ t`` and the *splitting adversary* exists:
   corrupt exactly ``A(p)``, replay their ``H`` traffic toward ``p`` and
   their ``G`` traffic toward everyone else.  Processor ``p``'s individual
   subhistory equals ``pH`` (it decides 0) while every other correct
   processor's equals its ``G`` view (it decides 1) — agreement breaks.

For the paper's correct algorithms step 4 never triggers; for the
strawmen in :mod:`repro.algorithms.cheap_strawman` it does, and the report
carries the executed violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from repro.adversary.lowerbound import ReplayAdversary, build_split_plan
from repro.bounds.formulas import theorem1_signature_lower_bound
from repro.core.history import History, edge_payloads
from repro.core.message import iter_payload_parts
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import RunResult, run
from repro.core.types import ProcessorId
from repro.core.validation import check_byzantine_agreement
from repro.crypto.signatures import Signature

#: factory producing fresh, identically configured algorithm instances.
AlgorithmFactory = Callable[[], AgreementAlgorithm]


def signature_flows(history: History) -> set[tuple[ProcessorId, ProcessorId]]:
    """All pairs ``(signer, receiver)``: *receiver* got a message carrying
    *signer*'s signature somewhere in *history*."""
    flows: set[tuple[ProcessorId, ProcessorId]] = set()
    for phase_number, phase in enumerate(history.phases):
        if phase_number == 0:
            continue
        for edge in phase.edges():
            for payload in edge_payloads(edge.label):
                for part in iter_payload_parts(payload):
                    if isinstance(part, Signature):
                        flows.add((part.signer, edge.dst))
    return flows


def exchange_sets(
    history_h: History, history_g: History, n: int
) -> dict[ProcessorId, set[ProcessorId]]:
    """``A(p)`` for every ``p``: processors that receive ``p``'s signature
    or whose signature ``p`` receives, in at least one of the histories."""
    sets: dict[ProcessorId, set[ProcessorId]] = {p: set() for p in range(n)}
    for flows in (signature_flows(history_h), signature_flows(history_g)):
        for signer, receiver in flows:
            if signer == receiver:
                continue
            if 0 <= signer < n:
                sets[signer].add(receiver)
                sets[receiver].add(signer)
    return sets


@dataclass
class SplitAttackOutcome:
    """The executed history ``H'`` of step 4."""

    target: ProcessorId
    faulty: frozenset[ProcessorId]
    #: p's view in H' is identical to its view in H (the proof's key step).
    target_view_matches_h: bool
    target_decision: object
    other_decisions: dict[ProcessorId, object]
    agreement_violated: bool


@dataclass
class Theorem1Report:
    """Everything the experiment measured."""

    n: int
    t: int
    bound: Fraction
    #: signatures sent by correct processors in H and in G.
    signatures_h: int
    signatures_g: int
    exchange_sets: dict[ProcessorId, set[ProcessorId]]
    weak_processors: list[ProcessorId]
    attack: SplitAttackOutcome | None

    @property
    def min_exchange(self) -> int:
        return min(len(s) for s in self.exchange_sets.values())

    @property
    def bound_respected(self) -> bool:
        """The two-history signature total meets the paper's bound."""
        return self.signatures_h + self.signatures_g >= self.bound


def run_split_attack(
    factory: AlgorithmFactory,
    result_h: RunResult,
    result_g: RunResult,
    target: ProcessorId,
    faulty: frozenset[ProcessorId],
    coin_seed: int | None = None,
) -> SplitAttackOutcome:
    """Execute history ``H'`` against a fresh algorithm instance, with
    the coins of ``H`` and ``G`` (:func:`theorem1_experiment`)."""
    plan = build_split_plan(result_h.history, result_g.history, target, faulty)
    adversary = ReplayAdversary(faulty, plan)
    algorithm = factory()
    # the one correct processor whose view must match H is `target`; if it
    # is the transmitter its input edge must carry H's value.
    input_value = (
        result_h.input_value
        if target == algorithm.transmitter
        else result_g.input_value
    )
    result = run(algorithm, input_value, adversary, coins=algorithm.coin_source(coin_seed))

    view_h = result_h.history.individual(target)
    view_prime = result.history.individual(target)
    others = {
        pid: value
        for pid, value in result.decisions.items()
        if pid != target and pid not in faulty
    }
    report = check_byzantine_agreement(result)
    return SplitAttackOutcome(
        target=target,
        faulty=faulty,
        target_view_matches_h=(view_h == view_prime),
        target_decision=result.decisions.get(target),
        other_decisions=others,
        agreement_violated=not report.agreement,
    )


def theorem1_experiment(
    factory: AlgorithmFactory, coin_seed: int | None = None
) -> Theorem1Report:
    """Run the full Theorem 1 pipeline against one algorithm; a
    coin-flipping one flips the coins of *coin_seed* in every run."""
    algorithm = factory()
    n, t = algorithm.n, algorithm.t
    result_h = run(factory(), 0, coins=algorithm.coin_source(coin_seed))
    result_g = run(factory(), 1, coins=algorithm.coin_source(coin_seed))

    sets = exchange_sets(result_h.history, result_g.history, n)
    weak = sorted(p for p, a in sets.items() if len(a) <= t)

    attack: SplitAttackOutcome | None = None
    if weak:
        target = weak[0]
        attack = run_split_attack(
            factory, result_h, result_g, target, frozenset(sets[target]), coin_seed
        )

    return Theorem1Report(
        n=n,
        t=t,
        bound=theorem1_signature_lower_bound(n, t),
        signatures_h=result_h.metrics.signatures_by_correct,
        signatures_g=result_g.metrics.signatures_by_correct,
        exchange_sets=sets,
        weak_processors=weak,
        attack=attack,
    )
