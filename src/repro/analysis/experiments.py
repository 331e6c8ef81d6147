"""Programmatic runner for the paper's experiments E1–E12.

The benchmark suite under ``benchmarks/`` is the full-resolution version;
this module runs a fast pass of every experiment and returns one
:class:`~repro.analysis.report.ExperimentReport` — the table EXPERIMENTS.md
is built from, available to library users and the ``python -m repro
experiments`` CLI command.

Each ``experiment_*`` function is independent and returns the records it
appended, so callers can run a single experiment cheaply.

The grid-shaped experiments (E7, E9, E10, E11, E12) execute through
:func:`repro.analysis.parallel.sweep_parallel`, so they use every core by
default; set ``REPRO_SWEEP_WORKERS=1`` to force serial execution.
"""

from __future__ import annotations

from functools import partial

from repro.adversary.standard import SilentAdversary
from repro.algorithms.active_set import ActiveSetBroadcast
from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.algorithm2 import Algorithm2
from repro.algorithms.algorithm3 import Algorithm3
from repro.algorithms.algorithm4 import Algorithm4, nonisolated_set
from repro.algorithms.algorithm5 import Algorithm5
from repro.algorithms.cheap_strawman import UnderSigningBroadcast
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.informed import InformedAlgorithm2
from repro.algorithms.oral_messages import OralMessages
from repro.analysis.parallel import sweep_parallel
from repro.analysis.report import ExperimentReport
from repro.bounds import formulas
from repro.bounds.theorem1 import theorem1_experiment
from repro.bounds.theorem2 import theorem2_experiment
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement


def experiment_e1(report: ExperimentReport) -> None:
    """Theorem 1: signature budgets plus the splitting attack."""
    t1 = theorem1_experiment(lambda: DolevStrong(10, 2))
    report.add(
        "E1 / Theorem 1",
        "every processor exchanges ≥ t+1 signatures; total ≥ n(t+1)/4",
        "dolev-strong, n=10, t=2, fault-free H and G",
        f"min |A(p)| = {t1.min_exchange} ≥ 3; sigs H+G = "
        f"{t1.signatures_h + t1.signatures_g} ≥ {float(t1.bound):g}",
        not t1.weak_processors and t1.bound_respected,
    )
    attack = theorem1_experiment(lambda: UnderSigningBroadcast(6, 2)).attack
    report.add(
        "E1 / Theorem 1 (attack)",
        "an under-signing algorithm is split by corrupting A(p)",
        "strawman, n=6, t=2",
        f"pH' == pH: {attack.target_view_matches_h}; agreement broken: "
        f"{attack.agreement_violated}",
        attack is not None
        and attack.target_view_matches_h
        and attack.agreement_violated,
    )


def experiment_e2(report: ExperimentReport) -> None:
    """Corollary 1: the unauthenticated message bound."""
    n, t = 7, 2
    result = run(OralMessages(n, t), 1)
    bound = float(formulas.corollary1_message_lower_bound(n, t))
    report.add(
        "E2 / Corollary 1",
        "unauthenticated algorithms send ≥ n(t+1)/4 messages",
        f"oral-messages, n={n}, t={t}",
        f"{result.metrics.messages_by_correct} ≥ {bound:g}, 0 signatures",
        result.metrics.messages_by_correct >= bound
        and result.metrics.signatures_by_correct == 0,
    )


def experiment_e3(report: ExperimentReport) -> None:
    """Theorem 2: the message bound, B-set feeding, and the switch attack."""
    t2 = theorem2_experiment(lambda: Algorithm1(9, 4))
    report.add(
        "E3 / Theorem 2",
        "messages ≥ max{⌈(n−1)/2⌉, ⌊1+t/2⌋⌈1+t/2⌉}; B fed ≥ ⌈1+t/2⌉ each",
        "algorithm-1, n=9, t=4, ignore-first adversary on B",
        f"fault-free {t2.fault_free_messages} ≥ {t2.bound}; min fed "
        f"{t2.min_received} ≥ {t2.per_member_requirement}",
        t2.fault_free_messages >= t2.bound and not t2.starvable,
    )
    attack = theorem2_experiment(lambda: UnderSigningBroadcast(8, 2)).attack
    report.add(
        "E3 / Theorem 2 (attack)",
        "a starvable algorithm is broken by the switch history H''",
        "strawman, n=8, t=2",
        f"target received {attack.target_messages_received}; agreement "
        f"broken: {attack.agreement_violated}",
        attack is not None and attack.agreement_violated,
    )


def experiment_e4(report: ExperimentReport) -> None:
    """Theorem 3: Algorithm 1's exact bound."""
    t = 4
    result = run(Algorithm1(2 * t + 1, t), 1)
    bound = formulas.theorem3_message_upper_bound(t)
    report.add(
        "E4 / Theorem 3",
        "Algorithm 1: t+2 phases, ≤ 2t²+2t messages",
        f"n={2 * t + 1}, t={t}, fault-free value 1 (the worst case)",
        f"{result.metrics.messages_by_correct} == {bound} (attained exactly)",
        result.metrics.messages_by_correct == bound
        and check_byzantine_agreement(result).ok,
    )


def experiment_e5(report: ExperimentReport) -> None:
    """Theorem 4: Algorithm 2's exact bound and proof possession."""
    t = 3
    result = run(Algorithm2(2 * t + 1, t), 1)
    bound = formulas.theorem4_message_upper_bound(t)
    proofs = all(p.has_agreement_proof() for p in result.processors.values())
    report.add(
        "E5 / Theorem 4",
        "Algorithm 2: 3t+3 phases, ≤ 5t²+5t messages, everyone holds a proof",
        f"n={2 * t + 1}, t={t}, fault-free value 1",
        f"{result.metrics.messages_by_correct} == {bound}; proofs: {proofs}",
        result.metrics.messages_by_correct == bound and proofs,
    )


def experiment_e6(report: ExperimentReport) -> None:
    """Lemma 1: Algorithm 3 under faulty roots."""
    n, t, s = 30, 2, 3
    algorithm = Algorithm3(n, t, s=s)
    roots = [cs.root for cs in algorithm.sets[:t]]
    result = run(algorithm, 1, SilentAdversary(roots))
    bound = formulas.lemma1_message_upper_bound(n, t, s)
    report.add(
        "E6 / Lemma 1",
        "Algorithm 3: ≤ 2n + 4tn/s + 3t²s messages (faulty-root worst case)",
        f"n={n}, t={t}, s={s}, t silent roots",
        f"{result.metrics.messages_by_correct} ≤ {bound}",
        result.metrics.messages_by_correct <= bound
        and check_byzantine_agreement(result).ok,
    )


def experiment_e7(report: ExperimentReport) -> None:
    """Theorem 5: linearity in n at s = 4t."""
    t = 2
    points = sweep_parallel(
        [({"n": n}, partial(Algorithm3, n, t)) for n in (60, 240)],
        values=(1,),
    )
    counts = {p.n: p.messages for p in points}
    marginal = (counts[240] - counts[60]) / 180
    report.add(
        "E7 / Theorem 5",
        "Algorithm 3 at s = 4t sends O(n + t³) messages",
        f"t={t}, n ∈ {{60, 240}}",
        f"marginal cost {marginal:.2f} msgs/processor (flat in n)",
        marginal <= 4.0,
    )


def experiment_e8(report: ExperimentReport) -> None:
    """Theorem 6 / Lemma 2: the grid exchange."""
    m, t = 4, 2
    algorithm = Algorithm4(m, t, {pid: ("v", pid) for pid in range(16)})
    result = run(algorithm, 0, SilentAdversary([0, 1]))
    p_set = nonisolated_set(algorithm.grid, result.faulty)
    violations = algorithm.conditions(result).violations
    report.add(
        "E8 / Theorem 6",
        "N=m² exchange: ≤ 3(m−1)m² messages, ≥ N−2t fully succeed",
        f"m={m}, t={t}, faults packed into one row",
        f"|P| = {len(p_set)} ≥ {16 - 2 * t}; violations: {len(violations)}",
        not violations,
    )


def experiment_e9(report: ExperimentReport) -> None:
    """Lemma 5 / Theorem 7: Algorithm 5's scales."""
    t = 2
    alpha = Algorithm5(60, t).alpha
    points = sweep_parallel(
        [({"n": n}, partial(Algorithm5, n, t)) for n in (alpha + 30, alpha + 90)],
        values=(1,),
    )
    ratios = [p.messages / formulas.theorem7_message_scale(p.n, t) for p in points]
    report.add(
        "E9 / Theorem 7",
        "Algorithm 5 at s = t sends O(n + t²) messages",
        f"t={t}, n ∈ {{{alpha + 30}, {alpha + 90}}}",
        f"messages/(n+t²) = {ratios[0]:.1f} → {ratios[1]:.1f} (non-increasing)",
        ratios[1] <= ratios[0] + 0.5,
    )


def experiment_e10(report: ExperimentReport) -> None:
    """The introduction's trade-off."""
    t, n = 2, 80
    points = [
        (p.phases_configured, p.messages)
        for p in sweep_parallel(
            [({"s": s}, partial(Algorithm5, n, t, s=s)) for s in (1, 7)],
            values=(1,),
        )
    ]
    report.add(
        "E10 / trade-off",
        "more phases buy fewer messages (s sweep)",
        f"algorithm-5, n={n}, t={t}, s ∈ {{1, 7}}",
        f"(phases, msgs): {points[0]} → {points[1]}",
        points[1][0] > points[0][0] and points[1][1] < points[0][1],
    )


def experiment_e11(report: ExperimentReport) -> None:
    """The Section 1 comparison ordering."""
    n, t = 60, 2
    grid = [
        ({"family": name}, partial(build, n, t))
        for name, build in (
            ("oral", OralMessages),
            ("ds", DolevStrong),
            ("active", ActiveSetBroadcast),
            ("a3", Algorithm3),
        )
    ]
    messages = {
        p.param("family"): p.messages for p in sweep_parallel(grid, values=(1,))
    }
    ordered = (
        messages["a3"] < messages["active"] < messages["ds"] < messages["oral"]
    )
    report.add(
        "E11 / comparison",
        "algorithm-3 < active-set < dolev-strong < OM(t) in messages",
        f"n={n}, t={t}, fault-free",
        f"{messages['a3']} < {messages['active']} < {messages['ds']} < "
        f"{messages['oral']}",
        ordered,
    )


def experiment_e12(report: ExperimentReport) -> None:
    """The informing ablation: chains beat fan-outs fault-free."""
    n, t = 60, 2
    grid = [
        ({"strategy": name}, partial(build, n, t))
        for name, build in (
            ("chain", Algorithm3),
            ("proof", InformedAlgorithm2),
            ("direct", ActiveSetBroadcast),
        )
    ]
    by_strategy = {
        p.param("strategy"): p.messages for p in sweep_parallel(grid, values=(1,))
    }
    chain, proof, direct = (
        by_strategy["chain"],
        by_strategy["proof"],
        by_strategy["direct"],
    )
    report.add(
        "E12 / ablation",
        "informing strategies: chains < proof fan-out < direct fan-out",
        f"n={n}, t={t}, fault-free",
        f"{chain} < {proof} < {direct}",
        chain < proof < direct,
    )


ALL_EXPERIMENTS = [
    experiment_e1,
    experiment_e2,
    experiment_e3,
    experiment_e4,
    experiment_e5,
    experiment_e6,
    experiment_e7,
    experiment_e8,
    experiment_e9,
    experiment_e10,
    experiment_e11,
    experiment_e12,
]


def run_all_experiments() -> ExperimentReport:
    """One fast pass over every experiment; see ``benchmarks/`` for the
    full-resolution sweeps."""
    report = ExperimentReport()
    for experiment in ALL_EXPERIMENTS:
        experiment(report)
    return report
