"""Seeded script generation: sampling the adversary space.

One function, :func:`generate_script`, maps ``(seed, n, t, num_phases)``
to an :class:`~repro.fuzz.script.AdversaryScript`.  All randomness comes
from a :class:`random.Random` seeded by the caller, so the same seed
always produces the same script — campaigns are reproducible and a failing
seed alone is enough to rebuild its counterexample.

The sampler is deliberately biased toward the shapes the paper's proofs
use: the transmitter is corrupted more often than a uniform pick would
(equivocation needs it), and selective silence / inbound deafness — the
primitives of Theorems 1 and 2 — are the most likely draws.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.types import ProcessorId
from repro.fuzz.mutations import (
    DropInbound,
    DropOutbound,
    Equivocate,
    ForgeAttempt,
    GarbleOutbound,
    Mutation,
    ReplayStale,
    SelectiveSilence,
)
from repro.fuzz.script import AdversaryScript

#: Relative draw weights per primitive kind (transmitter-only kinds are
#: filtered out when the transmitter is correct).
_WEIGHTED_KINDS: tuple[tuple[str, int], ...] = (
    ("selective-silence", 3),
    ("drop-inbound", 3),
    ("drop-outbound", 2),
    ("garble-outbound", 2),
    ("replay-stale", 2),
    ("forge-attempt", 2),
    ("equivocate", 3),
)


def _phase_window(rng: random.Random, num_phases: int) -> tuple[int, int | None]:
    start = rng.randint(1, max(1, num_phases))
    if rng.random() < 0.4:
        return start, None
    return start, rng.randint(start, max(start, num_phases))


def _other(rng: random.Random, n: int, pid: ProcessorId) -> ProcessorId:
    dst = rng.randrange(n - 1)
    return dst if dst < pid else dst + 1


def _sample_mutation(
    rng: random.Random,
    kind: str,
    pid: ProcessorId,
    n: int,
    num_phases: int,
    value_domain: Sequence[object],
) -> Mutation:
    phase_from, phase_to = _phase_window(rng, num_phases)
    if kind == "selective-silence":
        count = rng.randint(1, max(1, min(3, n - 1)))
        targets = tuple(
            sorted(rng.sample([q for q in range(n) if q != pid], count))
        )
        return SelectiveSilence(
            pid=pid, phase_from=phase_from, phase_to=phase_to, targets=targets
        )
    if kind == "drop-inbound":
        return DropInbound(
            pid=pid,
            phase_from=phase_from,
            phase_to=phase_to,
            modulus=rng.randint(1, 3),
            residue=rng.randint(0, 2),
        )
    if kind == "drop-outbound":
        return DropOutbound(
            pid=pid,
            phase_from=phase_from,
            phase_to=phase_to,
            modulus=rng.randint(1, 3),
            residue=rng.randint(0, 2),
        )
    if kind == "garble-outbound":
        return GarbleOutbound(
            pid=pid,
            phase_from=phase_from,
            phase_to=phase_to,
            modulus=rng.randint(1, 2),
            residue=rng.randint(0, 1),
            salt=rng.randint(0, 1 << 16),
        )
    if kind == "replay-stale":
        # replay needs a phase to look back from, so the window starts at 2
        start = max(2, phase_from)
        return ReplayStale(
            pid=pid,
            phase_from=start,
            phase_to=phase_to if phase_to is None else max(start, phase_to),
            dst=_other(rng, n, pid),
            lag=rng.randint(1, 2),
            limit=rng.randint(1, 3),
        )
    if kind == "forge-attempt":
        return ForgeAttempt(
            pid=pid,
            phase_from=phase_from,
            phase_to=phase_to,
            victim=rng.randrange(n),
            dst=_other(rng, n, pid),
            value=rng.choice(list(value_domain)),
        )
    if kind == "equivocate":
        return Equivocate(
            pid=pid,
            phase_from=1,  # equivocation starts at the input edge
            phase_to=None,
            alt_value=rng.choice(list(value_domain)),
            parity=rng.randint(0, 1),
        )
    raise ValueError(f"unknown mutation kind {kind!r}")


def generate_script(
    seed: int,
    *,
    n: int,
    t: int,
    num_phases: int,
    transmitter: ProcessorId = 0,
    value_domain: Sequence[object] = (0, 1),
) -> AdversaryScript:
    """Sample one adversary script of one to four mutations; deterministic
    in *seed*."""
    rng = random.Random(seed)
    fault_budget = rng.randint(1, max(1, t))
    pool = list(range(n))
    faulty: list[ProcessorId] = []
    # Bias: corrupt the transmitter ~40% of the time — the interesting
    # faults (equivocation, withheld input) need it.
    if rng.random() < 0.4:
        faulty.append(transmitter)
        pool.remove(transmitter)
    while len(faulty) < fault_budget:
        pick = rng.choice(pool)
        pool.remove(pick)
        if pick not in faulty:
            faulty.append(pick)
    faulty = sorted(faulty[:fault_budget]) or [rng.randrange(n)]

    kinds = [
        (kind, weight)
        for kind, weight in _WEIGHTED_KINDS
        if kind != "equivocate" or transmitter in faulty
    ]
    names = [k for k, _ in kinds]
    weights = [w for _, w in kinds]

    mutations: list[Mutation] = []
    seen_equivocate = False
    for _ in range(rng.randint(1, 4)):
        kind = rng.choices(names, weights=weights, k=1)[0]
        pid = transmitter if kind == "equivocate" else rng.choice(faulty)
        if kind == "equivocate":
            if seen_equivocate:
                continue
            seen_equivocate = True
        mutations.append(
            _sample_mutation(rng, kind, pid, n, num_phases, value_domain)
        )

    stop_phase = rng.randint(1, num_phases) if rng.random() < 0.15 else None
    return AdversaryScript(
        faulty=tuple(faulty),
        mutations=tuple(mutations),
        stop_phase=stop_phase,
    )
