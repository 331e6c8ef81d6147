"""Worst-case probing: search over adversary strategies.

The paper's upper bounds are worst-case over *all* t-faulty histories; the
benchmarks exercise hand-constructed worst cases (silent roots, packed
rows, equivocators).  This module adds breadth: it enumerates a structured
family of adversaries — silent/crash/garbage/randomized over systematic
and random fault placements — runs them all, and reports the costliest.

Used two ways:

* as evidence: probing Algorithm 3 with hundreds of adversaries and never
  exceeding Lemma 1's bound is a much stronger empirical statement than
  three scenarios;
* as a research tool: ``worst_case_probe(...)`` surfaces *which* fault
  placement maximises traffic, which is how the faulty-root scenarios in
  the benchmarks were found in the first place.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from repro.adversary.base import Adversary
from repro.adversary.standard import (
    CrashAdversary,
    GarbageAdversary,
    RandomizedAdversary,
    SilentAdversary,
)
from repro.analysis.sweep import SweepPoint, measure, worst_case
from repro.core.protocol import AgreementAlgorithm

AlgorithmFactory = Callable[[], AgreementAlgorithm]


def fault_placements(n: int, t: int, *, samples: int, rng: random.Random) -> Iterator[tuple[int, ...]]:
    """Systematic plus random fault placements of every size up to *t*.

    Systematic: prefixes, suffixes, and evenly spread sets — these hit the
    structured roles (transmitter, actives, roots, leaves) of every
    algorithm in the library.  Random: *samples* uniform subsets.
    """
    seen: set[tuple[int, ...]] = set()

    def emit(placement: Iterable[int]) -> Iterator[tuple[int, ...]]:
        """Record one explored scenario in the search log."""
        key = tuple(sorted(set(placement)))
        if key and key not in seen and len(key) <= t:
            seen.add(key)
            yield key

    for size in range(1, t + 1):
        yield from emit(range(size))  # transmitter + low ids
        yield from emit(range(1, size + 1))  # low ids, transmitter spared
        yield from emit(range(n - size, n))  # high ids (passives/leaves)
        stride = max(1, n // size)
        yield from emit(range(0, n, stride))  # spread
    for _ in range(samples):
        size = rng.randint(1, t)
        yield from emit(rng.sample(range(n), size))


def adversary_family(
    faulty: tuple[int, ...], rng: random.Random
) -> Iterator[tuple[str, Adversary]]:
    """The behaviours probed for one fault placement."""
    yield f"silent{list(faulty)}", SilentAdversary(faulty)
    crash_at = {pid: 2 + (i % 3) for i, pid in enumerate(faulty)}
    yield f"crash{crash_at}", CrashAdversary(crash_at)
    yield f"garbage{list(faulty)}", GarbageAdversary(faulty)
    seed = rng.randrange(2**31)
    yield f"random{list(faulty)}#{seed}", RandomizedAdversary(faulty, seed)


def probe(
    factory: AlgorithmFactory,
    *,
    samples: int = 10,
    seed: int = 0,
) -> list[SweepPoint]:
    """Run the full probe grid, on input values 0 and 1, against
    *factory*'s algorithm.

    Each scenario runs on a fresh algorithm through
    :func:`~repro.analysis.sweep.measure`, so it is judged by
    :func:`~repro.core.validation.judge_run` like every other path.
    """
    rng = random.Random(seed)
    reference = factory()
    points = [measure(factory(), value) for value in (0, 1)]
    for faulty in fault_placements(reference.n, reference.t, samples=samples, rng=rng):
        for value in (0, 1):
            for name, adversary in adversary_family(faulty, rng):
                points.append(measure(factory(), value, adversary, adversary_name=name))
    return points


def worst_case_probe(
    factory: AlgorithmFactory,
    *,
    samples: int = 10,
    seed: int = 0,
    key: str = "messages",
) -> tuple[SweepPoint, list[SweepPoint]]:
    """Probe and return ``(costliest scenario, all points)``.

    Raises :class:`AssertionError` if any probed scenario fails its
    verdict — a probe that finds a correctness bug should never pass
    silently.
    """
    points = probe(factory, samples=samples, seed=seed)
    broken = [p for p in points if not p.agreement_ok]
    if broken:
        raise AssertionError(
            f"probed scenarios failed their verdict: "
            f"{[(p.adversary, p.value) for p in broken[:5]]}"
        )
    return worst_case(points, key), points
