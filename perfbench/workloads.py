"""Seeded workload generators and output checks for the benchmark.

Every input is built here from the benchmark's own seed: the scenario grid
of ``sweep`` and the request waves of ``waves``.  Nothing is taken from
``generate_schedule``, ``DEFAULT_MIX``, ``random_plan`` or the
``repro bench`` tables, so editing those cannot move a workload.  Fault
plans are assembled from the public :mod:`repro.transport.faults` classes
with the benchmark's own random generator.

A *rep* is one repetition of a workload in a fresh interpreter; ``rep``
selects an independent, reproducible input set for the same seed.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.adversary.standard import RandomizedAdversary, SilentAdversary
from repro.algorithms.registry import get
from repro.analysis.parallel import sweep_parallel
from repro.core.types import TRANSMITTER
from repro.service.request import AgreementRequest, ScheduledRequest
from repro.service.scheduler import Scheduler
from repro.transport.faults import (
    CrashFault,
    FaultPlan,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
)

#: Pool size for every workload, passed explicitly so that
#: ``REPRO_SWEEP_WORKERS`` cannot change what is measured.
WORKERS = 2


def rng_for(workload: str, seed: int, rep: int) -> random.Random:
    """The generator behind one rep's inputs (string seeding is stable)."""
    return random.Random(f"perfbench:{workload}:{seed}:{rep}")


@dataclass(slots=True)
class RepResult:
    """What one timed repetition measured and checked."""

    wall_s: float
    attempted: int
    failed: int
    #: Seconds from submission to result for every operation; ``inf`` for
    #: an operation that failed its check or got no outcome.
    latencies: list[float] = field(default_factory=list)
    #: Order-sensitive digest of the program's outputs (equal inputs must
    #: give equal digests, traced or not).
    output_digest: str = ""
    #: Counts the program reports about its own work, for the record.
    info: dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------- sweep
#
# Why: every E-experiment and ``repro.analysis.experiments`` runs through
# ``sweep_parallel``.  Adversary cases never dedupe, so the runner, the
# metrics ledger and crypto do nearly all the work, while the batch engine
# and the service are never called.

SWEEP_GRID: tuple[tuple[str, int, int], ...] = (
    ("dolev-strong", 30, 3),
    ("dolev-strong", 40, 2),
    ("active-set", 40, 2),
    ("active-set", 80, 3),
    ("algorithm-2", 9, 4),
    ("algorithm-2", 11, 5),
    ("algorithm-3", 60, 3),
    ("algorithm-3", 120, 2),
    ("algorithm-3", 240, 2),
    ("algorithm-5", 80, 2),
    ("algorithm-5", 120, 2),
    ("informed-algorithm-2", 60, 2),
    ("informed-algorithm-2", 120, 2),
    ("phase-king", 24, 2),
    ("phase-king", 40, 4),
    ("oral-messages", 11, 2),
    ("oral-messages", 16, 2),
)


def silent_last(algorithm):
    """The last ``t`` processors never send."""
    return SilentAdversary(range(algorithm.n - algorithm.t, algorithm.n))


def seeded_randomized(algorithm, seed: int):
    """A :class:`RandomizedAdversary` on ``t`` processors drawn from *seed*."""
    rng = random.Random(f"{seed}:{algorithm.name}:{algorithm.n}:{algorithm.t}")
    faulty = sorted(rng.sample(range(algorithm.n), algorithm.t))
    return RandomizedAdversary(faulty, rng.getrandbits(63))


def sweep_inputs(seed: int, rep: int):
    """The grid, values and adversary axis of one ``sweep`` rep."""
    configurations = [
        ({"algorithm": name, "n": n, "t": t}, partial(get(name).build, n, t))
        for name, n, t in SWEEP_GRID
    ]
    adversary_seed = rng_for("sweep", seed, rep).getrandbits(63)
    adversaries = [
        ("fault-free", None),
        ("silent-last", silent_last),
        ("randomized", partial(seeded_randomized, seed=adversary_seed)),
    ]
    return configurations, (0, 1), adversaries


def run_sweep(inputs) -> RepResult:
    """One caller runs the whole grid and waits for it."""
    configurations, values, adversaries = inputs
    expected = len(configurations) * len(values) * len(adversaries)
    started = time.perf_counter()
    points = sweep_parallel(
        configurations, values=values, adversaries=adversaries, workers=WORKERS
    )
    wall_s = time.perf_counter() - started
    failed = max(0, expected - len(points))
    for point in points:
        within_bound = point.message_bound is None or point.messages <= point.message_bound
        if not (point.agreement_ok and within_bound):
            failed += 1
    digest = hashlib.sha256(repr(points).encode()).hexdigest()
    return RepResult(
        wall_s=wall_s,
        attempted=expected,
        failed=failed,
        # The caller gets every point when the whole grid returns.
        latencies=[wall_s],
        output_digest=digest,
        info={"points": len(points)},
    )


# --------------------------------------------------------------------- waves
#
# Why: the service and batch layers under one client in a closed loop.  The
# client submits a wave of WAVE_SIZE requests, all due at once, waits for
# every outcome, and submits the next.  Each wave pays the service's
# per-wave costs (a fresh process pool, per-configuration setup in the
# workers, one telemetry re-run per stripe) and its requests pay the
# per-request ones (dedup, the numpy kernels, bookkeeping), so a change
# that trades one for the other, such as smaller stripes, shows.  One
# request in 400 carries a benign fault plan, which keeps the
# ``FaultyTransport`` path measured.  This replaces a single 40 000-request
# burst and an open-loop Poisson ``serve``, both dropped as unsteady
# (perfbench/README.md).


@dataclass(frozen=True, slots=True)
class MixEntry:
    """One weighted configuration of the request mix."""

    algorithm: str
    n: int
    t: int
    weight: int
    #: Input values are drawn from ``range(values)``.
    values: int
    #: The fault kinds a benign plan may draw from.
    fault_kinds: tuple[str, ...]


ALL_KINDS = ("crash", "omission_send", "omission_recv", "drop", "partition")
# A one-pid partition can cut off an algorithm-3 processor in phases where
# it only receives.  The transport then excuses the senders, not the
# isolated receiver, and the verdict fails (about 3% of such plans), so
# algorithm-3 requests draw from the other kinds only.
NO_PARTITION = ("crash", "omission_send", "omission_recv", "drop")

WAVE_MIX: tuple[MixEntry, ...] = (
    MixEntry("phase-king", 24, 2, weight=4, values=256, fault_kinds=ALL_KINDS),
    MixEntry("oral-messages", 11, 2, weight=3, values=256, fault_kinds=ALL_KINDS),
    MixEntry("algorithm-3", 60, 2, weight=2, values=2, fault_kinds=NO_PARTITION),
    MixEntry("dolev-strong", 20, 2, weight=1, values=4, fault_kinds=ALL_KINDS),
)
FAULT_SHARE = 0.0025
WAVE_SIZE = 2500
WAVES_PER_REP = 8


def benign_plan(
    rng: random.Random, n: int, t: int, num_phases: int, kinds: tuple[str, ...]
) -> FaultPlan:
    """A fault plan on 1..t processors, each with one fault drawn from
    *kinds*: crash, send or receive omission, a dropped link, or a
    partition that isolates that processor for two phases."""
    faults: list[Any] = []
    for pid in rng.sample(range(n), rng.randint(1, t)):
        first = rng.randint(1, max(1, num_phases))
        kind = rng.choice(kinds)
        if kind == "crash":
            faults.append(CrashFault(pid=pid, phase=first))
        elif kind == "omission_send":
            faults.append(SendOmission(pid=pid, rate=rng.choice((0.5, 1.0)), first=first))
        elif kind == "omission_recv":
            faults.append(ReceiveOmission(pid=pid, rate=rng.choice((0.5, 1.0)), first=first))
        elif kind == "drop":
            dst = rng.choice([q for q in range(n) if q != pid])
            faults.append(LinkDrop(src=pid, dst=dst, first=first))
        else:
            faults.append(Partition(group=(pid,), first=first, last=first + 1))
    return FaultPlan(faults=tuple(faults), seed=rng.getrandbits(32))


def waves_inputs(seed: int, rep: int) -> list[list[ScheduledRequest]]:
    """``WAVES_PER_REP`` waves of ``WAVE_SIZE`` requests, each due at the
    start of its wave; request ids are unique across the rep."""
    rng = rng_for("waves", seed, rep)
    phases = {entry: get(entry.algorithm)(entry.n, entry.t).num_phases() for entry in WAVE_MIX}
    weights = [entry.weight for entry in WAVE_MIX]
    waves: list[list[ScheduledRequest]] = []
    for first_id in range(0, WAVES_PER_REP * WAVE_SIZE, WAVE_SIZE):
        wave = []
        for request_id in range(first_id, first_id + WAVE_SIZE):
            entry = rng.choices(WAVE_MIX, weights=weights)[0]
            plan = None
            if rng.random() < FAULT_SHARE:
                plan = benign_plan(rng, entry.n, entry.t, phases[entry], entry.fault_kinds)
            request = AgreementRequest(
                request_id=request_id,
                algorithm=entry.algorithm,
                n=entry.n,
                t=entry.t,
                value=rng.randrange(entry.values),
                fault_plan=plan,
            )
            wave.append(ScheduledRequest(arrival_s=0.0, request=request))
        waves.append(wave)
    return waves


def serve_wave(scheduler: Scheduler, wave: list[ScheduledRequest]):
    """Serve one wave and check every outcome.

    Checks: exactly one outcome per request id, every verdict ok, every
    stamp inside the benchmark's own wall window (the scheduler reads the
    benchmark's clock), and every decided tuple equal to ``(input,)``
    unless a fault excused the transmitter, which voids validity.
    Returns the report, the wave's latencies (``inf`` for a request that
    failed) and its wall seconds.
    """
    readings: list[float] = []

    def clock() -> float:
        now = time.perf_counter()
        if not readings:
            readings.append(now)
        return now

    window_start = time.perf_counter()
    report = scheduler.serve(wave, clock=clock)
    window_end = time.perf_counter()

    by_id = {item.request.request_id: item for item in wave}
    seen: dict[int, int] = {}
    latency: dict[int, float] = {}
    origin = readings[0] if readings else window_start
    limit = window_end - origin
    for outcome in report.outcomes:
        rid = outcome.request_id
        seen[rid] = seen.get(rid, 0) + 1
        item = by_id.get(rid)
        good = (
            item is not None
            and outcome.ok
            and outcome.verdict == "ok"
            and origin >= window_start
            and outcome.arrival_s == item.arrival_s
            and 0.0 <= outcome.arrival_s <= outcome.start_s <= outcome.finish_s <= limit
        )
        if good and TRANSMITTER not in outcome.excused:
            good = outcome.decided == (item.request.value,)
        latency[rid] = outcome.finish_s - outcome.arrival_s if good else float("inf")
    latencies = [
        latency.get(rid, float("inf")) if seen.get(rid) == 1 else float("inf") for rid in by_id
    ]
    # An outcome for an id that was never submitted fails as well.
    latencies += [float("inf")] * sum(1 for rid in seen if rid not in by_id)
    return report, latencies, window_end - window_start


def run_waves(waves: list[list[ScheduledRequest]]) -> RepResult:
    """Submit each wave once the previous one has returned."""
    scheduler = Scheduler(workers=WORKERS)
    latencies: list[float] = []
    wave_s: list[float] = []
    digest = hashlib.sha256()
    info = {"waves": 0, "unique_runs": 0, "kernel_runs": 0, "scalar_runs": 0}
    started = time.perf_counter()
    for wave in waves:
        report, wave_latencies, seconds = serve_wave(scheduler, wave)
        latencies += wave_latencies
        wave_s.append(seconds)
        digest.update(
            repr(
                sorted(
                    (o.request_id, o.verdict, o.decided, o.messages, o.signatures)
                    for o in report.outcomes
                )
            ).encode()
        )
        for key in info:
            info[key] += getattr(report.stats, key)
    wall_s = time.perf_counter() - started
    info["wave_s"] = wave_s
    return RepResult(
        wall_s=wall_s,
        attempted=sum(len(wave) for wave in waves),
        failed=sum(1 for value in latencies if value == float("inf")),
        latencies=latencies,
        output_digest=digest.hexdigest(),
        info=info,
    )


def make_inputs(workload: str, seed: int, rep: int):
    """Build one rep's inputs (the set-up the benchmark times)."""
    if workload == "sweep":
        return sweep_inputs(seed, rep)
    if workload == "waves":
        return waves_inputs(seed, rep)
    raise ValueError(f"unknown workload {workload!r}")


def run_inputs(workload: str, inputs) -> RepResult:
    """The timed call: drive the inputs through the program's entry point."""
    if workload == "sweep":
        return run_sweep(inputs)
    return run_waves(inputs)
