"""``repro bench``: the perf basket as a table of rows, timed one way.

A :class:`Row` of :data:`ROWS` holds its kind (``runner``, ``batch``,
``sweep`` or ``service``), its key and its full and ``--quick`` sizes.
:func:`timed` times every row alike: the median over ``--trials`` of the
min over ``--repeat`` wall-clock seconds.  The min strips scheduler noise
within a trial, the median whole-trial outliers (a GC pause, a noisy
neighbour).  A row's rates come from the seconds it reports, its counts
from its last call: the same on every call, except a service row's waves,
run classes and latencies, which form by arrival timing.
:mod:`repro.obs.export` builds and writes the ``repro-bench/1`` document;
``scripts/bench_compare.py`` diffs two of them.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from repro.algorithms.registry import get
from repro.analysis.parallel import default_workers, sweep_parallel
from repro.analysis.tables import format_table
from repro.core.batch import run_batch
from repro.core.runner import run
from repro.obs.export import (
    batch_case,
    bench_document,
    runner_case,
    service_case,
    sweep_case,
    write_bench,
)
from repro.service.loadgen import generate_schedule
from repro.service.scheduler import Scheduler


class Work(NamedTuple):
    """What a row times: ``call(setup())``, ``setup`` untimed; ``case``
    builds the row's case from the last result and the row's seconds."""

    setup: Callable[[], Any]
    call: Callable[[Any], Any]
    case: Callable[[Any, float], dict[str, Any]]


def _runner(name: str, workers: int, *, n: int, t: int) -> Work:
    """One fault-free run of input 1 on the scalar runner."""
    return Work(partial(get(name), n, t), partial(run, input_value=1, record_history=False),
                runner_case)


def _batch(name: str, workers: int, *, n: int, t: int, runs: int) -> Work:
    """One ``run_batch`` of *runs* fault-free cases alternating inputs 0 and 1."""
    values = [index % 2 for index in range(runs)]
    return Work(partial(get(name), n, t), partial(run_batch, cases=values),
                partial(batch_case, name=name, n=n, t=t))


def _sweep(key: str, workers: int, *, t: int, ns: tuple, values: tuple) -> Work:
    """A fault-free parallel sweep of the algorithm the key names first."""
    info = get(key.split(":")[0])
    grid = [({"n": n}, partial(info.build, n, t)) for n in ns]
    return Work(lambda: grid, partial(sweep_parallel, values=values, workers=workers),
                partial(sweep_case, workers=workers))


def _service(key: str, workers: int, *, requests: int, fault_rate: float) -> Work:
    """A seeded open-loop traffic run of the default mix on one in-process
    worker: a stable single-core agreements/sec floor."""
    schedule = generate_schedule(requests=requests, rate=50_000.0, seed=7, fault_rate=fault_rate)
    return Work(partial(Scheduler, workers=1), lambda scheduler: scheduler.serve(schedule).stats,
                partial(service_case, fault_rate=fault_rate))


KINDS: dict[str, Callable[..., Work]] = {
    "runner": _runner, "batch": _batch, "sweep": _sweep, "service": _service,
}


class Row(NamedTuple):
    """One case: its kind, its key and its full and ``--quick`` sizes."""

    kind: str
    key: str
    full: Mapping[str, Any]
    quick: Mapping[str, Any]

    def work(self, *, quick: bool, workers: int) -> Work:
        return KINDS[self.kind](self.key, workers, **(self.quick if quick else self.full))


#: The fixed basket.  Each batch row names the runner row of its algorithm
#: as ``baseline_case``; the kernel-backed ones get big run counts, as
#: anything less is a sub-millisecond timing target.
ROWS: tuple[Row, ...] = (
    Row("runner", "dolev-strong", dict(n=40, t=2), dict(n=20, t=2)),
    Row("runner", "active-set", dict(n=40, t=2), dict(n=20, t=2)),
    Row("runner", "oral-messages", dict(n=11, t=2), dict(n=9, t=2)),
    Row("runner", "algorithm-1", dict(n=9, t=4), dict(n=9, t=4)),
    Row("runner", "algorithm-2", dict(n=7, t=3), dict(n=7, t=3)),
    Row("runner", "algorithm-3", dict(n=120, t=2), dict(n=60, t=2)),
    Row("runner", "algorithm-5", dict(n=120, t=2), dict(n=60, t=2)),
    Row("runner", "informed-algorithm-2", dict(n=120, t=2), dict(n=60, t=2)),
    Row("runner", "phase-king", dict(n=24, t=2), dict(n=16, t=2)),
    Row("batch", "algorithm-3", dict(n=120, t=2, runs=256), dict(n=60, t=2, runs=128)),
    Row("batch", "algorithm-5", dict(n=120, t=2, runs=64), dict(n=60, t=2, runs=32)),
    Row("batch", "phase-king", dict(n=24, t=2, runs=4096), dict(n=16, t=2, runs=2048)),
    Row("batch", "oral-messages", dict(n=11, t=2, runs=4096), dict(n=9, t=2, runs=2048)),
    Row("sweep", "algorithm-3:grid", dict(t=2, ns=(60, 120, 180, 240), values=(0, 1)),
        dict(t=2, ns=(60, 120), values=(1,))),
    Row("service", "mixed", dict(requests=400, fault_rate=0.0), dict(requests=120, fault_rate=0.0)),
    Row("service", "faulty", dict(requests=200, fault_rate=0.2), dict(requests=60, fault_rate=0.2)),
)


def timed(work: Work, *, repeat: int, trials: int) -> tuple[float, Any]:
    """The median over *trials* of the min over *repeat* seconds of
    ``work.call(work.setup())``, and the last call's result."""
    minima = []
    for _ in range(trials):
        best = float("inf")
        for _ in range(repeat):
            subject = work.setup()
            started = time.perf_counter()
            result = work.call(subject)
            best = min(best, time.perf_counter() - started)
        minima.append(best)
    return statistics.median(minima), result


def time_rows(
    rows: Iterable[Row], *, workers: int, repeat: int, trials: int, quick: bool
) -> dict[str, dict[str, Any]]:
    """Each row's case under ``kind:key``, in row order."""
    cases = {}
    for row in rows:
        work = row.work(quick=quick, workers=workers)
        seconds, result = timed(work, repeat=repeat, trials=trials)
        cases[f"{row.kind}:{row.key}"] = work.case(result, seconds)
    return cases


def run_bench(output: str, *, workers: int | None = None, repeat: int = 3, trials: int = 1,
              quick: bool = False, profile: bool = False) -> int:
    """Time every row, print the table and write the document to *output*.

    With *profile*, time only the runner and batch rows under cProfile and
    print the top-20 cumulative hotspots instead.
    """
    workers = workers if workers is not None else default_workers()
    repeat, trials = max(1, repeat), max(1, trials)
    settings = dict(workers=workers, repeat=repeat, trials=trials, quick=quick)
    if profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.runcall(time_rows, [r for r in ROWS if r.kind in ("runner", "batch")], **settings)
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(20)
        print("repro bench --profile: top-20 cumulative hotspots over the runner and "
              "batch rows (sweep/service rows and JSON output skipped)")
        return 0
    cases = time_rows(ROWS, **settings)
    table = [
        {"case": key, "seconds": case["seconds"], "messages": case["messages"],
         "msgs/sec": case["messages_per_sec"]}
        for key, case in cases.items()
    ]
    title = f"repro bench (workers={workers}, repeat={repeat}, trials={trials})"
    print(format_table(table, title=title))
    write_bench(bench_document(cases, **settings), output)
    print(f"\nwrote {output}")
    return 0
