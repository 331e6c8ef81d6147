"""Sweep executor: scenario grids in order, serially or across processes.

The paper's claims are worst-case counts over ``(n, t, s, α)`` grids, so
the repo's empirical reach is bounded by how many scenarios it can run per
second.  Every :class:`~repro.analysis.sweep.SweepPoint` is a pure
function of its scenario spec, so :func:`sweep_parallel` groups a grid by
factory, stripes each group through the batch engine
(:mod:`repro.analysis.batchsweep`), fans the stripes out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and returns the *exact*
point stream for any worker count, in the grid's deterministic order.

Requirements for the parallel path (``workers > 1``):

* factories must be picklable — module-level callables, classes, or
  :func:`functools.partial` over them (the algorithm registry and every
  algorithm class qualify); closures and lambdas are not, and are rejected
  with a clear error before any process is spawned;
* the fault-free adversary is spelled ``None`` (not a lambda returning
  ``None``).

``workers=1`` is a guaranteed-serial path that never pickles anything,
so it accepts lambdas and closures too.

The engine is *self-healing*: long grids survive wedged or killed workers.
Each chunk gets a deadline (``task_timeout`` × chunk length), failed
chunks are retried with exponential backoff, a broken or timed-out pool
is torn down (stuck workers terminated best-effort) and rebuilt, and a
chunk that exhausts its retries falls back to a serial in-process run —
so a transient fault costs a retry, while a deterministic task bug still
surfaces with its real traceback.  An optional ``checkpoint`` file
persists finished chunks (pickle frames behind a fingerprinted header),
letting an interrupted sweep or fuzz campaign resume instead of starting
over; a corrupt tail costs only the partial frame.

A :class:`WorkerPool` gives the pool a lifetime.  :func:`run_tasks`
forks a one-shot pool per call unless it is handed one; the service
scheduler keeps one for its whole life, so its workers fork once and
keep their setup caches from wave to wave.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import weakref
from contextlib import nullcontext
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence, TypeVar

from repro.adversary.base import Adversary
from repro.analysis.sweep import SweepPoint, measure
from repro.core.protocol import AgreementAlgorithm
from repro.core.types import Value

#: Builds a configured algorithm instance (one per sweep stripe).
AlgorithmFactory = Callable[[], AgreementAlgorithm]
#: Builds the adversary for one measurement; ``None`` means fault-free.
AdversaryFactory = Callable[[AgreementAlgorithm], "Adversary | None"]

#: The default adversary axis: a single fault-free column.
FAULT_FREE: tuple[tuple[str, AdversaryFactory | None], ...] = (("fault-free", None),)

#: Environment knob consulted when ``workers`` is not given explicitly.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One picklable scenario: everything needed to produce one point."""

    params: tuple[tuple[str, object], ...]
    factory: AlgorithmFactory
    adversary_name: str
    adversary_factory: AdversaryFactory | None
    value: Value
    #: Opt-in observability: when set, the scenario's run is traced into a
    #: deterministically named ``repro-trace/1`` JSONL file under this
    #: directory (a plain string so the spec stays picklable).
    trace_dir: str | None = None

    def trace_file_name(self, algorithm_name: str) -> str:
        """Deterministic, filesystem-safe trace name for this scenario.

        Float params (``eps``, ``coin_bias``) use ``repr`` — Python's
        shortest round-trip form — so ``0.25`` names the file ``eps0.25``
        on every platform.  When sanitization is lossy (a param value
        containing ``/`` or spaces), a short digest of the unsanitized
        stem is appended: two distinct scenarios can never silently share
        one trace file.
        """
        parts = [algorithm_name]
        parts.extend(
            f"{key}{value!r}" if isinstance(value, float) else f"{key}{value}"
            for key, value in self.params
        )
        parts.append(self.adversary_name)
        parts.append(f"v{self.value}")
        stem = "-".join(parts)
        safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in stem)
        if safe != stem:
            digest = hashlib.sha256(stem.encode("utf-8")).hexdigest()[:8]
            safe = f"{safe}-{digest}"
        return f"{safe}.jsonl"

    def run(self) -> SweepPoint:
        """Execute the scenario (fresh algorithm instance, fresh run)."""
        algorithm = self.factory()
        adversary = (
            self.adversary_factory(algorithm)
            if self.adversary_factory is not None
            else None
        )
        if self.trace_dir is None:
            return measure(
                algorithm,
                self.value,
                adversary,
                adversary_name=self.adversary_name,
                params=dict(self.params),
            )
        from repro.obs import JsonlTraceSink

        directory = Path(self.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        with JsonlTraceSink(directory / self.trace_file_name(algorithm.name)) as sink:
            return measure(
                algorithm,
                self.value,
                adversary,
                adversary_name=self.adversary_name,
                params=dict(self.params),
                sinks=(sink,),
            )


def expand(
    configurations: Iterable[tuple[Mapping[str, object], AlgorithmFactory]],
    values: Iterable[Value] = (0, 1),
    adversaries: Iterable[tuple[str, AdversaryFactory | None]] = FAULT_FREE,
    *,
    trace_dir: str | None = None,
) -> list[ScenarioSpec]:
    """Flatten a cartesian grid into scenario specs.

    The nesting order is configurations → adversaries → values, and
    :func:`sweep_parallel` returns its points in exactly this order.
    *trace_dir* opts every scenario into a per-run JSONL trace (see
    :class:`ScenarioSpec`).
    """
    adversaries = list(adversaries)
    values = list(values)
    return [
        ScenarioSpec(
            params=tuple(sorted(params.items())),
            factory=factory,
            adversary_name=adversary_name,
            adversary_factory=adversary_factory,
            value=value,
            trace_dir=trace_dir,
        )
        for params, factory in configurations
        for adversary_name, adversary_factory in adversaries
        for value in values
    ]


class Task(Protocol):
    """Anything with a zero-argument ``run()`` — the pool's unit of work."""

    def run(self) -> object: ...


_TaskT = TypeVar("_TaskT", bound=Task)


def _run_chunk(tasks: Sequence[Task]) -> list[object]:
    """Worker entry point: execute one chunk of tasks in order."""
    return [task.run() for task in tasks]


def default_workers() -> int:
    """Worker count when none is given: ``$REPRO_SWEEP_WORKERS`` or the
    machine's CPU count.

    Raises:
        ValueError: naming the variable and its value, when it is set to
            something that is not an integer.
    """
    configured = os.environ.get(WORKERS_ENV, "").strip()
    if configured:
        try:
            return max(1, int(configured))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer worker count, "
                f"got {configured!r}"
            ) from None
    return os.cpu_count() or 1


def _ensure_picklable(tasks: Sequence[Task]) -> None:
    try:
        pickle.dumps(list(tasks))
    except Exception as error:
        raise ValueError(
            "run_tasks(workers>1) needs picklable tasks: use module-level "
            "callables, algorithm classes or functools.partial as factories "
            "(not lambdas/closures), and spell the fault-free adversary as "
            f"None; pickling failed with: {error!r}"
        ) from error


def _chunked(tasks: Sequence[_TaskT], size: int) -> list[Sequence[_TaskT]]:
    return [tasks[i : i + size] for i in range(0, len(tasks), size)]


#: Version tag in every checkpoint file's header frame.
CHECKPOINT_MAGIC = "repro-checkpoint/1"


def _fingerprint(tasks: Sequence[Task], chunk_size: int) -> str:
    """Identity of one (task list, chunking) pair.

    Resuming is only sound when the chunks of this run are byte-identical
    to the ones the checkpoint was written for — the frames are keyed by
    chunk index.  Any change to the tasks or the chunking gets a fresh
    fingerprint and the stale file is discarded wholesale.
    """
    blob = pickle.dumps((list(tasks), int(chunk_size)))
    return hashlib.sha256(blob).hexdigest()


class SweepCheckpoint:
    """Resumable ledger of finished chunks (pickle frames on disk).

    Layout: one header frame ``{"magic", "fingerprint"}`` followed by one
    ``(chunk_index, results)`` frame per finished chunk, appended and
    flushed as chunks complete.  :meth:`open` loads whatever frames a
    previous (interrupted) run managed to write — a corrupt or truncated
    tail is tolerated, costing only the partial frame — then rewrites the
    file from the surviving frames so later appends land on a clean tail.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        #: chunk index -> that chunk's result list, loaded by :meth:`open`.
        self.completed: dict[int, list] = {}
        self._handle = None

    def open(self) -> None:
        """Load prior progress (if compatible) and start a clean file."""
        self.completed = self._load()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "wb")
        pickle.dump(
            {"magic": CHECKPOINT_MAGIC, "fingerprint": self.fingerprint},
            self._handle,
        )
        for index in sorted(self.completed):
            pickle.dump((index, self.completed[index]), self._handle)
        self._handle.flush()

    def _load(self) -> dict[int, list]:
        completed: dict[int, list] = {}
        try:
            handle = open(self.path, "rb")
        except OSError:
            return completed
        with handle:
            try:
                header = pickle.load(handle)
            except Exception:
                return completed
            if (
                not isinstance(header, dict)
                or header.get("magic") != CHECKPOINT_MAGIC
                or header.get("fingerprint") != self.fingerprint
            ):
                return completed
            while True:
                try:
                    index, results = pickle.load(handle)
                    completed[int(index)] = list(results)
                except EOFError:
                    break
                except Exception:
                    # Corrupt tail (the writer died mid-frame): keep every
                    # frame read so far, drop the rest.
                    break
        return completed

    def record(self, index: int, results: list) -> None:
        """Append one finished chunk and flush it to disk."""
        assert self._handle is not None, "open() before record()"
        pickle.dump((index, list(results)), self._handle)
        self._handle.flush()

    def close(self, *, remove: bool = False) -> None:
        """Close the file; *remove* deletes it (the run completed)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if remove:
            try:
                self.path.unlink()
            except OSError:
                pass


#: Resubmissions of a failed chunk before it runs serially in-process.
MAX_RETRIES = 2
#: Seconds slept before a chunk's first resubmission; doubled each time.
BACKOFF_S = 0.1


def _shutdown(executor: ProcessPoolExecutor) -> None:
    """Shut *executor* down without waiting, cancelling queued chunks."""
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class WorkerPool:
    """The self-healing process pool, alive until :meth:`close`.

    It owns one :class:`~concurrent.futures.ProcessPoolExecutor`, forked
    on the first chunk submitted, and the one harvest loop
    (:meth:`run_chunks`).  A dead or wedged worker gets the executor
    replaced.  Workers keep their process-local state (imported modules,
    the service's setup cache) from one call to the next.  :meth:`close`
    or leaving a ``with`` block shuts them down, and so does dropping the
    pool; a closed pool forks afresh if used again.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._executor: ProcessPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None

    def _submit(self, chunk: Sequence[Task]) -> Future:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self._finalizer = weakref.finalize(self, _shutdown, self._executor)
        try:
            return self._executor.submit(_run_chunk, chunk)
        except BrokenProcessPool:
            # A worker died while the pool sat idle between calls.
            self._rebuild()
            return self._submit(chunk)

    def _rebuild(self) -> None:
        """Tear the suspect executor down (stuck workers terminated
        best-effort); the next submit forks a fresh one."""
        for process in list(getattr(self._executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        self.close()

    def close(self) -> None:
        """Shut the workers down; idempotent."""
        if self._finalizer is not None:
            self._finalizer()
        self._executor = None
        self._finalizer = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run_chunks(
        self,
        chunks: Sequence[Sequence[Task]],
        pending: Sequence[int],
        results: dict[int, list],
        *,
        task_timeout: float | None,
        checkpoint: "SweepCheckpoint | None",
    ) -> None:
        """The self-healing harvest loop: fill ``results`` for *pending*."""
        futures = {index: self._submit(chunks[index]) for index in pending}
        try:
            attempts = {index: 0 for index in pending}
            queue = list(pending)
            while queue:
                index = queue.pop(0)
                deadline = (
                    task_timeout * len(chunks[index])
                    if task_timeout is not None
                    else None
                )
                try:
                    chunk_results = futures[index].result(timeout=deadline)
                except Exception as error:
                    attempts[index] += 1
                    # A timeout means a worker is wedged mid-chunk; a broken
                    # pool means one died.  Either way every in-flight future
                    # is suspect: rebuild and resubmit the survivors.
                    if isinstance(error, (BrokenProcessPool, FutureTimeoutError)):
                        self._rebuild()
                        for waiting in queue:
                            futures[waiting] = self._submit(chunks[waiting])
                    if attempts[index] > MAX_RETRIES:
                        # Last resort: run the chunk here, in-process.  A
                        # transient fault heals; a real task bug raises with
                        # its true traceback instead of a pool autopsy.
                        chunk_results = _run_chunk(chunks[index])
                    else:
                        time.sleep(BACKOFF_S * (2 ** (attempts[index] - 1)))
                        futures[index] = self._submit(chunks[index])
                        queue.insert(0, index)
                        continue
                results[index] = chunk_results
                if checkpoint is not None:
                    checkpoint.record(index, chunk_results)
        finally:
            # Chunks a raising task left queued must not run into the
            # pool's next call.
            for future in futures.values():
                future.cancel()


def run_tasks(
    tasks: Sequence[Task],
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    task_timeout: float | None = None,
    checkpoint: str | Path | None = None,
    pool: WorkerPool | None = None,
) -> list:
    """Execute *tasks* (anything with a picklable ``.run()``) in order.

    The one pool entry: :func:`sweep_parallel` and the service run
    stripes on it, and ``repro fuzz`` runs
    :class:`~repro.fuzz.campaign.FuzzCase` tasks.  The returned list is
    identical (element-wise equal, same order) to
    ``[task.run() for task in tasks]`` regardless of *workers* and
    *chunk_size* — chunks preserve submission order and results are
    concatenated in that order.

    Robustness knobs (see the module docstring):

    * *task_timeout* — per-task seconds; a chunk's deadline is the timeout
      times its length.  Expired chunks count as pool failures.  Only
      enforceable on the multi-process path (a serial run cannot interrupt
      itself), where workers can be terminated.
    * *checkpoint* — path to a resumable progress file: finished chunks
      are flushed as pickle frames, a rerun with identical tasks and
      chunking skips them, and the file is deleted when the run completes.
      Requires picklable tasks and results even for ``workers=1``.

    A failed chunk is resubmitted up to :data:`MAX_RETRIES` times, sleeping
    ``BACKOFF_S * 2**(attempt-1)`` seconds in between; after that it runs
    serially in-process (which surfaces real task bugs with their original
    traceback).

    *pool* is a long-lived :class:`WorkerPool` to run on (its workers keep
    their state across calls; *workers* then defaults to its size).
    Without one, a multi-process call forks a one-shot pool and shuts it
    down on return.
    """
    tasks = list(tasks)
    if workers is None:
        workers = pool.workers if pool is not None else default_workers()
    workers = min(max(1, workers), len(tasks)) if tasks else 1
    serial = workers <= 1 or len(tasks) <= 1
    if serial and checkpoint is None:
        return _run_chunk(tasks)
    _ensure_picklable(tasks)
    if chunk_size is None:
        # Serial checkpointing gets per-task granularity; the pool gets a
        # few chunks per worker — enough to keep it busy when scenario
        # costs are uneven (large-n points dwarf small-n ones) without
        # drowning the run in inter-process traffic.
        chunk_size = 1 if serial else max(1, -(-len(tasks) // (workers * 4)))
    chunk_size = max(1, chunk_size)
    chunks = _chunked(tasks, chunk_size)

    ledger: SweepCheckpoint | None = None
    results: dict[int, list] = {}
    if checkpoint is not None:
        ledger = SweepCheckpoint(checkpoint, _fingerprint(tasks, chunk_size))
        ledger.open()
        results.update(
            (index, rows)
            for index, rows in ledger.completed.items()
            if 0 <= index < len(chunks)
        )
    pending = [index for index in range(len(chunks)) if index not in results]
    try:
        if serial:
            for index in pending:
                results[index] = _run_chunk(chunks[index])
                if ledger is not None:
                    ledger.record(index, results[index])
        elif pending:
            owner = nullcontext(pool) if pool is not None else WorkerPool(workers)
            with owner as active:
                active.run_chunks(
                    chunks,
                    pending,
                    results,
                    task_timeout=task_timeout,
                    checkpoint=ledger,
                )
    except BaseException:
        if ledger is not None:
            ledger.close(remove=False)
        raise
    if ledger is not None:
        ledger.close(remove=True)
    return [
        result for index in range(len(chunks)) for result in results[index]
    ]


def sweep_parallel(
    configurations: Iterable[tuple[Mapping[str, object], AlgorithmFactory]],
    values: Iterable[Value] = (0, 1),
    adversaries: Iterable[tuple[str, AdversaryFactory | None]] = FAULT_FREE,
    *,
    workers: int | None = None,
    trace_dir: str | None = None,
) -> list[SweepPoint]:
    """Run the cartesian grid configurations × adversaries × values.

    Returns one :class:`~repro.analysis.sweep.SweepPoint` per scenario, in
    :func:`expand` order, identical for any worker count.  *workers*
    defaults to :func:`default_workers`; ``workers=1`` runs serially
    in-process.  Same-factory scenarios share one batch-engine arena and
    repeated run classes execute once; workers run whole stripes
    (:mod:`repro.analysis.batchsweep`).  *trace_dir* opts every scenario
    into a per-run ``repro-trace/1`` JSONL file under that directory
    (traces are written by the worker that runs the scenario's stripe;
    names are deterministic, so the file set is identical for any worker
    count).  The stripes run on :func:`run_tasks` with its default
    self-healing settings.
    """
    # Imported here: batchsweep imports this module.
    from repro.analysis.batchsweep import batch_specs

    specs = expand(configurations, values, adversaries, trace_dir=trace_dir)
    return batch_specs(specs, workers=workers)
