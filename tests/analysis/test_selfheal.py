"""The self-healing executor: timeouts, retries, pool rebuilds, checkpoints.

The crash/hang tasks coordinate through marker files so that the *first*
execution misbehaves and every retry succeeds — which is exactly the
transient-fault shape the engine exists to absorb.  All task classes are
module-level so they pickle across the pool.
"""

import os
import pickle
import signal
import time
from pathlib import Path

import pytest

import repro.analysis.parallel as parallel
from repro.analysis.parallel import (
    CHECKPOINT_MAGIC,
    SweepCheckpoint,
    WorkerPool,
    _fingerprint,
    run_tasks,
)

pytestmark = pytest.mark.parallel


class Square:
    def __init__(self, x):
        self.x = x

    def run(self):
        return self.x * self.x


class KillWorkerOnce:
    """``os._exit`` (bypassing cleanup) the first time any process runs it —
    the pool sees a dead worker and raises BrokenProcessPool."""

    def __init__(self, marker):
        self.marker = str(marker)

    def run(self):
        marker = Path(self.marker)
        if not marker.exists():
            marker.write_text("died")
            os._exit(1)
        return "recovered"


class HangOnce:
    """Blocks far past any test deadline on first execution only."""

    def __init__(self, marker):
        self.marker = str(marker)

    def run(self):
        marker = Path(self.marker)
        if not marker.exists():
            marker.write_text("hung")
            time.sleep(600)
        return "recovered"


class Pid:
    """Reports the process that ran it (after a nap, so both workers get work)."""

    def run(self):
        time.sleep(0.02)
        return os.getpid()


class RaiseOnce:
    """Raises the first time any process runs it; every retry succeeds."""

    def __init__(self, marker):
        self.marker = str(marker)

    def run(self):
        marker = Path(self.marker)
        if not marker.exists():
            marker.write_text("raised")
            raise RuntimeError("transient task fault")
        return "recovered"


class Nap:
    """Sleeps, logs its id to a shared file, and returns it."""

    def __init__(self, log, x, seconds):
        self.log = str(log)
        self.x = x
        self.seconds = seconds

    def run(self):
        time.sleep(self.seconds)
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"{self.x}\n")
        return self.x


class AlwaysRaises:
    def run(self):
        raise RuntimeError("deterministic task bug")


class RecordRun:
    """Appends its id to a shared log file — proves skipped vs executed."""

    def __init__(self, log, x):
        self.log = str(log)
        self.x = x

    def run(self):
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"{self.x}\n")
        return self.x


class CountingFuture:
    """A pool future that counts every attribute read on it in ``looks``
    and, as a future does, hands itself to its done-callbacks."""

    looks = 0

    def __init__(self, future):
        self._future = future

    def __getattr__(self, name):
        CountingFuture.looks += 1
        return getattr(self._future, name)

    def add_done_callback(self, callback):
        CountingFuture.looks += 1
        self._future.add_done_callback(lambda _: callback(self))


def expected(n):
    return [i * i for i in range(n)]


class TestSelfHealing:
    def test_broken_pool_is_rebuilt_and_chunk_retried(self, tmp_path):
        tasks = [KillWorkerOnce(tmp_path / "died")] + [Square(i) for i in range(3)]
        out = run_tasks(tasks, workers=2, chunk_size=1)
        assert out == ["recovered", 0, 1, 4]

    def test_wedged_worker_is_timed_out_and_chunk_retried(self, tmp_path):
        tasks = [HangOnce(tmp_path / "hung")] + [Square(i) for i in range(3)]
        started = time.monotonic()
        out = run_tasks(tasks, workers=2, chunk_size=1, task_timeout=2.0)
        assert out == ["recovered", 0, 1, 4]
        # Well under the 600s the wedged worker would have taken.
        assert time.monotonic() - started < 60

    def test_deterministic_bug_surfaces_with_its_own_traceback(self):
        with pytest.raises(RuntimeError, match="deterministic task bug"):
            run_tasks([AlwaysRaises(), Square(1)], workers=2, chunk_size=1)

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_deadline_that_is_not_positive_and_finite_is_refused(self, timeout):
        # Zero, negative and NaN deadlines expire at once and inf overflows
        # the wait, so every chunk would count as wedged or failed.
        with pytest.raises(ValueError, match="task_timeout must be a positive finite"):
            run_tasks([Square(i) for i in range(4)], workers=2, task_timeout=timeout)


class TestHarvestOrder:
    def test_results_are_reported_as_they_land_and_returned_in_order(self, tmp_path):
        log = tmp_path / "ran.log"
        landed = []
        out = run_tasks(
            [Nap(log, 0, 0.5), Nap(log, 1, 0.0)],
            workers=2,
            chunk_size=1,
            on_result=lambda position, result: landed.append((position, result)),
        )
        assert landed == [(1, 1), (0, 0)]
        assert out == [0, 1]

    def test_serial_results_are_reported_in_task_order(self):
        landed = []
        out = run_tasks(
            [Square(i) for i in range(4)],
            workers=1,
            on_result=lambda position, result: landed.append((position, result)),
        )
        assert landed == list(enumerate(expected(4)))
        assert out == expected(4)

    def test_a_frame_is_written_as_its_chunk_lands(self, tmp_path):
        ckpt = tmp_path / "progress.ckpt"
        log = tmp_path / "ran.log"
        tasks = [Nap(log, 0, 0.5), Nap(log, 1, 0.0)]

        def interrupt(position, result):
            if position == 1:
                raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            run_tasks(tasks, workers=2, chunk_size=1, checkpoint=ckpt, on_result=interrupt)
        ledger = SweepCheckpoint(ckpt, _fingerprint(tasks, 1))
        assert ledger._load() == {1: [1]}
        log.unlink()
        assert run_tasks(tasks, workers=2, chunk_size=1, checkpoint=ckpt) == [0, 1]
        # Task 1 came back from its frame; only task 0 ran again.
        assert log.read_text().split() == ["0"]
        assert not ckpt.exists()

    def test_a_chunk_that_raises_behind_a_running_one_is_retried_without_spinning(
        self, tmp_path, monkeypatch
    ):
        calls = []

        class CountingQueue(parallel.SimpleQueue):
            def get(self, *args, **kwargs):
                calls.append(args)
                return super().get(*args, **kwargs)

        monkeypatch.setattr(parallel, "SimpleQueue", CountingQueue)
        tasks = [Nap(tmp_path / "ran.log", "slow", 1.0), RaiseOnce(tmp_path / "raised")]
        assert run_tasks(tasks, workers=2, chunk_size=1) == ["slow", "recovered"]
        assert (tmp_path / "raised").exists(), "the second chunk must have raised once"
        # The loop blocks on its landing queue, once per landing: the
        # failure, the retry and the slow chunk.  A loop that kept reading
        # the failed future's landing would spin for the whole second the
        # slow chunk takes.
        assert len(calls) <= 4

    def test_each_landing_examines_only_its_own_future(self, monkeypatch):
        # Every attribute read on a chunk's future is one look.  A loop
        # that scans its outstanding futures on each landing looks
        # O(chunks**2) times; this one subscribes to each future once and
        # reads its result once.
        submit = WorkerPool._submit
        monkeypatch.setattr(
            WorkerPool, "_submit", lambda pool, chunk: CountingFuture(submit(pool, chunk))
        )
        monkeypatch.setattr(CountingFuture, "looks", 0)
        chunks = 200
        assert run_tasks([Square(i) for i in range(chunks)], workers=2, chunk_size=1) == (
            expected(chunks)
        )
        assert CountingFuture.looks <= 2 * chunks


class TestWorkerPool:
    def test_calls_on_one_pool_share_its_workers(self):
        with WorkerPool(2) as pool:
            first = run_tasks([Pid() for _ in range(6)], chunk_size=1, pool=pool)
            second = run_tasks([Pid() for _ in range(6)], chunk_size=1, pool=pool)
        pids = set(first) | set(second)
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_worker_killed_between_calls_is_replaced(self):
        with WorkerPool(2) as pool:
            pids = set(run_tasks([Pid() for _ in range(4)], chunk_size=1, pool=pool))
            os.kill(pids.pop(), signal.SIGKILL)
            time.sleep(0.5)  # the executor notices while the pool sits idle
            assert run_tasks([Square(i) for i in range(4)], pool=pool) == expected(4)


class TestCheckpoint:
    def test_completed_run_deletes_the_file(self, tmp_path):
        ckpt = tmp_path / "progress.ckpt"
        out = run_tasks(
            [Square(i) for i in range(8)], workers=1, checkpoint=ckpt
        )
        assert out == expected(8)
        assert not ckpt.exists()

    def test_resume_skips_finished_chunks(self, tmp_path):
        ckpt = tmp_path / "progress.ckpt"
        log = tmp_path / "ran.log"
        tasks = [RecordRun(log, i) for i in range(6)]
        ledger = SweepCheckpoint(ckpt, _fingerprint(tasks, 1))
        ledger.open()
        ledger.record(0, [0])
        ledger.record(1, [1])
        ledger.close()

        out = run_tasks(tasks, workers=1, chunk_size=1, checkpoint=ckpt)
        assert out == list(range(6))
        # Tasks 0 and 1 were restored from the checkpoint, never re-run.
        ran = sorted(int(line) for line in log.read_text().split())
        assert ran == [2, 3, 4, 5]

    def test_corrupt_tail_costs_only_the_partial_frame(self, tmp_path):
        ckpt = tmp_path / "progress.ckpt"
        tasks = [Square(i) for i in range(6)]
        ledger = SweepCheckpoint(ckpt, _fingerprint(tasks, 1))
        ledger.open()
        ledger.record(0, [0])
        ledger._handle.write(b"\x80\x05 torn frame")
        ledger.close()

        out = run_tasks(tasks, workers=1, chunk_size=1, checkpoint=ckpt)
        assert out == expected(6)

    def test_stale_fingerprint_discards_the_file(self, tmp_path):
        ckpt = tmp_path / "progress.ckpt"
        log = tmp_path / "ran.log"
        tasks = [RecordRun(log, i) for i in range(3)]
        ledger = SweepCheckpoint(ckpt, "not-the-right-fingerprint")
        ledger.open()
        ledger.record(0, ["poison"])
        ledger.close()

        out = run_tasks(tasks, workers=1, chunk_size=1, checkpoint=ckpt)
        assert out == [0, 1, 2]
        assert sorted(int(line) for line in log.read_text().split()) == [0, 1, 2]

    def test_parallel_run_with_checkpoint_matches_serial(self, tmp_path):
        tasks = [Square(i) for i in range(20)]
        out = run_tasks(
            tasks, workers=4, chunk_size=3, checkpoint=tmp_path / "p.ckpt"
        )
        assert out == expected(20)

    def test_header_is_schema_tagged(self, tmp_path):
        ckpt = tmp_path / "progress.ckpt"
        ledger = SweepCheckpoint(ckpt, "fp")
        ledger.open()
        ledger.close()
        with open(ckpt, "rb") as handle:
            header = pickle.load(handle)
        assert header["magic"] == CHECKPOINT_MAGIC
        assert header["fingerprint"] == "fp"

    def test_checkpoint_with_unpicklable_tasks_is_rejected(self, tmp_path):
        unpicklable = [type("Local", (), {"run": lambda self: 1})()]
        with pytest.raises(ValueError, match="picklable"):
            run_tasks(unpicklable * 2, workers=1, checkpoint=tmp_path / "c.ckpt")
