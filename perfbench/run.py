"""The repository benchmark: seeded ``sweep`` and ``waves`` runs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/rep.py``), so no
process-global state of the program carries over between repetitions.
Repetition ``i`` uses the inputs of ``(seed, i)``; the number of
repetitions follows from ``--seconds`` and the workload's nominal
repetition length, so equal arguments always give equal inputs.

Every timing is reported in seconds of a reference host: a fixed
two-process pure-Python loop is timed just before and just after each
repetition, and the repetition's timings are scaled by how long that loop
took against ``REFERENCE_S``.  The loop does not touch the program, so a
change to the program cannot move it; a host that runs slower for a while
slows both alike.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs pairs of an untraced and a traced repetition on equal
inputs and reports the per-layer metrics of the traced ones, plus the
tracing overhead (traced minus untraced median) of every end-to-end metric.
Metric names and units come from ``BENCHMARK.json``.

Earlier lines of standard output carry provenance and per-repetition
detail as JSON objects with a ``"meta"`` key; the last line is the result.
Exits non-zero without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds one timed repetition takes on a 2-vCPU host at the time the
#: benchmark was defined; it only sets how many repetitions a run makes.
NOMINAL_REP_S = {"sweep": 5.0, "waves": 5.0}
MIN_REPS = 4
#: Every run must end within 180 s.
DEADLINE_S = 170.0
#: Iterations of the reference loop in each of its two processes.
REFERENCE_LOOP = 1_500_000
#: Seconds the reference loop takes on the reference host: a typical
#: reading of the 2-vCPU host the benchmark was defined on, where it
#: ranged from 0.11 to 0.21 s within an hour.  It fixes the unit only.
REFERENCE_S = 0.16


def _loop(count: int) -> None:
    total = 0
    for i in range(count):
        total += i * i % 7


def reference() -> float:
    """Seconds for the fixed reference loop in two processes at once, the
    parallelism of the workloads: how fast this host runs now."""
    # fork, not spawn: this process starts no threads, and a spawned
    # interpreter's start-up would outweigh the loop being timed.
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=_loop, args=(REFERENCE_LOOP,)) for _ in range(2)]
    started = time.perf_counter()
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    return time.perf_counter() - started


def nearest_rank(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q - 1e-9)) - 1]


def run_rep(workload: str, seed: int, rep: int, trace: bool, trace_dir: str, deadline: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    reference_before = reference()
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--rep", str(rep),
        "--trace", "1" if trace else "0",
        "--trace-dir", trace_dir,
    ]
    spawned_at = time.perf_counter()
    completed = subprocess.run(
        [*command, "--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(5.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{workload} rep {rep} exited with {completed.returncode}")
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    record.update(rep=rep, trace=trace, reference_s=(reference_before + reference()) / 2)
    return record


def end_to_end(records: list[dict]) -> dict[str, float]:
    """The end-to-end metrics over a set of repetitions: each is the
    median over repetitions of that repetition's figure, with timings in
    reference-host seconds.

    A repetition's latency percentiles are nearest-rank over its
    operations, with failed operations infinitely late.
    """

    def median(figure) -> float:
        return statistics.median(figure(r) for r in records)

    def slowdown(record: dict) -> float:
        return record["reference_s"] / REFERENCE_S

    metrics = {
        "setup_s": median(lambda r: r["setup_s"] / slowdown(r)),
        "served_per_s": median(lambda r: (r["attempted"] - r["failed"]) / r["wall_s"] * slowdown(r)),
        "latency_p50_s": median(lambda r: nearest_rank(r["latencies"], 0.50) / slowdown(r)),
        "latency_p99_s": median(lambda r: nearest_rank(r["latencies"], 0.99) / slowdown(r)),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }
    # A number, as the result format requires: an infinite latency (a
    # failed operation) is reported as the largest float.
    return {k: v if math.isfinite(v) else sys.float_info.max for k, v in metrics.items()}


def provenance() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nominal = NOMINAL_REP_S[args.workload]
    print(json.dumps({"meta": "provenance", **provenance()}), flush=True)
    if args.trace:
        pairs = max(2, math.ceil(args.seconds / (2 * nominal)))
        plan = [(rep, traced) for rep in range(pairs) for traced in (False, True)]
    else:
        plan = [(rep, False) for rep in range(max(MIN_REPS, math.ceil(args.seconds / nominal)))]

    records = []
    with tempfile.TemporaryDirectory(prefix=".trace-", dir=HERE) as trace_root:
        for rep, traced in plan:
            trace_dir = os.path.join(trace_root, f"rep{rep}") if traced else ""
            record = run_rep(args.workload, args.seed, rep, traced, trace_dir, deadline)
            detail = {k: v for k, v in record.items() if k not in ("latencies", "layers")}
            detail["latency_p50_s"] = nearest_rank(record["latencies"], 0.50)
            detail["latency_p99_s"] = nearest_rank(record["latencies"], 0.99)
            print(json.dumps({"meta": "rep", **detail}), flush=True)
            records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0
    untraced = [r for r in records if not r["trace"]]
    samples = {
        "meta": "samples",
        "repetitions": len(untraced),
        "latencies_per_repetition": [len(r["latencies"]) for r in untraced],
    }
    print(json.dumps(samples), flush=True)
    if args.trace:
        import tracing

        traced = [r for r in records if r["trace"]]
        # Equal inputs must give equal outputs, traced or not.
        for plain, instrumented in zip(untraced, traced):
            if plain["output_digest"] != instrumented["output_digest"]:
                correct = False
                print(json.dumps({"meta": "mismatch", "rep": plain["rep"]}), flush=True)
        values, never = tracing.derive([r["layers"] for r in traced])
        print(json.dumps({"meta": "layers_never_called", "layers": never}), flush=True)
        plain_e2e, traced_e2e = end_to_end(untraced), end_to_end(traced)
        for name in plain_e2e:
            values[f"trace.overhead.{name}"] = traced_e2e[name] - plain_e2e[name]
        section = config["per_layer"]
    else:
        values = end_to_end(untraced)
        section = config["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
