"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py`` once per repetition, so that no process-global state
of the program (the per-worker setup cache, the canonical-walk counters)
carries from one repetition into the next.  Prints one JSON object:

    python3 perfbench/rep.py --workload sweep --seed 1 --rep 0 --trace 0 \
        --spawned-at <perf_counter reading taken just before the spawn>

``setup_s`` runs from ``--spawned-at`` (``perf_counter`` is system-wide
monotonic on Linux) until the timed call starts, so it covers interpreter
start, imports and input generation.  Tracing is installed after the
inputs are built, so the traced totals cover the timed call only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.rep)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(args.trace_dir)
    setup_s = time.perf_counter() - args.spawned_at
    result = workloads.run_inputs(args.workload, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "pid": os.getpid(),
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "latencies": result.latencies,
        "output_digest": result.output_digest,
        "peak_rss_mb": peak_rss_mb,
        "info": result.info,
    }
    if tracer is not None:
        record["layers"] = tracer.collect()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
