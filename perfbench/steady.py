"""Evidence that the benchmark is steady, and which counts repeat exactly.

Runs ``run.py`` once per seed on each workload and reports, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  The reference loop ``run.py`` times around every
repetition is summarised the same way, as a reading of host noise, and so
is ``served_per_s`` before scaling to the reference host.

With ``--exact`` it also makes two traced runs with the same seed per
workload and lists the per-layer counts that came out identical.  The
summary is printed as a Markdown table; per-seed values go to stderr.

    python3 perfbench/steady.py --runs 10 --exact
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[dict]]:
    """One benchmark run: its result line and its ``meta`` lines."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = [json.loads(line) for line in completed.stdout.strip().splitlines()]
    return lines[-1], lines[:-1]


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else float("nan")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", help="default: those of BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--exact", action="store_true")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    if args.workloads is None:
        args.workloads = [workload["name"] for workload in config["workloads"]]
    report: dict[str, dict] = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        reps: list[dict] = []
        unscaled: list[float] = []
        correct = True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, meta = bench(workload, seed, args.seconds, 0)
            correct &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            seed_reps = [m for m in meta if m.get("meta") == "rep"]
            reps += seed_reps
            unscaled.append(
                statistics.median((r["attempted"] - r["failed"]) / r["wall_s"] for r in seed_reps)
            )
            reference_ms = 1000 * statistics.median(rep["reference_s"] for rep in seed_reps)
            print(
                workload,
                seed,
                {k: round(v[-1], 4) for k, v in values.items()},
                f"unscaled served_per_s {unscaled[-1]:.4g}",
                f"reference {reference_ms:.1f} ms",
                file=sys.stderr,
            )
        entry = {
            "correct": correct,
            "metrics": {name: spread(vals) for name, vals in values.items()},
            "unscaled": spread(unscaled),
            "reference_s": spread([rep["reference_s"] for rep in reps]),
        }
        if args.exact:
            first, _ = bench(workload, args.first_seed, args.seconds, 1)
            second, _ = bench(workload, args.first_seed, args.seconds, 1)
            entry["exact_counts"] = sorted(
                name
                for name, metric in first["metrics"].items()
                if metric["unit"] == "count" and metric["value"] == second["metrics"][name]["value"]
            )
            entry["varying_counts"] = sorted(
                name
                for name, metric in first["metrics"].items()
                if metric["unit"] == "count" and metric["value"] != second["metrics"][name]["value"]
            )
        report[workload] = entry

    rows = [
        "| workload | metric | median | IQR / median | bound | bound / 3 |",
        "|---|---|---|---|---|---|",
    ]
    for workload, entry in report.items():
        for name, stats in entry["metrics"].items():
            bound = bounds.get(name, float("nan"))
            rows.append(
                f"| {workload} | {name} | {stats['median']:.4g} | {stats['spread']:.3f} "
                f"| {bound} | {bound / 3:.3f} |"
            )
        for label, key in (("served_per_s, unscaled", "unscaled"), ("reference loop (s)", "reference_s")):
            stats = entry[key]
            rows.append(f"| {workload} | {label} | {stats['median']:.4g} | {stats['spread']:.3f} | | |")
    text = "\n".join(rows)
    for workload, entry in report.items():
        if "exact_counts" in entry:
            text += (
                f"\n\n**{workload}** counts equal in two traced runs of one seed: "
                f"{', '.join(entry['exact_counts']) or 'none'}."
                f"\nCounts that differed: {', '.join(entry['varying_counts']) or 'none'}."
            )
    print(text)
    return 0 if all(entry["correct"] for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
