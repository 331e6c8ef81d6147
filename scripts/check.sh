#!/usr/bin/env bash
# Full static-analysis gate: the repo's own protocol linter, then the
# conventional checkers when they are installed (pip install -e '.[lint]'),
# then an optional perf smoke against the committed bench baseline.
# The protocol linter is dependency-free and always runs.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0

echo "== repro lint =="
# SARIF + baseline gate: fail on any finding not grandfathered in
# lint_baseline.json; the SARIF output itself goes to /dev/null here
# (CI uploads capture it separately), so rerun in text mode on failure
# for a human-readable diagnosis.
if ! PYTHONPATH=src python -m repro lint --format=sarif \
        --baseline lint_baseline.json src/repro >/dev/null; then
    PYTHONPATH=src python -m repro lint --baseline lint_baseline.json src/repro || true
    status=1
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests || status=1
else
    echo "== ruff == (not installed, skipped)"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy || status=1
else
    echo "== mypy == (not installed, skipped)"
fi

# Docs gate: links, fenced JSON examples, and the runnable `$ repro ...`
# examples in docs/telemetry.md and docs/service.md.  Dependency-free;
# disable with DOCS_CHECK=0.
if [ "${DOCS_CHECK:-1}" != "0" ]; then
    echo "== docs check =="
    python scripts/docs_check.py || status=1
else
    echo "== docs check == (DOCS_CHECK=0, skipped)"
fi

# Experiment-suite import gate: collecting benchmarks/ imports every
# test_e*.py, so a public name they use cannot vanish unnoticed (tier-1
# never imports them).  Collection only, about 2s; always runs.
echo "== benchmarks collect =="
PYTHONPATH=src:. python -m pytest benchmarks/ --collect-only -q || status=1

# Optional perf smoke: time the fixed basket and diff it against the
# committed baseline.  Skipped when no baseline JSON exists or when
# PERF_SMOKE=0; wall-clock comparisons across different machines are noisy,
# so the smoke uses a generous threshold (override: PERF_SMOKE_THRESHOLD).
# The basket runs fault-free through the default LockstepTransport, so
# routing cost stays inside the committed BENCH_runner.json envelope
# too.  The batch engine is additionally held to a same-machine floor:
# every batch:* case must move at least BATCH_SMOKE_SPEEDUP (default 5)
# times the messages/sec of its scalar runner baseline — a *ratio*
# within one run, so it is noise-tolerant.
# The service layer is held to an absolute SERVE_RATE_FLOOR (default 20)
# agreements/sec on every service:* case — set an order of magnitude
# under a healthy run, so only a cliff trips it.  Timings are the median
# of PERF_SMOKE_TRIALS (default 3) independent trials, which strips
# whole-trial outliers; bench_compare --trials verifies the knob was on.
if [ -f BENCH_runner.json ] && [ "${PERF_SMOKE:-1}" != "0" ]; then
    echo "== perf smoke =="
    current="$(mktemp /tmp/bench_current.XXXXXX.json)"
    if PYTHONPATH=src python -m repro bench \
            --trials "${PERF_SMOKE_TRIALS:-3}" --output "$current" >/dev/null; then
        PYTHONPATH=src python scripts/bench_compare.py BENCH_runner.json "$current" \
            --threshold "${PERF_SMOKE_THRESHOLD:-0.5}" \
            --trials "${PERF_SMOKE_TRIALS:-3}" \
            --min-batch-speedup "${BATCH_SMOKE_SPEEDUP:-5}" \
            --min-service-rate "${SERVE_RATE_FLOOR:-20}" || status=1
    else
        echo "perf smoke: repro bench failed"
        status=1
    fi
    rm -f "$current"
else
    echo "== perf smoke == (no baseline or PERF_SMOKE=0, skipped)"
fi

# Fuzz smoke: a fixed-seed campaign over every algorithm, sized to ~10s.
# The campaign is deterministic in its seed, so this is a stable gate;
# any failure means a generated adversary broke an agreement or declared
# bound.  Disable with FUZZ_SMOKE=0.
if [ "${FUZZ_SMOKE:-1}" != "0" ]; then
    echo "== fuzz smoke =="
    PYTHONPATH=src python -m repro fuzz --algorithm all --budget 300 --seed 0 || status=1
else
    echo "== fuzz smoke == (FUZZ_SMOKE=0, skipped)"
fi

# Chaos smoke: the fuzz campaign again, but with seeded benign delivery
# faults (crash/omission/drop/delay/duplicate/partition) injected through
# the FaultyTransport.  Deterministic for the seed; a failure means the
# oracle saw divergence the injected faults cannot excuse.  Disable with
# CHAOS_SMOKE=0.
if [ "${CHAOS_SMOKE:-1}" != "0" ]; then
    echo "== chaos smoke =="
    PYTHONPATH=src python -m repro fuzz --algorithm all --fault-rate 0.2 \
        --budget 300 --seed 0 || status=1
else
    echo "== chaos smoke == (CHAOS_SMOKE=0, skipped)"
fi

# Approx smoke: seeded ensemble statistics for the randomized workloads
# (coin-stream KS uniformity, Ben-Or's geometric round tail by chi-square,
# eps-convergence of the approximate-agreement pair).  Deterministic for
# the seed and well under 10s.  Disable with APPROX_SMOKE=0.
if [ "${APPROX_SMOKE:-1}" != "0" ]; then
    echo "== approx smoke =="
    PYTHONPATH=src python -m repro approx-smoke --seed 0 || status=1
else
    echo "== approx smoke == (APPROX_SMOKE=0, skipped)"
fi

# Service smoke: a seeded mixed-workload traffic run (20% faulty) through
# the agreement scheduler.  `make serve-smoke` exits non-zero on any
# non-ok verdict (a disagreement the injected faults cannot excuse) or
# on zero measured throughput.  Disable with SERVE_SMOKE=0.
if [ "${SERVE_SMOKE:-1}" != "0" ]; then
    echo "== serve smoke =="
    make --no-print-directory serve-smoke || status=1
else
    echo "== serve smoke == (SERVE_SMOKE=0, skipped)"
fi

exit "$status"
