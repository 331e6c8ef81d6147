PYTHON ?= python

.PHONY: test lint lint-protocol lint-baseline check bench bench-compare bench-batch benchmarks fuzz fuzz-smoke chaos-smoke approx-smoke serve-smoke docs-check

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Protocol linter + ruff + mypy (the latter two only when installed),
# plus the perf smoke against BENCH_runner.json when it exists.
lint:
	./scripts/check.sh

# Just the whole-program protocol analyzer (BA001-BA010), gated on the
# committed baseline — the same invocation scripts/check.sh runs.
lint-protocol:
	PYTHONPATH=src $(PYTHON) -m repro lint --baseline lint_baseline.json src/repro

# Regenerate lint_baseline.json from the current tree (reasons on
# existing entries are preserved).  Review the diff before committing.
lint-baseline:
	PYTHONPATH=src $(PYTHON) -m repro lint --baseline lint_baseline.json \
		--write-baseline src/repro

check: lint test

# Time the fixed perf basket (median of 3 trials) and (re)write the
# committed baseline point, service:* throughput cases included.
bench:
	PYTHONPATH=src $(PYTHON) -m repro bench --trials 3 --output BENCH_runner.json

# Diff a fresh bench run against the committed baseline (exit 1 on >25%).
bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro bench --trials 3 --output /tmp/bench_current.json
	PYTHONPATH=src $(PYTHON) scripts/bench_compare.py BENCH_runner.json /tmp/bench_current.json

# Batch-engine perf gate: every batch:* case must reach 10x the
# messages/sec of its scalar runner baseline (same-machine ratio).
bench-batch:
	PYTHONPATH=src $(PYTHON) -m repro bench --output /tmp/bench_current.json
	PYTHONPATH=src $(PYTHON) scripts/bench_compare.py BENCH_runner.json /tmp/bench_current.json \
		--min-batch-speedup 10

# Documentation gate: links resolve, JSON examples parse, and the
# worked `$ repro ...` examples in docs/telemetry.md actually run.
docs-check:
	$(PYTHON) scripts/docs_check.py

# Full-resolution experiment benchmarks (pytest-benchmark timings).
benchmarks:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Full seeded fuzz campaign over every registered algorithm (deterministic
# for a fixed seed; failures are shrunk and saved under tests/fuzz_corpus/).
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --algorithm all --budget 200 --seed 0 \
		--save-corpus tests/fuzz_corpus

# Time-boxed CI smoke: a fixed-seed campaign sized to ~10s.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --algorithm all --budget 300 --seed 0

# Chaos smoke: a fixed-seed campaign of benign delivery faults
# (crashes, omissions, drops, delays, duplicates, partitions) over
# every algorithm, sized to ~10s.  Deterministic for the seed; any
# failure is divergence the injected faults cannot excuse.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --algorithm all --fault-rate 0.2 \
		--budget 300 --seed 0

# Statistical smoke for the randomized workloads: seeded KS/chi-square
# ensemble checks (coin uniformity, Ben-Or's geometric round tail,
# eps-convergence), sized well under 10s.  Deterministic for the seed.
approx-smoke:
	PYTHONPATH=src $(PYTHON) -m repro approx-smoke --seed 0

# Service smoke: a seeded open-loop traffic run (mixed workloads, 20%
# faulty) through the agreement scheduler, sized under ~10s.  The
# loadgen exits non-zero on any failing verdict; the follow-up assertion
# additionally pins non-zero measured throughput.  Verdicts are
# deterministic for the seed (timing figures are not).  The last
# assertion gates the worker pool's lifetime by a count that does not
# depend on the machine: the scheduler keeps its two workers for the
# whole run, so each of them and the serving process misses each of the
# default mix's three configurations at most once (the --json summary's
# setup_misses <= (2 + 1) x 3).  A pool per wave misses about once a wave.
# Then one request past the fault budget (oral-messages n=7 t=2, three
# processors crashed) is replayed through repro serve: its divergence is
# benign, so it must exit 0 with failed 0 and benign 1.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro loadgen --requests 600 --rate 200 \
		--seed 0 --fault-rate 0.2 --workers 2 --json \
		--metrics-out /tmp/serve_smoke.json > /tmp/serve_smoke.out \
		|| { cat /tmp/serve_smoke.out; exit 1; }
	$(PYTHON) -c "import json; text = open('/tmp/serve_smoke.out').read(); print(text, end=''); case = json.load(open('/tmp/serve_smoke.json'))['cases']['service:loadgen']; assert case['failed'] == 0 and (case['agreements_per_sec'] or 0) > 0, case; stats = json.JSONDecoder().raw_decode(text, text.index('\n{') + 1)[0]; pool = '%d setup misses over %d waves' % (stats['setup_misses'], stats['waves']); assert stats['setup_misses'] <= (2 + 1) * 3, pool; print('serve-smoke: ok,', pool)"
	echo '{"request_id": 0, "algorithm": "oral-messages", "n": 7, "t": 2, "value": 1, "fault_plan": {"faults": [{"kind": "crash", "pid": 1}, {"kind": "crash", "pid": 2}, {"kind": "crash", "pid": 3}]}}' \
		| PYTHONPATH=src $(PYTHON) -m repro serve - \
		--workers 1 --json > /tmp/serve_budget.out \
		|| { cat /tmp/serve_budget.out; exit 1; }
	$(PYTHON) -c "import json; text = open('/tmp/serve_budget.out').read(); print(text.splitlines()[0]); stats = json.JSONDecoder().raw_decode(text, text.index('\n{') + 1)[0]; assert stats['failed'] == 0 and stats['benign'] == 1, stats; print('serve-smoke: over-budget request benign')"
