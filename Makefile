PYTHON ?= python

.PHONY: test lint lint-protocol lint-baseline check bench bench-compare bench-batch benchmarks fuzz fuzz-smoke chaos-smoke strawman-smoke approx-smoke serve-smoke docs-check

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

# Time-boxed CI smoke: a fixed-seed campaign sized to ~10s.  Its printed
# table is deterministic for the seed at any worker count, so it must
# equal the committed copy byte for byte.  A change that moves it re-pins
# it (redirect the same command into tests/smoke/fuzz-smoke.txt) and
# lists the diff in CHANGES.md.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --algorithm all --budget 300 --seed 0 \
		> /tmp/fuzz_smoke.out || { cat /tmp/fuzz_smoke.out; exit 1; }
	cat /tmp/fuzz_smoke.out
	diff -u tests/smoke/fuzz-smoke.txt /tmp/fuzz_smoke.out

# Chaos smoke: a fixed-seed campaign of benign delivery faults
# (crashes, omissions, drops, delays, duplicates, partitions) over
# every algorithm, sized to ~10s.  Deterministic for the seed; any
# failure is divergence the injected faults cannot excuse.  Its table
# must equal tests/smoke/chaos-smoke.txt byte for byte (re-pinned as
# fuzz-smoke's is).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --algorithm all --fault-rate 0.2 \
		--budget 300 --seed 0 > /tmp/chaos_smoke.out \
		|| { cat /tmp/chaos_smoke.out; exit 1; }
	cat /tmp/chaos_smoke.out
	diff -u tests/smoke/chaos-smoke.txt /tmp/chaos_smoke.out

# Strawman smoke: fixed-seed campaigns against the three strawman
# algorithms, each with and without seeded delivery faults, at one
# worker (about 4s).  The strawmen are broken by design, so the
# campaigns exit 1 and their output is the gate: the tables and the 93
# shrunk failures, details included, must equal
# tests/smoke/strawman-smoke.txt byte for byte (re-pinned as
# fuzz-smoke's is).  They drive the most adversarial traffic of any
# campaign.  An exit status above 1 (bad input, a crash) fails at once.
strawman-smoke:
	: > /tmp/strawman_smoke.out
	for s in undersigning echo overshoot; do \
		for faults in "" "--fault-rate 0.3"; do \
			PYTHONPATH=src $(PYTHON) -m repro fuzz --algorithm strawman-$$s \
				--budget 150 --seed 3 --workers 1 $$faults >> /tmp/strawman_smoke.out; \
			[ $$? -le 1 ] || exit 1; \
		done; \
	done
	diff -u tests/smoke/strawman-smoke.txt /tmp/strawman_smoke.out
	echo "strawman-smoke: output equals tests/smoke/strawman-smoke.txt"

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
# The summed counters must also keep two identities that hold on any
# machine: unique_runs + replicated_runs == requests and
# kernel_runs + scalar_runs == unique_runs.
# Then one request past the fault budget (oral-messages n=7 t=2, three
# processors crashed) is replayed through repro serve: its divergence is
# benign, so it must exit 0 with failed 0 and benign 1.
# Then 769 identical requests (three stripes' worth and one more) are
# piped to repro serve at two workers: one run class executes once per
# wave, so the summary must read unique_runs 1, replicated_runs 768 and
# failed 0.
# Last, a 600-request burst, 20% faulty, is served as one wave of 112
# stripes (each fault plan's class is a stripe of its own) on two
# workers.  Its run-class and crypto counts and verdicts do not depend
# on which process serves a stripe, so they are pinned: 600 = 115 unique
# + 485 replicated, 115 = 2 kernel + 113 scalar, sign/verify/chain-verify
# 4728/4170/11787, and 600 ok of which 14 benign.  The digest and setup
# counts vary with the worker and are left out.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro loadgen --requests 600 --rate 200 \
		--seed 0 --fault-rate 0.2 --workers 2 --json \
		--metrics-out /tmp/serve_smoke.json > /tmp/serve_smoke.out \
		|| { cat /tmp/serve_smoke.out; exit 1; }
	$(PYTHON) -c "import json; text = open('/tmp/serve_smoke.out').read(); print(text, end=''); case = json.load(open('/tmp/serve_smoke.json'))['cases']['service:loadgen']; assert case['failed'] == 0 and (case['agreements_per_sec'] or 0) > 0, case; stats = json.JSONDecoder().raw_decode(text, text.index('\n{') + 1)[0]; pool = '%d setup misses over %d waves' % (stats['setup_misses'], stats['waves']); assert stats['setup_misses'] <= (2 + 1) * 3, pool; runs = '%(requests)d = %(unique_runs)d unique + %(replicated_runs)d replicated, %(unique_runs)d = %(kernel_runs)d kernel + %(scalar_runs)d scalar' % stats; assert stats['unique_runs'] + stats['replicated_runs'] == stats['requests'] and stats['kernel_runs'] + stats['scalar_runs'] == stats['unique_runs'], runs; print('serve-smoke: ok,', pool + ';', runs)"
	echo '{"request_id": 0, "algorithm": "oral-messages", "n": 7, "t": 2, "value": 1, "fault_plan": {"faults": [{"kind": "crash", "pid": 1}, {"kind": "crash", "pid": 2}, {"kind": "crash", "pid": 3}]}}' \
		| PYTHONPATH=src $(PYTHON) -m repro serve - \
		--workers 1 --json > /tmp/serve_budget.out \
		|| { cat /tmp/serve_budget.out; exit 1; }
	$(PYTHON) -c "import json; text = open('/tmp/serve_budget.out').read(); print(text.splitlines()[0]); stats = json.JSONDecoder().raw_decode(text, text.index('\n{') + 1)[0]; assert stats['failed'] == 0 and stats['benign'] == 1, stats; print('serve-smoke: over-budget request benign')"
	$(PYTHON) -c "import json; print('\n'.join(json.dumps({'request_id': i, 'algorithm': 'algorithm-3', 'n': 20, 't': 2, 'value': 1}) for i in range(769)))" \
		| PYTHONPATH=src $(PYTHON) -m repro serve - \
		--workers 2 --json > /tmp/serve_class.out \
		|| { cat /tmp/serve_class.out; exit 1; }
	$(PYTHON) -c "import json; text = open('/tmp/serve_class.out').read(); print(text.splitlines()[0]); stats = json.JSONDecoder().raw_decode(text, text.index('\n{') + 1)[0]; runs = (stats['unique_runs'], stats['replicated_runs'], stats['failed']); assert runs == (1, 768, 0), stats; print('serve-smoke: 769 identical requests, 1 unique + 768 replicated runs')"
	PYTHONPATH=src $(PYTHON) -m repro loadgen --requests 600 --rate 1e9 --seed 7 \
		--fault-rate 0.2 --workers 2 --json > /tmp/serve_burst.out \
		|| { cat /tmp/serve_burst.out; exit 1; }
	$(PYTHON) -c "import json; text = open('/tmp/serve_burst.out').read(); print(text.splitlines()[0]); stats = json.JSONDecoder().raw_decode(text, text.index('\n{') + 1)[0]; keys = ('requests', 'unique_runs', 'replicated_runs', 'kernel_runs', 'scalar_runs', 'sign_calls', 'verify_calls', 'chain_verify_calls', 'ok', 'benign'); counts = dict((key, stats[key]) for key in keys); assert tuple(counts.values()) == (600, 115, 485, 2, 113, 4728, 4170, 11787, 600, 14), counts; print('serve-smoke: faulted burst, 600 = 115 unique + 485 replicated, 115 = 2 kernel + 113 scalar, sign/verify/chain-verify 4728/4170/11787, 600 ok incl. 14 benign')"
