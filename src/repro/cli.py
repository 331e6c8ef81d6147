"""Command-line interface: run scenarios and experiments without writing code.

Usage (also via ``python -m repro``)::

    # run one algorithm against an adversary and print the cost ledger
    python -m repro run --algorithm algorithm-5 --n 100 --t 3 --value 1
    python -m repro run --algorithm algorithm-1 --n 7 --t 3 \
        --adversary silent:1,2 --value 1

    # list everything that is registered
    python -m repro list

    # side-by-side comparison at one (n, t)
    python -m repro compare --n 120 --t 2

    # execute a lower-bound proof
    python -m repro theorem1 --algorithm strawman-undersigning --n 6 --t 2
    python -m repro theorem2 --algorithm algorithm-1 --n 9 --t 4

Adversary specs: ``silent:PIDS``, ``crash:PID@PHASE,...``,
``equivocate`` (transmitter tells odd ids value 1, even ids value 0),
``garbage:PIDS``, ``random:SEED:PIDS``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.adversary.base import Adversary
from repro.adversary.standard import (
    CrashAdversary,
    EquivocatingTransmitter,
    GarbageAdversary,
    RandomizedAdversary,
    SilentAdversary,
)
from repro.algorithms.registry import ALGORITHMS, STRAWMEN, WORKLOADS, get
from repro.analysis.sweep import measure
from repro.analysis.tables import format_table
from repro.approx.coins import coins_for
from repro.bounds.theorem1 import theorem1_experiment
from repro.bounds.theorem2 import theorem2_experiment
from repro.core.errors import ConfigurationError
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import run as run_algorithm


class UsageError(SystemExit):
    """Bad command-line input: :func:`main` prints it as one line on
    stderr and exits 2."""


def _parse_pids(spec: str) -> list[int]:
    return [int(p) for p in spec.split(",") if p]


def _adversary(kind: str, rest: str, algorithm: AgreementAlgorithm) -> Adversary:
    if kind == "silent":
        return SilentAdversary(_parse_pids(rest))
    if kind == "crash":
        crashes = {}
        for item in rest.split(","):
            pid, _, phase = item.partition("@")
            crashes[int(pid)] = int(phase) if phase else 1
        return CrashAdversary(crashes)
    if kind == "equivocate":
        return EquivocatingTransmitter(
            algorithm.transmitter,
            {q: q % 2 for q in range(1, algorithm.n)},
        )
    if kind == "garbage":
        return GarbageAdversary(_parse_pids(rest))
    if kind == "random":
        seed, _, pids = rest.partition(":")
        return RandomizedAdversary(_parse_pids(pids), int(seed))
    raise ValueError(
        f"unknown kind {kind!r}; kinds: silent, crash, equivocate, garbage, random"
    )


def parse_adversary(spec: str | None, algorithm: AgreementAlgorithm) -> Adversary | None:
    """Build an adversary from a CLI spec string (see module docstring).

    Raises :class:`UsageError` on a malformed spec, and on one that
    corrupts more than ``t`` processors or names a pid outside the system.
    """
    if not spec or spec == "none":
        return None
    kind, _, rest = spec.partition(":")
    try:
        adversary = _adversary(kind, rest, algorithm)
    except ValueError as error:
        raise UsageError(f"bad adversary spec {spec!r}: {error}") from None
    n, t = algorithm.n, algorithm.t
    faulty = sorted(adversary.faulty)
    if len(faulty) > t or any(not 0 <= pid < n for pid in faulty):
        raise UsageError(
            f"adversary spec {spec!r} corrupts {faulty}, but n={n}, t={t} "
            f"allows at most {t} of pids 0..{n - 1}"
        )
    return adversary


def _build(args: argparse.Namespace) -> AgreementAlgorithm:
    params = {}
    if args.s is not None:
        params["s"] = args.s
    for key in ("eps", "coin_bias", "max_rounds"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    try:
        return get(args.algorithm)(args.n, args.t, **params)
    except (KeyError, ValueError, TypeError, ConfigurationError) as error:
        raise UsageError(error.args[0]) from None


def _coins_for(args: argparse.Namespace, algorithm: AgreementAlgorithm):
    """A seeded coin source when *algorithm* flips coins, else ``None``."""
    return coins_for(algorithm, getattr(args, "seed", None))


def cmd_list(_: argparse.Namespace) -> int:
    """`repro list`: the registered algorithm table."""
    rows = [
        {
            "name": info.name,
            "family": info.family,
            "authenticated": info.authenticated,
            "source": info.source,
            "phases": info.phases_formula,
            "messages": info.messages_formula,
        }
        for info in (
            list(ALGORITHMS.values())
            + list(WORKLOADS.values())
            + list(STRAWMEN.values())
        )
    ]
    print(format_table(rows, title="Registered algorithms"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run`: one execution, optionally traced and exported."""
    algorithm = _build(args)
    adversary = parse_adversary(args.adversary, algorithm)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    instrument = bool(trace_out or metrics_out)

    transport = None
    faults_spec = getattr(args, "faults", None)
    if faults_spec:
        from repro.transport import FaultSpecError, FaultyTransport, parse_fault_plan

        try:
            plan = parse_fault_plan(
                faults_spec,
                n=algorithm.n,
                t=algorithm.t,
                num_phases=algorithm.num_phases(),
            )
        except FaultSpecError as error:
            raise UsageError(str(error)) from None
        if not plan.is_empty:
            transport = FaultyTransport(plan)

    trace_sink = None
    sinks: tuple = ()
    if trace_out:
        from repro.obs import JsonlTraceSink

        trace_sink = JsonlTraceSink(trace_out)
        sinks = (trace_sink,)
    coins = _coins_for(args, algorithm)
    try:
        result = run_algorithm(
            algorithm,
            args.value,
            adversary,
            sinks=sinks,
            collect_telemetry=instrument,
            transport=transport,
            coins=coins,
        )
    finally:
        if trace_sink is not None:
            trace_sink.close()
    from repro.approx.validation import OK, declared_costs, judge_run

    declared = declared_costs(algorithm)
    verdict = judge_run(result, algorithm, declared)
    excused = sorted(verdict.excused)

    print(f"algorithm            : {algorithm.name} (n={algorithm.n}, t={algorithm.t})")
    print(f"phases               : {algorithm.num_phases()}")
    print(f"faulty               : {sorted(result.faulty) or 'none'}")
    if result.fault_events:
        print(f"faults injected      : {len(result.fault_events)} "
              f"(excused: {excused or 'nobody'})")
    if coins is not None:
        print(f"coin seed / flips    : {coins.seed} / {coins.flips}")
    print(f"decisions            : {result.decided_values()}")
    print(f"messages (correct)   : {result.metrics.messages_by_correct}")
    print(f"signatures (correct) : {result.metrics.signatures_by_correct}")
    if declared.messages is not None:
        print(f"paper's message bound: {declared.messages}")
    text = "Byzantine Agreement holds" if verdict.text == OK else verdict.text
    suffix = f" (excused: {excused})" if excused else ""
    print(f"verdict              : {verdict.kind} — {text}{suffix}")
    if trace_out:
        print(f"trace written        : {trace_out}")
    if metrics_out:
        from repro.obs import write_metrics

        written = write_metrics(result, metrics_out)
        print(f"metrics written      : {metrics_out} ({written})")
    return 1 if verdict.failed else 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """`repro inspect`: summarize and verify a repro-trace/1 file."""
    import json

    from repro.obs import render_summary, summarize_trace

    try:
        summary = summarize_trace(args.trace)
    except (OSError, ValueError) as error:
        raise UsageError(str(error)) from None
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 1 if summary.consistency_errors() else 0


def cmd_compare(args: argparse.Namespace) -> int:
    """`repro compare`: fault-free cost table across the registry."""
    rows = []
    for info in ALGORITHMS.values():
        try:
            algorithm = info(args.n, args.t)
        except Exception as error:  # size constraints differ per algorithm
            rows.append({"algorithm": info.name, "note": str(error)})
            continue
        point = measure(algorithm, 1)
        rows.append(
            {
                "algorithm": info.name,
                "phases": point.phases_configured,
                "messages": point.messages,
                "signatures": point.signatures,
                "agreement": point.agreement_ok,
            }
        )
    print(format_table(rows, title=f"Fault-free comparison at n={args.n}, t={args.t}"))
    return 0


def cmd_theorem1(args: argparse.Namespace) -> int:
    """`repro theorem1`: the Ω(nt) signature bound as an experiment."""
    report = theorem1_experiment(lambda: _build(args), coin_seed=args.seed)
    print(f"bound n(t+1)/4         : {float(report.bound):.2f}")
    print(f"signatures in H + G    : {report.signatures_h + report.signatures_g}")
    print(f"min per-processor |A|  : {report.min_exchange} (needs {report.t + 1})")
    if report.attack is None:
        print("verdict                : not splittable — the bound is respected")
        return 0
    attack = report.attack
    print(f"splittable processors  : {report.weak_processors}")
    print(f"attack on {attack.target}: view==pH {attack.target_view_matches_h}, "
          f"decided {attack.target_decision!r} vs others "
          f"{sorted(set(attack.other_decisions.values()))!r}")
    print(f"agreement violated     : {attack.agreement_violated}")
    return 0


def cmd_theorem2(args: argparse.Namespace) -> int:
    """`repro theorem2`: the Ω(n + t²) message bound as an experiment."""
    report = theorem2_experiment(lambda: _build(args), coin_seed=args.seed)
    print(f"combined lower bound   : {report.bound}")
    print(f"fault-free messages    : {report.fault_free_messages}")
    print(f"B set                  : {list(report.b_set)}")
    print(f"messages fed to B      : {report.received_by_b} "
          f"(each needs {report.per_member_requirement})")
    if report.attack is None:
        print("verdict                : B cannot be starved — the bound is respected")
        return 0
    attack = report.attack
    print(f"switch attack on {attack.target}: received "
          f"{attack.target_messages_received}, decided {attack.target_decision!r} "
          f"vs others {sorted(set(attack.other_decisions.values()))!r}")
    print(f"agreement violated     : {attack.agreement_violated}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """`repro trace`: human-readable phase-by-phase timeline."""
    from repro.analysis.trace import render_trace

    algorithm = _build(args)
    adversary = parse_adversary(args.adversary, algorithm)
    result = run_algorithm(
        algorithm, args.value, adversary, coins=_coins_for(args, algorithm)
    )
    print(render_trace(result, max_messages_per_phase=args.max_messages))
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    """`repro conformance`: replay §2's correctness rules over a run."""
    from repro.core.conformance import check_conformance

    algorithm = _build(args)
    adversary = parse_adversary(args.adversary, algorithm)
    result = run_algorithm(
        algorithm, args.value, adversary, coins=_coins_for(args, algorithm)
    )
    verdicts = check_conformance(result, _build(args))
    rows = []
    for pid in range(algorithm.n):
        verdict = verdicts[pid]
        rows.append(
            {
                "processor": pid,
                "corrupted": pid in result.faulty,
                "correct in H": verdict.correct_in_history,
                "first deviation": verdict.first_deviation_phase,
                "detail": verdict.deviations[0].describe()
                if verdict.deviations
                else "-",
            }
        )
    print(format_table(rows, title="Section 2 conformance (correct-at-phase-k)"))
    behavioural = [p for p in range(algorithm.n) if not verdicts[p].correct_in_history]
    print(f"\nbehaviourally faulty: {behavioural or 'none'} "
          f"(corrupted: {sorted(result.faulty) or 'none'})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint`: run the BA001–BA010 protocol analyzer."""
    from pathlib import Path

    import repro
    from repro.lint import (
        BaselineError,
        apply_baseline,
        explain_rule,
        lint_paths,
        load_baseline,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )

    if args.explain:
        explanation = explain_rule(args.explain)
        if explanation is None:
            raise UsageError(f"unknown rule {args.explain!r}")
        print(explanation)
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not look like a clean bill of health.
        raise UsageError(f"no such path: {', '.join(missing)}")
    report = lint_paths(paths)

    if args.write_baseline:
        if not args.baseline:
            raise UsageError("--write-baseline requires --baseline FILE")
        target = Path(args.baseline)
        previous = load_baseline(target) if target.exists() else []
        count = write_baseline(report, target, previous)
        noun = "entry" if count == 1 else "entries"
        print(f"wrote {count} baseline {noun} to {target}")
        return 0

    baselined: list = []
    stale: list = []
    exit_code = report.exit_code
    if args.baseline:
        try:
            entries = load_baseline(Path(args.baseline))
        except BaselineError as error:
            raise UsageError(str(error)) from None
        diff = apply_baseline(report, entries)
        baselined, stale = diff.matched, diff.stale
        exit_code = diff.exit_code
        # The rendered report shows only *new* findings (the gate);
        # grandfathered debt stays visible via SARIF suppressions and
        # the summary counts.
        visible = [f for f in report.findings if f not in set(baselined)]
        if args.format != "sarif":
            report = type(report)(
                findings=visible,
                files_checked=report.files_checked,
                rules_run=report.rules_run,
            )
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report, baselined))
    else:
        print(render_text(report))
        if baselined:
            noun = "finding" if len(baselined) == 1 else "findings"
            print(f"{len(baselined)} baselined {noun} not shown")
    for entry in stale:
        print(
            f"repro lint: stale baseline entry ({entry.rule} {entry.path}): "
            f"no longer found — regenerate with --write-baseline",
            file=sys.stderr,
        )
    return exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    """`repro bench`: time the case table of :mod:`repro.bench`, write its JSON."""
    from repro.bench import run_bench

    return run_bench(args.output, workers=args.workers, repeat=args.repeat,
                     trials=args.trials, quick=args.quick, profile=args.profile)


def _serve_and_report(schedule, args: argparse.Namespace, command: str) -> int:
    """Shared tail of ``loadgen``/``serve``: serve *schedule*, then the
    summary, outputs and exit code (2 for a malformed stripe setting)."""
    import json

    from repro.obs.export import write_service_metrics
    from repro.service import Scheduler

    try:
        scheduler = Scheduler(workers=args.workers, max_stripe=args.max_stripe)
    except ValueError as error:
        print(f"{command}: {error}", file=sys.stderr)
        return 2
    with scheduler:
        report = scheduler.serve(schedule)
    stats = report.stats
    verdicts = report.verdict_counts()
    rate = stats.agreements_per_sec
    rate_text = f"{rate:.1f} agreements/sec " if rate is not None else ""
    print(
        f"repro {command}: {stats.requests} requests in "
        f"{stats.wall_s:.3f}s — {rate_text}"
        f"({stats.ok} ok incl. {stats.benign} benign, {stats.failed} failed, "
        f"{stats.waves} wave{'s' if stats.waves != 1 else ''})"
    )
    for stage, summary in (
        ("e2e", stats.e2e),
        ("queue", stats.queue),
        ("service", stats.service),
    ):
        if summary is not None:
            print(
                f"latency {stage:<8} p50={summary.p50_s:.6f}s "
                f"p95={summary.p95_s:.6f}s p99={summary.p99_s:.6f}s "
                f"max={summary.max_s:.6f}s"
            )
    if stats.unique_runs:
        ratio = stats.dedup_ratio
        print(
            f"dedup: {stats.requests} requests / {stats.unique_runs} unique "
            f"runs ({ratio:.1f}x), {stats.kernel_runs} kernel, "
            f"{stats.scalar_runs} scalar; digest hits "
            f"{stats.digest_hits}/{stats.digest_hits + stats.digest_misses}"
        )
    print("verdicts: " + ", ".join(f"{k}={v}" for k, v in verdicts.items()))
    if getattr(args, "json", False):
        print(json.dumps(stats.to_json_dict(), indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for outcome in report.outcomes:
                handle.write(json.dumps(outcome.to_json_dict(), sort_keys=True))
                handle.write("\n")
        print(f"wrote {len(report.outcomes)} responses to {args.out}")
    if args.metrics_out:
        fmt = write_service_metrics(stats, args.metrics_out)
        print(f"wrote {fmt} metrics to {args.metrics_out}")
    failures = report.failures()
    if failures:
        shown = ", ".join(
            f"#{o.request_id} {o.algorithm}: {o.verdict}" for o in failures[:5]
        )
        print(f"{command}: {len(failures)} failed verdicts ({shown})", file=sys.stderr)
        return 1
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """`repro loadgen`: seeded open-loop traffic against the service layer.

    Deterministic in ``(--requests, --rate, --seed, --mix, --fault-rate)``:
    verdicts are pure functions of request content, never of timing, so
    the printed verdict multiset is identical across repeats and worker
    counts — only the latency and throughput figures move.
    """
    import json

    from repro.service import DEFAULT_MIX, MixSpecError, generate_schedule

    try:
        schedule = generate_schedule(
            requests=args.requests,
            rate=args.rate,
            seed=args.seed,
            mix=args.mix or DEFAULT_MIX,
            fault_rate=args.fault_rate,
        )
    except (MixSpecError, ValueError) as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 2

    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            for scheduled in schedule:
                line = scheduled.request.to_json_dict()
                line["arrival_s"] = round(scheduled.arrival_s, 6)
                handle.write(json.dumps(line, sort_keys=True))
                handle.write("\n")
        print(f"wrote {len(schedule)} requests to {args.emit}")
        return 0

    return _serve_and_report(schedule, args, "loadgen")


def cmd_serve(args: argparse.Namespace) -> int:
    """`repro serve`: replay ``repro-service/1`` JSONL requests from a file.

    Reads one request per line (``-`` for stdin) — the format
    ``repro loadgen --emit`` writes.  An optional ``arrival_s`` field per
    line is honoured as the open-loop arrival offset; absent, the request
    arrives immediately.  Each configuration is built once while parsing,
    so one its algorithm rejects is a malformed line like any other, and
    so is a value that is unhashable or outside the algorithm's
    ``value_domain``.
    """
    import json
    import math

    from repro.service import AgreementRequest, RequestFormatError, ScheduledRequest
    from repro.service.cache import build_arena

    source = args.input
    try:
        handle = sys.stdin if source == "-" else open(source, encoding="utf-8")
    except OSError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    schedule: list[ScheduledRequest] = []
    arenas: dict[tuple, AgreementAlgorithm] = {}
    try:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                request = AgreementRequest.from_json_dict(data)
                key = request.config_key()
                if key not in arenas:
                    arenas[key] = build_arena(key)
                arenas[key].check_value(request.value)
                arrival = data.get("arrival_s", 0.0)
                if type(arrival) not in (int, float) or not math.isfinite(arrival):
                    raise RequestFormatError(
                        f"arrival_s must be a finite number, got {arrival!r}"
                    )
            except (json.JSONDecodeError, RequestFormatError, ConfigurationError) as error:
                print(f"serve: {source}:{lineno}: {error}", file=sys.stderr)
                return 2
            schedule.append(ScheduledRequest(arrival_s=arrival, request=request))
    finally:
        if handle is not sys.stdin:
            handle.close()
    if not schedule:
        print(f"serve: {source} contains no requests", file=sys.stderr)
        return 2

    return _serve_and_report(schedule, args, "serve")


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Seeded fuzz campaign over the registered algorithms.

    Deterministic in ``(--algorithm, --budget, --seed)``: the same invocation
    prints the same summary regardless of ``--workers``.  Failures are
    shrunk to minimal counterexamples and, with ``--save-corpus``, persisted
    as replayable JSON (replay one with ``--replay FILE``).
    """
    from repro.analysis.parallel import run_tasks
    from repro.fuzz import (
        CorpusEntry,
        load_entry,
        plan_cases,
        replay_entry,
        save_entry,
        save_trace,
        shrink_result,
        summarize,
    )
    from repro.fuzz.campaign import default_algorithm_names, known_algorithm_names

    if args.replay:
        try:
            entry = load_entry(args.replay)
        except OSError as error:
            raise UsageError(f"cannot read corpus file: {error}") from None
        except (ValueError, KeyError, TypeError) as error:
            raise UsageError(f"corrupt corpus file {args.replay!r}: {error}") from None
        outcome = replay_entry(entry)
        case = entry.case
        print(f"algorithm : {case.algorithm} (n={case.n}, t={case.t}, "
              f"params={dict(case.params)})")
        print(f"value     : {case.value}")
        print(f"script    : {case.script.describe()}")
        if case.fault_plan is not None and not case.fault_plan.is_empty:
            print(f"faults    : {case.fault_plan.describe()}")
        print(f"recorded  : {entry.verdict} — {entry.detail or '(no detail)'}")
        print(f"replayed  : {outcome.verdict} — {outcome.detail or '(no detail)'}")
        if outcome.retired:
            print(f"retired   : {outcome.retired} simulated instance(s) raised")
        reproduced = outcome.verdict == entry.verdict
        print(f"reproduced: {reproduced}")
        return 0 if reproduced else 1

    if args.algorithm == "all":
        names = default_algorithm_names()
    else:
        known = known_algorithm_names()
        if args.algorithm not in known:
            raise UsageError(f"unknown algorithm {args.algorithm!r}; "
                             f"known: {', '.join(known)} (or 'all')")
        names = [args.algorithm]

    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    if args.fault_rate is not None and not 0.0 < args.fault_rate <= 1.0:
        raise UsageError(f"--fault-rate must be in (0, 1], got {args.fault_rate}")
    cases = plan_cases(
        names, budget=args.budget, seed=args.seed, fault_rate=args.fault_rate
    )
    results = run_tasks(
        cases,
        workers=args.workers,
        task_timeout=args.task_timeout,
        checkpoint=args.checkpoint,
    )

    failures = [r for r in results if r.failed]
    if failures and not args.no_shrink:
        failures = [shrink_result(r) for r in failures]

    mode = (
        f", chaos fault-rate={args.fault_rate}"
        if args.fault_rate is not None
        else ""
    )
    rows = [s.as_row() for s in summarize(results)]
    print(format_table(
        rows,
        title=f"repro fuzz (budget={args.budget}/algorithm, "
        f"seed={args.seed}{mode})",
    ))

    for result in failures:
        case = result.case
        print(f"\n[{result.outcome.verdict}] {case.algorithm} "
              f"(n={case.n}, t={case.t}) value={case.value} seed={case.seed}")
        print(f"  detail : {result.outcome.detail or '(none)'}")
        print(f"  script : {case.script.describe()}")
        if case.fault_plan is not None and not case.fault_plan.is_empty:
            print(f"  faults : {case.fault_plan.describe()}")
        if args.save_corpus:
            entry = CorpusEntry(
                case=case,
                verdict=result.outcome.verdict,
                detail=result.outcome.detail,
            )
            path = save_entry(args.save_corpus, entry)
            print(f"  saved  : {path}")
            trace_path = save_trace(path, entry)
            print(f"  trace  : {trace_path}")

    retired = sum(result.outcome.retired for result in results)
    if retired:
        print(f"\n{retired} simulated faulty instance(s) raised and were retired")
    print(f"\n{len(results)} cases, {len(failures)} failing")
    return 1 if failures else 0


def cmd_approx_smoke(args: argparse.Namespace) -> int:
    """`repro approx-smoke`: the seeded statistical gate for the workloads."""
    from repro.approx.stats import run_statistical_smoke

    try:
        report = run_statistical_smoke(args.seed)
    except AssertionError as error:
        print(f"repro approx-smoke: FAIL — {error}", file=sys.stderr)
        return 1
    print(f"seed                  : {report['seed']}")
    print(f"coin KS statistic     : {report['coin_ks']:.4f} "
          f"(critical {report['coin_ks_critical']:.4f} at alpha=0.01)")
    print(f"ben-or success prob   : {report['benor_success_probability']:.4f}")
    print(f"ben-or round histogram: {report['benor_round_histogram']}")
    print(f"ben-or chi^2 p-value  : {report['benor_chi2_pvalue']:.4f}")
    for key in sorted(report):
        if key.endswith("_rounds"):
            print(f"{key:<22}: {report[key]}")
    print("approx-smoke          : all statistical checks pass")
    return 0


def cmd_experiments(_: argparse.Namespace) -> int:
    """`repro experiments`: the fast E1–E12 verdict table."""
    from repro.analysis.experiments import run_all_experiments

    report = run_all_experiments()
    print(report.to_markdown())
    if report.all_hold:
        print("\nall experiments reproduce the paper's claims")
        return 0
    print(f"\nFAILING: {[r.experiment for r in report.failing()]}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dolev-Reischuk 'Bounds on Information Exchange for "
        "Byzantine Agreement' — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered algorithms").set_defaults(
        func=cmd_list
    )

    def add_system_args(p: argparse.ArgumentParser) -> None:
        """Attach the shared --n/--t/--s/--value/--adversary options."""
        p.add_argument("--algorithm", required=True, help="registry name")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--s", type=int, default=None, help="tuning parameter "
                       "(Algorithm 3's chain-set size / Algorithm 5's tree size)")
        p.add_argument("--eps", type=float, default=None,
                       help="agreement tolerance for the approximate workloads")
        p.add_argument("--coin-bias", type=float, default=None, dest="coin_bias",
                       help="P[coin = 1] for the randomized workloads "
                       "(default: 0.5)")
        p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds",
                       help="round cap for the randomized workloads")
        p.add_argument("--seed", type=int, default=0,
                       help="coin-stream seed for the randomized workloads "
                       "(ignored by deterministic algorithms)")

    p_run = sub.add_parser("run", help="execute one scenario")
    add_system_args(p_run)
    p_run.add_argument("--value", type=int, default=1)
    p_run.add_argument("--adversary", default=None, help="see module docstring")
    p_run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a repro-trace/1 JSONL event trace (inspect it with "
        "'repro inspect FILE')",
    )
    p_run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export run metrics: Prometheus text, or a repro-bench/1 JSON "
        "when FILE ends in .json (diffable with scripts/bench_compare.py)",
    )
    p_run.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject benign delivery faults, e.g. "
        "'crash:2@1; omit-send:3:0.5@2; drop:0->4; partition:1,2@3-4; "
        "seed:7' — each injection lands in the trace as a 'fault' event "
        "and agreement is judged crash-tolerantly (excusing the affected "
        "processors)",
    )
    p_run.set_defaults(func=cmd_run)

    p_inspect = sub.add_parser(
        "inspect",
        help="summarise a saved trace: per-phase histograms, adaptive cost, "
        "ledger consistency",
    )
    p_inspect.add_argument("trace", help="a repro-trace/1 JSONL file")
    p_inspect.add_argument(
        "--json", action="store_true",
        help="machine-readable summary instead of the text report",
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_cmp = sub.add_parser("compare", help="fault-free comparison table")
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--t", type=int, required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_t1 = sub.add_parser("theorem1", help="run the signature lower-bound proof")
    add_system_args(p_t1)
    p_t1.set_defaults(func=cmd_theorem1)

    p_t2 = sub.add_parser("theorem2", help="run the message lower-bound proof")
    add_system_args(p_t2)
    p_t2.set_defaults(func=cmd_theorem2)

    p_trace = sub.add_parser("trace", help="print a phase-by-phase timeline")
    add_system_args(p_trace)
    p_trace.add_argument("--value", type=int, default=1)
    p_trace.add_argument("--adversary", default=None)
    p_trace.add_argument("--max-messages", type=int, default=12,
                         help="messages shown per phase before eliding")
    p_trace.set_defaults(func=cmd_trace)

    p_conf = sub.add_parser(
        "conformance",
        help="replay the correctness rules and localise behavioural faults",
    )
    add_system_args(p_conf)
    p_conf.add_argument("--value", type=int, default=1)
    p_conf.add_argument("--adversary", default=None)
    p_conf.set_defaults(func=cmd_conformance)

    p_approx = sub.add_parser(
        "approx-smoke",
        help="seeded statistical gate: coin uniformity (KS), Ben-Or's "
        "geometric round tail (chi^2), eps-convergence",
    )
    p_approx.add_argument(
        "--seed", type=int, default=0,
        help="ensemble seed; the gate is deterministic per seed (default: 0)",
    )
    p_approx.set_defaults(func=cmd_approx_smoke)

    p_exp = sub.add_parser(
        "experiments",
        help="fast pass over every paper experiment (E1–E12), verdict table",
    )
    p_exp.set_defaults(func=cmd_experiments)

    p_bench = sub.add_parser(
        "bench",
        help="time the fixed perf basket and write a BENCH JSON "
        "(compare two with scripts/bench_compare.py)",
    )
    p_bench.add_argument(
        "--output", default="BENCH_runner.json", help="where to write the JSON"
    )
    p_bench.add_argument(
        "--workers", type=int, default=None,
        help="sweep worker processes (default: $REPRO_SWEEP_WORKERS or CPU count)",
    )
    p_bench.add_argument(
        "--repeat", type=int, default=3,
        help="timed calls per trial of every case; the min is kept (default: 3)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="smaller basket for CI smoke runs",
    )
    p_bench.add_argument(
        "--trials", type=int, default=1,
        help="independent timing trials per case; the median of the "
        "per-trial minima is reported, which strips whole-trial outliers "
        "(default: 1)",
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="run the runner and batch rows under cProfile and print the "
        "top-20 cumulative hotspots instead of writing the JSON",
    )
    p_bench.set_defaults(func=cmd_bench)

    def add_service_args(p: argparse.ArgumentParser) -> None:
        """Flags shared by the ``loadgen``/``serve`` service pair."""
        p.add_argument(
            "--workers", type=int, default=None,
            help="scheduler pool size (default: $REPRO_SWEEP_WORKERS or CPU "
            "count; 1 serves serially in-process)",
        )
        p.add_argument(
            "--max-stripe", type=int, default=256,
            help="max requests per worker stripe — the batching stripe of "
            "the sizing formula (default: 256)",
        )
        p.add_argument(
            "--out", default=None, metavar="FILE",
            help="write per-request response records as repro-service/1 JSONL",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="export capacity metrics: Prometheus text, or a "
            "repro-bench/1 JSON with a service:loadgen case when FILE ends "
            "in .json (gate it with scripts/bench_compare.py "
            "--min-service-rate)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="also print the full machine-readable stats document",
        )

    p_loadgen = sub.add_parser(
        "loadgen",
        help="seeded open-loop Poisson traffic against the agreement "
        "service; prints agreements/sec and latency percentiles",
    )
    p_loadgen.add_argument(
        "--requests", type=int, default=200,
        help="number of requests to generate (default: 200)",
    )
    p_loadgen.add_argument(
        "--rate", type=float, default=500.0,
        help="mean offered load in requests/sec, Poisson arrivals "
        "(default: 500)",
    )
    p_loadgen.add_argument(
        "--seed", type=int, default=0,
        help="master seed: arrivals, mix choices, values, fault plans and "
        "coin seeds all derive from it (default: 0)",
    )
    p_loadgen.add_argument(
        "--mix", default=None,
        help="workload mix 'NAME:k=v,k=v[:WEIGHT]; ...' (n= and t= "
        "required per clause; default: a batch/kernel/approx blend)",
    )
    p_loadgen.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="fraction of exact-family requests carrying a seeded benign "
        "fault plan (default: 0)",
    )
    p_loadgen.add_argument(
        "--emit", default=None, metavar="FILE",
        help="write the generated schedule as repro-service/1 JSONL and "
        "exit without serving (replay it with 'repro serve FILE')",
    )
    add_service_args(p_loadgen)
    p_loadgen.set_defaults(func=cmd_loadgen)

    p_serve = sub.add_parser(
        "serve",
        help="serve repro-service/1 JSONL requests from a file or stdin "
        "(the format 'repro loadgen --emit' writes)",
    )
    p_serve.add_argument(
        "input",
        help="requests file, one JSON object per line ('-' reads stdin); "
        "an arrival_s field per line sets the open-loop arrival offset",
    )
    add_service_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="seeded adversary fuzzing with counterexample shrinking",
    )
    p_fuzz.add_argument(
        "--algorithm", default="all",
        help="registry name, or 'all' for every real algorithm (default)",
    )
    p_fuzz.add_argument(
        "--budget", type=int, default=200,
        help="generated scripts per algorithm (default: 200)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign master seed; per-case seeds are derived by hashing",
    )
    p_fuzz.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_SWEEP_WORKERS or CPU count); "
        "the summary is identical for any worker count",
    )
    p_fuzz.add_argument(
        "--save-corpus", default=None, metavar="DIR",
        help="persist shrunk failures as replayable JSON under DIR",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimising them",
    )
    p_fuzz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-execute one corpus JSON file and check its verdict reproduces",
    )
    p_fuzz.add_argument(
        "--fault-rate", type=float, default=None, metavar="RATE",
        help="chaos mode: fuzz with seeded benign delivery faults "
        "(crash/omission/drop/partition) at this intensity in (0, 1] "
        "instead of Byzantine scripts; verdicts use the crash-tolerant "
        "oracle reading",
    )
    p_fuzz.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-case deadline; wedged workers are terminated and their "
        "chunk retried (default: no deadline)",
    )
    p_fuzz.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="resumable progress file: an interrupted campaign re-run with "
        "the same arguments skips finished chunks (deleted on completion)",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_lint = sub.add_parser(
        "lint",
        help="static verification of the protocol invariants (BA001-BA010)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="diff findings against a committed baseline; only new ones fail",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the --baseline file from the current findings",
    )
    p_lint.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print the rationale for one rule id (e.g. --explain BA006)",
    )
    p_lint.set_defaults(func=cmd_lint)

    return parser


#: The destinations of the flags that name a file a command writes.
#: ``repro fuzz --checkpoint`` is not one: it creates its directories.
OUTPUT_FLAGS = ("output", "trace_out", "metrics_out", "out", "emit")


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any work, an output file that cannot be created."""
    for dest in OUTPUT_FLAGS:
        path = getattr(args, dest, None)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path} is a directory")
        directory = os.path.dirname(path)
        if not os.path.isdir(directory or "."):
            raise UsageError(f"{flag} {path}: no such directory {directory}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except UsageError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
