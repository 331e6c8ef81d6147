"""Tests for the command-line interface."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.algorithms.algorithm1 import Algorithm1
from repro.algorithms.registry import get
from repro.cli import main, parse_adversary
from repro.core.runner import run
from repro.core.validation import declared_costs, judge_run
from repro.obs.export import service_bench_json
from repro.service.stats import ServiceStats
from repro.transport.faulty import FaultyTransport
from repro.transport.spec import parse_fault_plan


class TestParseAdversary:
    @pytest.fixture
    def algorithm(self):
        return Algorithm1(7, 3)

    def test_none(self, algorithm):
        assert parse_adversary(None, algorithm) is None
        assert parse_adversary("none", algorithm) is None

    def test_silent(self, algorithm):
        adversary = parse_adversary("silent:1,2", algorithm)
        assert adversary.faulty == frozenset({1, 2})

    def test_crash_with_phases(self, algorithm):
        adversary = parse_adversary("crash:1@3,2", algorithm)
        assert adversary.crash_phases == {1: 3, 2: 1}

    def test_equivocate_targets_everyone(self, algorithm):
        adversary = parse_adversary("equivocate", algorithm)
        assert adversary.faulty == frozenset({0})
        assert set(adversary.value_for) == set(range(1, 7))

    def test_garbage(self, algorithm):
        adversary = parse_adversary("garbage:3", algorithm)
        assert adversary.faulty == frozenset({3})

    def test_random(self, algorithm):
        adversary = parse_adversary("random:42:1,2", algorithm)
        assert adversary.faulty == frozenset({1, 2})

    def test_unknown_spec_exits(self, algorithm):
        with pytest.raises(SystemExit):
            parse_adversary("quantum:1", algorithm)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "algorithm-5" in out and "strawman-undersigning" in out

    def test_run_fault_free(self, capsys):
        code = main(
            ["run", "--algorithm", "algorithm-1", "--n", "5", "--t", "2",
             "--value", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Byzantine Agreement holds" in out
        assert "messages (correct)   : 12" in out

    def test_run_with_adversary(self, capsys):
        code = main(
            ["run", "--algorithm", "dolev-strong", "--n", "7", "--t", "2",
             "--adversary", "silent:1,2", "--value", "1"]
        )
        assert code == 0
        assert "faulty               : [1, 2]" in capsys.readouterr().out

    def test_run_with_s_parameter(self, capsys):
        code = main(
            ["run", "--algorithm", "algorithm-3", "--n", "20", "--t", "2",
             "--s", "3"]
        )
        assert code == 0

    def test_compare(self, capsys):
        assert main(["compare", "--n", "16", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "active-set" in out and "algorithm-5" in out

    def test_theorem1_on_correct_algorithm(self, capsys):
        code = main(
            ["theorem1", "--algorithm", "algorithm-1", "--n", "5", "--t", "2"]
        )
        assert code == 0
        assert "not splittable" in capsys.readouterr().out

    def test_theorem1_on_strawman(self, capsys):
        code = main(
            ["theorem1", "--algorithm", "strawman-undersigning",
             "--n", "6", "--t", "2"]
        )
        assert code == 0
        assert "agreement violated     : True" in capsys.readouterr().out

    def test_theorem2_on_correct_algorithm(self, capsys):
        code = main(
            ["theorem2", "--algorithm", "algorithm-1", "--n", "9", "--t", "4"]
        )
        assert code == 0
        assert "cannot be starved" in capsys.readouterr().out

    def test_trace(self, capsys):
        code = main(
            ["trace", "--algorithm", "algorithm-1", "--n", "5", "--t", "2",
             "--value", "1", "--max-messages", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase 1" in out and "decisions:" in out and "more" in out

    def test_trace_max_messages_zero_shows_the_counts_only(self, capsys):
        code = main(
            ["trace", "--algorithm", "dolev-strong", "--n", "4", "--t", "1",
             "--max-messages", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "--- phase 1 (3 messages, 3 signatures) ---" in out
        assert "... 3 more" in out and "->" not in out

    def test_conformance(self, capsys):
        code = main(
            ["conformance", "--algorithm", "dolev-strong", "--n", "6",
             "--t", "2", "--adversary", "silent:2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "behaviourally faulty: [2]" in out

    def test_conformance_builds_once_and_replays_each_processor_once(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli
        import repro.core.conformance as conformance

        built, replayed = [], []
        build, replay = cli._build, conformance.conformance_of

        def counted_build(args):
            built.append(args.algorithm)
            return build(args)

        def counted_replay(result, algorithm, pid):
            replayed.append(pid)
            return replay(result, algorithm, pid)

        monkeypatch.setattr(cli, "_build", counted_build)
        monkeypatch.setattr(conformance, "conformance_of", counted_replay)
        assert main(
            ["conformance", "--algorithm", "algorithm-5", "--n", "16", "--t", "2"]
        ) == 0
        assert "behaviourally faulty: none" in capsys.readouterr().out
        assert built == ["algorithm-5"]
        assert replayed == list(range(16))

    def test_experiments(self, capsys):
        code = main(["experiments"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all experiments reproduce" in out

    def test_theorem2_on_strawman(self, capsys):
        code = main(
            ["theorem2", "--algorithm", "strawman-undersigning",
             "--n", "8", "--t", "2"]
        )
        assert code == 0
        assert "agreement violated     : True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, verdict",
        [
            # Ben-Or signs nothing, so every processor is splittable; the
            # attack corrupts nobody and agreement holds.
            ("theorem1", "agreement violated     : False"),
            ("theorem2", "verdict                : B cannot be starved"),
        ],
    )
    def test_theorems_run_coin_flipping_algorithms(self, capsys, command, verdict):
        code = main(
            [command, "--algorithm", "ben-or", "--n", "6", "--t", "1", "--seed", "3"]
        )
        assert code == 0
        assert verdict in capsys.readouterr().out


LINT_FIXTURES = str(Path(__file__).parent / "lint" / "fixtures")


class TestLintCommand:
    def test_lint_defaults_to_clean_package(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out

    def test_lint_explicit_path_text(self, capsys):
        import repro

        package_root = str(Path(repro.__file__).parent)
        assert main(["lint", package_root]) == 0
        out = capsys.readouterr().out
        assert "files checked, no findings" in out

    def test_lint_seeded_violations_nonzero_exit(self, capsys):
        assert main(["lint", LINT_FIXTURES]) == 1
        out = capsys.readouterr().out
        for rule_id in (
            "BA001", "BA002", "BA003", "BA004", "BA005",
            "BA006", "BA007", "BA008", "BA009", "BA010",
        ):
            assert rule_id in out
        assert "ba001_bad.py:3:1" in out

    def test_lint_missing_path_is_an_error(self, capsys):
        assert main(["lint", "/no/such/path"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_lint_json_format(self, capsys):
        assert main(["lint", LINT_FIXTURES, "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules_run"] == [
            "BA001", "BA002", "BA003", "BA004", "BA005",
            "BA006", "BA007", "BA008", "BA009", "BA010",
        ]
        rules_hit = {f["rule"] for f in payload["findings"]}
        assert rules_hit == {
            "BA001", "BA002", "BA003", "BA004", "BA005",
            "BA006", "BA007", "BA008", "BA009", "BA010",
        }

    def test_lint_sarif_format(self, capsys):
        assert main(["lint", LINT_FIXTURES, "--format=sarif"]) == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["results"]

    def test_lint_explain_known_rule(self, capsys):
        assert main(["lint", "--explain", "BA006"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("BA006:")
        assert "message_bound" in out

    def test_lint_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "BA999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_baseline_gate_passes_on_committed_baseline(self, capsys):
        committed = str(Path(__file__).parents[1] / "lint_baseline.json")
        assert main(["lint", "--baseline", committed]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_write_baseline_then_gate(self, tmp_path, capsys):
        target = str(tmp_path / "baseline.json")
        assert main(
            ["lint", LINT_FIXTURES, "--baseline", target, "--write-baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline entries" in out
        # with all fixture debt grandfathered, the gate goes green ...
        assert main(["lint", LINT_FIXTURES, "--baseline", target]) == 0
        out = capsys.readouterr().out
        assert "baselined findings not shown" in out
        # ... and the SARIF output keeps the debt visible but suppressed.
        assert main(
            ["lint", LINT_FIXTURES, "--baseline", target, "--format=sarif"]
        ) == 0
        sarif = json.loads(capsys.readouterr().out)
        results = sarif["runs"][0]["results"]
        assert results
        assert all(
            r.get("suppressions") == [{"kind": "external"}] for r in results
        )

    def test_lint_write_baseline_requires_baseline_path(self, capsys):
        assert main(["lint", LINT_FIXTURES, "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_lint_malformed_baseline_is_an_error(self, tmp_path, capsys):
        target = tmp_path / "baseline.json"
        target.write_text("{}")
        assert main(["lint", LINT_FIXTURES, "--baseline", str(target)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_lint_stale_baseline_entries_warn_but_pass(self, tmp_path, capsys):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({
            "schema": "repro-lint-baseline/1",
            "findings": [{
                "rule": "BA001",
                "path": "repro/zz_gone.py",
                "message": "never matches",
            }],
        }))
        assert main(["lint", "--baseline", str(target)]) == 0
        captured = capsys.readouterr()
        assert "stale baseline entry" in captured.err


class TestRunObservability:
    def test_trace_and_metrics_out(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.prom"
        code = main(
            ["run", "--algorithm", "algorithm-1", "--n", "7", "--t", "3",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written" in out and "metrics written" in out
        first = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])
        assert first["schema"] == "repro-trace/1"
        assert metrics.read_text(encoding="utf-8").startswith("# HELP repro_")

    def test_metrics_out_json_is_bench_schema(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        code = main(
            ["run", "--algorithm", "dolev-strong", "--n", "5", "--t", "1",
             "--metrics-out", str(metrics)]
        )
        assert code == 0
        document = json.loads(metrics.read_text(encoding="utf-8"))
        assert document["schema"] == "repro-bench/1"
        assert "runner:dolev-strong" in document["cases"]

    def test_inspect_matches_run_ledger(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", "--algorithm", "algorithm-1", "--n", "7", "--t", "3",
             "--trace-out", str(trace)]
        ) == 0
        run_out = capsys.readouterr().out
        assert main(["inspect", str(trace)]) == 0
        inspect_out = capsys.readouterr().out
        assert "consistency: ok" in inspect_out
        # Same totals in both reports.
        assert "messages (correct)   : 24" in run_out
        assert "messages 24 correct" in inspect_out

    def test_inspect_json_output(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        main(["run", "--algorithm", "dolev-strong", "--n", "4", "--t", "1",
              "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["inspect", str(trace), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-trace/1"
        assert document["consistency_errors"] == []

    def test_inspect_counts_f_as_judge_run_does(self, capsys, tmp_path):
        # Three crashed processors and no adversary: f = 3 > t = 2 in both
        # the verdict (benign, over budget) and the trace summary.
        trace = tmp_path / "t.jsonl"
        faults = "crash:1@1; crash:2@1; crash:3@1"
        assert main(
            ["run", "--algorithm", "oral-messages", "--n", "7", "--t", "2",
             "--faults", faults, "--trace-out", str(trace)]
        ) == 0
        assert "benign — fault budget exceeded" in capsys.readouterr().out
        assert main(["inspect", str(trace), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["adaptive_cost"]["actual_faults"] == 3

        algorithm = get("oral-messages")(7, 2)
        plan = parse_fault_plan(faults, n=7, t=2, num_phases=algorithm.num_phases())
        result = run(algorithm, 1, transport=FaultyTransport(plan))
        verdict = judge_run(result, algorithm, declared_costs(algorithm))
        assert len(result.faulty | verdict.excused) == 3

    def test_inspect_missing_file_is_an_error(self, capsys):
        assert main(["inspect", "/no/such/trace.jsonl"]) == 2
        assert "repro inspect" in capsys.readouterr().err

    def test_inspect_rejects_non_trace_json(self, capsys, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"event":"send","phase":1}\n', encoding="utf-8")
        assert main(["inspect", str(path)]) == 2
        assert "run_start" in capsys.readouterr().err

    def test_algorithm_name_aliases(self, capsys):
        # The canonical name is algorithm-1; common alternate spellings work.
        for alias in ("algorithm1", "ALGORITHM-1", "algorithm_1"):
            assert main(
                ["run", "--algorithm", alias, "--n", "5", "--t", "2"]
            ) == 0
            assert "algorithm-1" in capsys.readouterr().out


class TestBenchCommand:
    def test_quick_bench_writes_schema_json(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        code = main(
            ["bench", "--quick", "--repeat", "1", "--output", str(output)]
        )
        assert code == 0
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["schema"] == "repro-bench/1"
        assert document["quick"] is True
        assert document["repeat"] == 1
        assert document["workers"] >= 1
        cases = document["cases"]
        assert "sweep:algorithm-3:grid" in cases
        assert any(key.startswith("runner:") for key in cases)
        for case in cases.values():
            assert case["seconds"] > 0
        runner_case = cases["runner:dolev-strong"]
        assert runner_case["messages_per_sec"] > 0
        assert cases["sweep:algorithm-3:grid"]["scenarios_per_sec"] > 0
        out = capsys.readouterr().out
        assert "bench" in out.lower() or str(output) in out

    def test_bench_includes_batch_cases(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        assert main(
            ["bench", "--quick", "--repeat", "1", "--output", str(output)]
        ) == 0
        cases = json.loads(output.read_text(encoding="utf-8"))["cases"]
        batch_cases = {k: v for k, v in cases.items() if k.startswith("batch:")}
        assert set(batch_cases) == {
            "batch:algorithm-3",
            "batch:algorithm-5",
            "batch:phase-king",
            "batch:oral-messages",
        }
        for key, case in batch_cases.items():
            assert case["kind"] == "batch"
            assert case["runs"] > case["unique_runs"]
            assert case["baseline_case"] in cases
            assert case["messages_per_sec"] > 0
        # The kernel algorithms actually took the kernel path.
        assert batch_cases["batch:phase-king"]["kernel_runs"] == 2
        assert batch_cases["batch:oral-messages"]["kernel_runs"] == 2
        # Authenticated batches share digests through the interned table.
        assert batch_cases["batch:algorithm-3"]["digest_hit_rate"] > 0.5

    def test_bench_profile_prints_hotspots_without_json(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--quick", "--repeat", "1",
                "--profile", "--output", str(output),
            ]
        )
        assert code == 0
        assert not output.exists()
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "top-20" in out


class TestFaultInjectionCli:
    def test_run_with_faults_reports_excused(self, capsys):
        code = main(
            ["run", "--algorithm", "dolev-strong", "--n", "6", "--t", "2",
             "--faults", "crash:2@1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "excused: [2]" in out
        assert "Byzantine Agreement holds (excused: [2])" in out

    def test_run_fault_events_land_in_the_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", "--algorithm", "dolev-strong", "--n", "6", "--t", "2",
             "--faults", "crash:2@1", "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        events = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        faults = [e for e in events if e["event"] == "fault"]
        assert faults
        assert all(e["fault_schema"] == "repro-fault/1" for e in faults)
        # repro inspect attributes the divergence to the injection.
        assert main(["inspect", str(trace)]) == 0
        inspect_out = capsys.readouterr().out
        assert "injected" in inspect_out and "excusing [2]" in inspect_out

    def test_run_past_the_fault_budget_is_benign(self, capsys):
        # Three crashes against t=2: no guarantee binds, so the divergence
        # among the rest is benign and the run does not fail.
        code = main(
            ["run", "--algorithm", "oral-messages", "--n", "7", "--t", "2",
             "--value", "1", "--faults", "crash:1@1;crash:2@1;crash:3@1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict              : benign — fault budget exceeded:" in out
        assert "(excused: [1, 2, 3])" in out

    def test_run_bad_fault_spec_exits_2(self, capsys):
        code = main(
            ["run", "--algorithm", "dolev-strong", "--n", "6", "--t", "2",
             "--faults", "gremlin:1"]
        )
        assert code == 2
        assert "unknown fault clause" in capsys.readouterr().err

    def test_fuzz_chaos_mode_smoke(self, capsys):
        code = main(
            ["fuzz", "--algorithm", "dolev-strong", "--fault-rate", "0.5",
             "--budget", "5", "--seed", "0", "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos fault-rate=0.5" in out
        assert "benign" in out
        assert "0 failing" in out

    def test_fuzz_fault_rate_validated(self, capsys):
        code = main(
            ["fuzz", "--algorithm", "dolev-strong", "--fault-rate", "1.5",
             "--budget", "1", "--workers", "1"]
        )
        assert code == 2
        assert "--fault-rate" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", [0, 1])
    def test_fuzz_reports_retired_instances_only_when_any(
        self, capsys, monkeypatch, retired
    ):
        import repro.fuzz.campaign as campaign

        real = campaign.execute_script
        monkeypatch.setattr(
            campaign,
            "execute_script",
            lambda *args, **kwargs: dataclasses.replace(
                real(*args, **kwargs), retired=retired
            ),
        )
        corpus = sorted(Path(__file__).parent.joinpath("fuzz_corpus").glob("*[0-9a-f].json"))
        assert main(["fuzz", "--replay", str(corpus[0])]) == 0
        replay = capsys.readouterr().out
        main(["fuzz", "--algorithm", "dolev-strong", "--budget", "3", "--workers", "1"])
        campaign_out = capsys.readouterr().out
        if retired:
            assert "retired   : 1 simulated instance(s) raised" in replay
            assert "3 simulated faulty instance(s) raised and were retired" in campaign_out
        else:
            assert "retired" not in replay and "retired" not in campaign_out

    def test_fuzz_checkpoint_completes_and_cleans_up(self, capsys, tmp_path):
        ckpt = tmp_path / "campaign.ckpt"
        code = main(
            ["fuzz", "--algorithm", "dolev-strong", "--budget", "4",
             "--seed", "0", "--workers", "1", "--checkpoint", str(ckpt)]
        )
        assert code == 0
        assert not ckpt.exists()


class TestBadInputExits2:
    """Bad command-line input is one stderr line and exit 2; exit 1 is
    reserved for a failing verdict."""

    SYSTEM = ["--n", "5", "--t", "1"]

    def assert_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "command", ["run", "trace", "conformance", "theorem1", "theorem2"]
    )
    def test_unknown_algorithm(self, capsys, command):
        self.assert_usage_error(
            capsys, [command, "--algorithm", "nonesuch", *self.SYSTEM]
        )

    @pytest.mark.parametrize(
        "command", ["run", "trace", "conformance", "theorem1", "theorem2"]
    )
    def test_rejected_configuration(self, capsys, command):
        self.assert_usage_error(
            capsys, [command, "--algorithm", "algorithm-1", "--n", "6", "--t", "2"]
        )

    @pytest.mark.parametrize("command", ["run", "trace", "conformance"])
    @pytest.mark.parametrize(
        "spec",
        ["silent:a", "crash:1@x", "random:x:1", "bogus", "silent:9", "silent:1,2"],
    )
    def test_bad_adversary_spec(self, capsys, command, spec):
        self.assert_usage_error(
            capsys,
            [command, "--algorithm", "dolev-strong", *self.SYSTEM,
             "--adversary", spec],
        )

    @pytest.mark.parametrize("command", ["run", "trace", "conformance"])
    def test_value_outside_the_domain(self, capsys, tmp_path, command):
        trace = tmp_path / "trace.jsonl"
        argv = [command, "--algorithm", "algorithm-1", "--n", "7", "--t", "3", "--value", "2"]
        if command == "run":
            argv += ["--trace-out", str(trace)]
        self.assert_usage_error(capsys, argv)
        assert not trace.exists()

    @pytest.mark.parametrize(
        "spec", ["crash:9@1", "delay:0->1:-3", "omit-send:1:1.5"]
    )
    def test_fault_plan_that_cannot_act(self, capsys, spec):
        self.assert_usage_error(
            capsys,
            ["run", "--algorithm", "dolev-strong", *self.SYSTEM, "--faults", spec],
        )

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["run", "--algorithm", "midpoint-approx", "--n", "7", "--t", "2",
                 "--eps", "inf"],
                id="run-eps-inf",
            ),
            pytest.param(
                ["loadgen", "--requests", "5", "--workers", "1",
                 "--mix", "midpoint-approx:n=7,t=2,eps=inf"],
                id="loadgen-eps-inf",
            ),
            pytest.param(
                ["loadgen", "--requests", "20", "--rate", "nan", "--workers", "1"],
                id="loadgen-rate-nan",
            ),
        ],
    )
    def test_non_finite_number(self, capsys, argv):
        self.assert_usage_error(capsys, argv)

    def test_serve_repeated_request_id(self, capsys, tmp_path):
        path = tmp_path / "requests.jsonl"
        lines = [
            {**GOOD_REQUEST, "request_id": 1},
            {**GOOD_REQUEST, "request_id": 2},
            {**GOOD_REQUEST, "request_id": 1, "value": 0},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out = tmp_path / "responses.jsonl"
        err = self.assert_usage_error(
            capsys, ["serve", str(path), "--workers", "1", "--out", str(out)]
        )
        assert err == f"repro serve: {path}:3: request_id 1 repeats line 1\n"
        assert not out.exists()

    def test_loadgen_max_rounds_not_an_int(self, capsys):
        err = self.assert_usage_error(
            capsys,
            ["loadgen", "--requests", "5", "--workers", "1",
             "--mix", "ben-or:n=6,t=1,max_rounds=2.5"],
        )
        assert "max_rounds must be an int of at least 1, got 2.5" in err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_loadgen_mix_weight_not_positive_and_finite(self, capsys, weight):
        clause = f"phase-king:n=8,t=1:{weight}"
        err = self.assert_usage_error(
            capsys, ["loadgen", "--requests", "5", "--workers", "1", "--mix", clause]
        )
        assert f"mix clause {clause!r}: weight must be positive and finite" in err

    @pytest.mark.parametrize(
        "clause,message",
        [
            ("phase-king:n=9.9,t=2", "n must be an integer, got 9.9"),
            ("phase-king:n=9.0,t=2", "n must be an integer, got 9.0"),
            ("phase-king:n=9,t=2.7", "t must be an integer, got 2.7"),
        ],
    )
    def test_loadgen_mix_size_not_an_integer(self, capsys, clause, message):
        err = self.assert_usage_error(
            capsys,
            ["loadgen", "--requests", "2", "--rate", "1000", "--seed", "0",
             "--workers", "1", "--mix", clause],
        )
        assert f"mix clause {clause!r}: {message}" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_fuzz_budget_below_one(self, capsys, budget):
        self.assert_usage_error(
            capsys, ["fuzz", "--algorithm", "dolev-strong", "--budget", budget]
        )

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_fuzz_task_timeout_not_positive_and_finite(self, capsys, timeout):
        err = self.assert_usage_error(
            capsys,
            ["fuzz", "--algorithm", "dolev-strong", "--budget", "2", "--workers", "1",
             f"--task-timeout={timeout}"],
        )
        assert "--task-timeout must be a positive finite number of seconds" in err

    def test_trace_negative_max_messages(self, capsys):
        err = self.assert_usage_error(
            capsys,
            ["trace", "--algorithm", "dolev-strong", "--n", "4", "--t", "1",
             "--max-messages", "-2"],
        )
        assert err == "repro trace: --max-messages must be at least 0, got -2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--quick", "--repeat", "1", "--output", "OUT", "--workers", "0"],
            ["loadgen", "--requests", "20", "--rate", "1000", "--workers", "-4"],
            ["serve", "REQUESTS", "--workers", "0"],
            ["fuzz", "--algorithm", "dolev-strong", "--budget", "2", "--workers", "-3"],
        ],
    )
    def test_workers_below_one(self, capsys, tmp_path, argv):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(GOOD_REQUEST) + "\n", encoding="utf-8")
        output = tmp_path / "bench.json"
        names = {"REQUESTS": str(requests), "OUT": str(output)}
        argv = [names.get(arg, arg) for arg in argv]
        err = self.assert_usage_error(capsys, argv)
        assert err == f"repro {argv[0]}: --workers must be at least 1, got {argv[-1]}\n"
        assert not output.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--quick", "--repeat", "1", "--output"],
            ["run", "--algorithm", "dolev-strong", *SYSTEM, "--trace-out"],
            ["run", "--algorithm", "dolev-strong", *SYSTEM, "--metrics-out"],
            ["loadgen", "--requests", "5", "--workers", "1", "--metrics-out"],
            ["loadgen", "--requests", "5", "--workers", "1", "--out"],
            ["loadgen", "--requests", "5", "--emit"],
            ["serve", "REQUESTS", "--workers", "1", "--metrics-out"],
            ["serve", "REQUESTS", "--workers", "1", "--out"],
        ],
    )
    @pytest.mark.parametrize("target", ["missing-dir/out.json", "."])
    def test_unwritable_output_is_refused_before_any_work(
        self, capsys, tmp_path, argv, target
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(GOOD_REQUEST) + "\n", encoding="utf-8")
        argv = [str(requests) if arg == "REQUESTS" else arg for arg in argv]
        path = tmp_path / target
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: {argv[-1]} {path}")
        assert captured.err.count("\n") == 1
        assert not path.is_file()


class TestReplayErrorHandling:
    def test_replay_missing_file_is_a_clear_error(self, capsys):
        code = main(["fuzz", "--replay", "/no/such/corpus.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read corpus file" in err

    def test_replay_corrupt_json_is_a_clear_error(self, capsys, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "corrupt corpus file" in capsys.readouterr().err

    def test_replay_wrong_schema_is_a_clear_error(self, capsys, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"schema": "not-a-corpus/9"}', encoding="utf-8")
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "corrupt corpus file" in capsys.readouterr().err

    def test_replay_missing_fields_is_a_clear_error(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"schema": "repro-fuzz/1"}', encoding="utf-8")
        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "corrupt corpus file" in capsys.readouterr().err


class TestListFamilies:
    def test_list_shows_the_workload_family(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "name" in line)
        assert "family" in header
        rows = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines()
            if line and line[0].isalpha() and "name" not in line
        }
        assert rows["algorithm-1"] == "exact"
        assert rows["midpoint-approx"] == "approx"
        assert rows["filtered-mean-approx"] == "approx"
        assert rows["ben-or"] == "randomized"


#: The keys of every ``service:*`` case of ``repro bench``.
SERVICE_CASE_KEYS = {
    "kind",
    "requests",
    "ok",
    "failed",
    "fault_rate",
    "waves",
    "seconds",
    "messages",
    "messages_per_sec",
    "agreements_per_sec",
    "p50_s",
    "p99_s",
    "unique_runs",
    "dedup_ratio",
}


class TestBenchTrials:
    def test_trials_recorded_and_service_cases_present(self, capsys, tmp_path):
        output = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--quick", "--repeat", "1", "--trials", "2",
                "--output", str(output),
            ]
        )
        assert code == 0
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["trials"] == 2
        service_cases = {
            k: v for k, v in document["cases"].items() if k.startswith("service:")
        }
        assert set(service_cases) == {"service:mixed", "service:faulty"}
        for case in service_cases.values():
            assert case["kind"] == "service"
            assert case["failed"] == 0
            assert case["agreements_per_sec"] > 0
            assert case["p50_s"] > 0
            assert case["p99_s"] >= case["p50_s"]
        assert service_cases["service:faulty"]["fault_rate"] == 0.2
        # One spelling: the exporter's service case plus the fault rate,
        # in the shape BENCH_runner.json pins.
        exported = service_bench_json(ServiceStats())["cases"]["service:loadgen"]
        assert set(exported) | {"fault_rate"} == SERVICE_CASE_KEYS
        for case in service_cases.values():
            assert set(case) == SERVICE_CASE_KEYS
        assert "trials=2" in capsys.readouterr().out


#: A well-formed ``repro-service/1`` request line.
GOOD_REQUEST = {
    "schema": "repro-service/1",
    "request_id": 0,
    "algorithm": "dolev-strong",
    "n": 5,
    "t": 1,
    "value": 1,
}
OMIT_HALF = {"kind": "omission_send", "pid": 1, "rate": 0.5}


class TestServiceCli:
    def test_loadgen_summary_and_exit_zero(self, capsys):
        code = main(
            [
                "loadgen", "--requests", "40", "--rate", "5000",
                "--seed", "7", "--workers", "1", "--fault-rate", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "agreements/sec" in out
        assert "latency e2e" in out
        assert "verdicts: ok=40" in out

    def test_serve_over_budget_request_is_benign(self, capsys, tmp_path):
        path = tmp_path / "budget.jsonl"
        crashes = [{"kind": "crash", "pid": pid} for pid in (1, 2, 3)]
        request = {
            **GOOD_REQUEST,
            "algorithm": "oral-messages",
            "n": 7,
            "t": 2,
            "fault_plan": {"faults": crashes},
        }
        out_path = tmp_path / "responses.jsonl"
        path.write_text(json.dumps(request) + "\n", encoding="utf-8")
        assert main(
            ["serve", str(path), "--workers", "1", "--json", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "(1 ok incl. 1 benign, 0 failed, 1 wave)" in out
        summary = json.loads(out[out.index("\n{") + 1 : out.rindex("}") + 1])
        assert (summary["ok"], summary["failed"], summary["benign"]) == (1, 0, 1)
        (response,) = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert (response["ok"], response["kind"]) == (True, "benign")
        assert response["verdict"].startswith("fault budget exceeded: ")

    def test_serve_nan_value_decided_by_all_exits_0(self, capsys, tmp_path):
        # Python's JSON reader reads NaN; every processor decides that
        # very value, which validity accepts though NaN != NaN.
        path = tmp_path / "nan.jsonl"
        request = {**GOOD_REQUEST, "algorithm": "phase-king", "n": 9, "t": 2}
        path.write_text(json.dumps({**request, "value": float("nan")}) + "\n", encoding="utf-8")
        assert main(["serve", str(path), "--workers", "1"]) == 0
        assert "(1 ok incl. 0 benign, 0 failed, 1 wave)" in capsys.readouterr().out

    def test_loadgen_verdicts_deterministic_across_runs(self, capsys):
        arguments = [
            "loadgen", "--requests", "30", "--rate", "5000",
            "--seed", "11", "--workers", "1", "--fault-rate", "0.3",
        ]
        assert main(arguments) == 0
        first = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("verdicts:")
        ]
        assert main(arguments) == 0
        second = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("verdicts:")
        ]
        assert first == second

    def test_loadgen_emit_then_serve_round_trip(self, capsys, tmp_path):
        emitted = tmp_path / "requests.jsonl"
        assert main(
            [
                "loadgen", "--requests", "20", "--rate", "5000",
                "--seed", "3", "--emit", str(emitted),
            ]
        ) == 0
        lines = emitted.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert first["schema"] == "repro-service/1"
        assert "arrival_s" in first

        responses = tmp_path / "responses.jsonl"
        metrics = tmp_path / "metrics.json"
        capsys.readouterr()
        code = main(
            [
                "serve", str(emitted), "--workers", "1",
                "--out", str(responses), "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro serve: 20 requests" in out
        response_lines = [
            json.loads(line)
            for line in responses.read_text(encoding="utf-8").splitlines()
        ]
        assert [r["request_id"] for r in response_lines] == list(range(20))
        assert all(r["ok"] for r in response_lines)
        document = json.loads(metrics.read_text(encoding="utf-8"))
        assert document["schema"] == "repro-bench/1"
        assert document["cases"]["service:loadgen"]["requests"] == 20

    def test_loadgen_metrics_out_prometheus(self, capsys, tmp_path):
        metrics = tmp_path / "service.prom"
        assert main(
            [
                "loadgen", "--requests", "10", "--rate", "5000",
                "--seed", "1", "--workers", "1",
                "--metrics-out", str(metrics),
            ]
        ) == 0
        text = metrics.read_text(encoding="utf-8")
        assert "# TYPE repro_service_requests_total counter" in text
        assert 'repro_service_requests_total{outcome="ok"} 10' in text

    def test_loadgen_bad_mix_exits_2(self, capsys):
        code = main(
            ["loadgen", "--requests", "5", "--mix", "no-such-algo:n=4,t=1"]
        )
        assert code == 2
        assert "loadgen:" in capsys.readouterr().err

    def test_loadgen_mix_configuration_rejected_exits_2(self, capsys):
        code = main(
            [
                "loadgen", "--requests", "20", "--rate", "5000", "--workers", "2",
                "--mix", "algorithm-1:n=4,t=1:1; phase-king:n=8,t=1:1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro loadgen: algorithm-1 rejects n=4, t=1")
        assert err.count("\n") == 1

    def test_serve_missing_file_exits_2(self, capsys):
        assert main(["serve", "/no/such/requests.jsonl"]) == 2
        assert "serve:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [
            pytest.param({"schema": "repro-service/1"}, "missing", id="missing-fields"),
            pytest.param(
                {**GOOD_REQUEST, "n": "five"}, "n must be an integer", id="n-string"
            ),
            pytest.param(
                {**GOOD_REQUEST, "request_id": 1.5},
                "request_id must be an integer",
                id="request-id-float",
            ),
            pytest.param(
                {**GOOD_REQUEST, "coin_seed": "x"},
                "coin_seed must be an integer",
                id="coin-seed-string",
            ),
            pytest.param(
                {**GOOD_REQUEST, "arrival_s": "soon"},
                "arrival_s must be a finite number",
                id="arrival-string",
            ),
            pytest.param(
                {**GOOD_REQUEST, "arrival_s": 1e999},
                "arrival_s must be a finite number",
                id="arrival-infinite",
            ),
            pytest.param(
                {**GOOD_REQUEST, "arrival_s": -5},
                "arrival_s must be a finite number >= 0, got -5",
                id="arrival-negative",
            ),
            *(
                pytest.param(
                    {**GOOD_REQUEST, "fault_plan": {"seed": seed, "faults": [OMIT_HALF]}},
                    f"malformed fault_plan: seed must be an integer, got {seed!r}",
                    id=f"fault-seed-{name}",
                )
                for name, seed in (("bool", True), ("float", 1.9), ("string", "7"))
            ),
            pytest.param(
                {**GOOD_REQUEST, "fault_plan": {"faults": [{"kind": "crash"}]}},
                "malformed fault_plan",
                id="fault-missing-pid",
            ),
            pytest.param(
                {**GOOD_REQUEST, "fault_plan": {"faults": [{"kind": "nope"}]}},
                "malformed fault_plan",
                id="fault-unknown-kind",
            ),
            pytest.param(
                {**GOOD_REQUEST, "fault_plan": "crash"},
                "malformed fault_plan",
                id="fault-plan-string",
            ),
            pytest.param(
                {
                    **GOOD_REQUEST,
                    "fault_plan": {"faults": [{"kind": "crash", "pid": 1, "phase": "x"}]},
                },
                "malformed fault_plan: fault crash(pid=1, phase=x): phase must be an integer",
                id="fault-phase-string",
            ),
            pytest.param(
                {**GOOD_REQUEST, "algorithm": "no-such"},
                "unknown algorithm",
                id="unknown-algorithm",
            ),
            pytest.param(
                {**GOOD_REQUEST, "algorithm": "algorithm-1", "n": 4, "t": 1},
                "algorithm-1 rejects n=4, t=1",
                id="configuration-rejected",
            ),
            pytest.param(
                {**GOOD_REQUEST, "params": {"rounds": 3}},
                "dolev-strong rejects n=5, t=1, params={'rounds': 3}",
                id="unknown-param",
            ),
            pytest.param(
                {**GOOD_REQUEST, "algorithm": "midpoint-approx", "n": 7, "t": 2,
                 "params": {"eps": float("inf")}},
                "midpoint-approx rejects n=7, t=2, params={'eps': inf}: "
                "eps must be positive and finite",
                id="eps-infinity",
            ),
            *(
                pytest.param(
                    {**GOOD_REQUEST, "algorithm": "ben-or", "n": 6, "t": 1,
                     "params": {"max_rounds": rounds}},
                    f"ben-or rejects n=6, t=1, params={{'max_rounds': {rounds!r}}}: "
                    f"max_rounds must be an int of at least 1, got {rounds!r}",
                    id=f"max-rounds-{name}",
                )
                for name, rounds in (
                    ("infinity", float("inf")), ("nan", float("nan")), ("fraction", 2.5)
                )
            ),
            pytest.param(
                {**GOOD_REQUEST, "algorithm": "algorithm-1", "n": 7, "t": 3, "value": 7},
                "algorithm-1 only agrees on values in [0, 1]; got 7",
                id="value-outside-domain",
            ),
            pytest.param(
                {**GOOD_REQUEST, "algorithm": "phase-king", "n": 8, "t": 1, "value": [1, 2]},
                "value must be hashable, got [1, 2]",
                id="value-list",
            ),
            pytest.param(
                {**GOOD_REQUEST, "algorithm": "phase-king", "n": 8, "t": 1, "value": {"v": 1}},
                "value must be hashable, got {'v': 1}",
                id="value-object",
            ),
        ],
    )
    def test_serve_malformed_line_exits_2(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        lines = [json.dumps(GOOD_REQUEST), json.dumps(line)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["serve", str(path), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro serve: {path}:2: ") and err.count("\n") == 1
        assert message in err

    def test_serve_empty_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        assert main(["serve", str(path)]) == 2
        assert "no requests" in capsys.readouterr().err
