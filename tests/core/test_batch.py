"""Unit tests for the batch execution engine (repro.core.batch)."""

import ast
from pathlib import Path

import pytest

import repro.core.batch as batch
from repro.adversary.standard import RandomizedAdversary
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.oral_messages import OralMessages
from repro.algorithms.phase_king import PhaseKing
from repro.algorithms.registry import ALGORITHMS, STRAWMEN, WORKLOADS, get
from repro.core.batch import BatchCase, BatchEquivalenceError, run_batch
from repro.core.errors import ConfigurationError
from repro.core.protocol import AgreementAlgorithm
from repro.crypto.chains import SignatureChain, forge_chain
from repro.crypto.signatures import (
    InternedSignatureService,
    SharedDigestTable,
    SignatureService,
)
from repro.fuzz.campaign import FUZZ_CONFIGS
from repro.obs.inspect import summarize_trace
from repro.transport.faults import CrashFault, FaultPlan

ALGORITHM_SOURCES = Path(__file__).parents[2] / "src" / "repro" / "algorithms"


class TestDeduplication:
    def test_repeated_values_execute_once_per_class(self):
        result = run_batch(DolevStrong(5, 1), [0, 1] * 8, strict=True)
        assert result.stats.runs == 16
        assert result.stats.unique_runs == 2
        assert result.stats.replicated_runs == 14
        assert result.stats.scalar_runs == 2
        # Replicas carry the representative's outcome, flagged.
        assert [o.replicated for o in result.outcomes].count(True) == 14
        first_zero, first_one = result.outcomes[0], result.outcomes[1]
        assert result.outcomes[2].comparable() == first_zero.comparable()
        assert result.outcomes[3].comparable() == first_one.comparable()

    def test_one_and_true_are_distinct_classes(self):
        result = run_batch(get("algorithm-3")(9, 2), [1, True, 1, True], strict=True)
        assert result.stats.unique_runs == 2
        assert result.stats.replicated_runs == 2

    def test_one_and_true_keep_their_types_through_the_kernel(self):
        # Phase King decides the transmitter's raw value, so a kernel row
        # that confused 1 with True would be visible here.
        result = run_batch(PhaseKing(9, 2), [1, True], strict=True)
        assert result.stats.kernel_runs == 2
        assert repr(dict(result.outcomes[0].decisions)[1]) == "1"
        assert repr(dict(result.outcomes[1].decisions)[1]) == "True"

    def test_uninternable_values_fall_back_to_singletons(self):
        # complex is not internable: equal cases still run separately.
        result = run_batch(PhaseKing(5, 1), [1j, 1j, 0])
        assert result.stats.unique_runs == 3
        assert result.stats.replicated_runs == 0
        assert dict(result.outcomes[0].decisions)[2] == 1j

    def test_adversary_cases_never_dedupe(self):
        def adversary(algorithm):
            return RandomizedAdversary([1], seed=7)

        case = BatchCase(value=1, adversary_name="rand", adversary_factory=adversary)
        result = run_batch(DolevStrong(5, 1), [case, case], strict=True)
        assert result.stats.unique_runs == 2
        assert result.stats.scalar_runs == 2
        assert result.stats.replicated_runs == 0

    def test_fault_plan_cases_dedupe_and_match_scalar(self):
        plan = FaultPlan(faults=(CrashFault(pid=1, phase=1),))
        cases = [BatchCase(value=1, fault_plan=plan)] * 3
        result = run_batch(DolevStrong(5, 1), cases, strict=True)
        assert result.stats.unique_runs == 1
        assert result.stats.replicated_runs == 2
        # The crash is visible in the outcome (fewer messages than clean).
        clean = run_batch(DolevStrong(5, 1), [1]).outcomes[0]
        assert result.outcomes[0].messages_by_correct < clean.messages_by_correct

    def test_a_coin_free_algorithm_ignores_the_coin_seed(self):
        # Phase King flips no coins, so the seeds name one run: the kernel
        # row, replicated to the seeded cases.
        cases = [BatchCase(1)] + [BatchCase(1, coin_seed=seed) for seed in range(5)]
        stats = run_batch(PhaseKing(9, 2), cases, strict=True).stats
        assert (stats.unique_runs, stats.kernel_runs, stats.replicated_runs) == (1, 1, 5)
        # Ben-Or flips coins: each seed is its own class.
        cases = [BatchCase(1, coin_seed=seed) for seed in (1, 1, 2)]
        stats = run_batch(get("ben-or")(6, 1), cases, strict=True).stats
        assert (stats.unique_runs, stats.replicated_runs) == (2, 1)

    def test_an_empty_fault_plan_is_no_plan(self):
        # An empty plan injects nothing, whatever its seed: its cases join
        # the plan-free class and its kernel row.
        plans = (None, FaultPlan(), FaultPlan(seed=5))
        result = run_batch(
            PhaseKing(9, 2), [BatchCase(1, fault_plan=plan) for plan in plans], strict=True
        )
        stats = result.stats
        assert (stats.unique_runs, stats.replicated_runs) == (1, 2)
        assert (stats.kernel_runs, stats.scalar_runs) == (1, 0)
        plan_free = result.outcomes[0].comparable()
        assert [outcome.comparable() for outcome in result.outcomes] == [plan_free] * 3

    def test_value_domain_is_validated_upfront(self):
        with pytest.raises(ConfigurationError, match="values in"):
            run_batch(get("algorithm-3")(9, 2), [0, 2])


class TestTracedCases:
    def test_strict_mode_writes_one_trace_of_the_engine_run(self, tmp_path, monkeypatch):
        opened = []
        sink_class = batch.JsonlTraceSink

        def sink(path):
            opened.append(path)
            return sink_class(path)

        monkeypatch.setattr(batch, "JsonlTraceSink", sink)
        path = tmp_path / "run.jsonl"
        cases = [BatchCase(value=1, trace=str(path)), BatchCase(value=1)]
        result = run_batch(PhaseKing(9, 2), cases, strict=True)
        # The strict re-run of the traced case writes no trace.
        assert opened == [str(path)]
        assert list(tmp_path.iterdir()) == [path]
        assert summarize_trace(path).consistency_errors() == []
        # A traced case runs on its own, through the runner; its untraced
        # twin takes the kernel.
        assert (result.stats.scalar_runs, result.stats.kernel_runs) == (1, 1)
        assert result.outcomes[0].comparable() == result.outcomes[1].comparable()


class TestKernels:
    @pytest.mark.parametrize("name,n,t", [("phase-king", 9, 2), ("oral-messages", 7, 2)])
    def test_kernel_matches_scalar_runner(self, name, n, t):
        result = run_batch(get(name)(n, t), [0, 1, 1, 0], strict=True)
        assert result.stats.kernel_runs == 2
        assert result.stats.scalar_runs == 0
        assert all(o.kernel for o in result.outcomes)
        assert all(o.agreement_ok for o in result.outcomes)

    def test_kernel_registered_for_known_algorithms(self):
        stated = set()
        for name in (*ALGORITHMS, *WORKLOADS, *STRAWMEN):
            n, t, params = FUZZ_CONFIGS[name]
            if get(name)(n, t, **params).fault_free_schedule() is not None:
                stated.add(name)
        assert stated == {"phase-king", "oral-messages"}

    def test_kernel_declines_subclasses(self):
        class TweakedPhaseKing(PhaseKing):
            pass

        assert TweakedPhaseKing(9, 2).fault_free_schedule() is None
        result = run_batch(TweakedPhaseKing(9, 2), [0, 1], strict=True)
        assert (result.stats.kernel_runs, result.stats.scalar_runs) == (0, 2)

    def test_kernel_declines_none_values(self):
        # Only the None class runs on the runner; the 0 class keeps the
        # closed form.
        result = run_batch(PhaseKing(9, 2), [0, None], strict=True)
        assert (result.stats.kernel_runs, result.stats.scalar_runs) == (1, 1)
        assert [o.kernel for o in result.outcomes] == [True, False]

    def test_kernel_decline_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setattr(PhaseKing, "fault_free_schedule", lambda self: None)
        result = run_batch(PhaseKing(9, 2), [0, 1, 0], strict=True)
        assert result.stats.kernel_runs == 0
        assert result.stats.scalar_runs == 2

    def test_strict_mode_catches_a_lying_kernel(self, monkeypatch):
        real = PhaseKing.fault_free_schedule

        def lying(self):
            (phase, count), *rest = real(self)
            return [(phase, count + 1), *rest]

        monkeypatch.setattr(PhaseKing, "fault_free_schedule", lying)
        with pytest.raises(BatchEquivalenceError, match="messages_by_correct"):
            run_batch(PhaseKing(9, 2), [0, 1], strict=True)

    def test_no_algorithm_module_imports_the_batch_engine(self):
        # The engine asks the algorithm for its schedule; an algorithm
        # never reaches back into the engine.
        importers = []
        for path in sorted(ALGORITHM_SOURCES.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module is not None:
                    modules = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
                else:
                    continue
                if "repro.core.batch" in modules:
                    importers.append(path.name)
        assert ALGORITHM_SOURCES.is_dir()
        assert importers == []

    def test_oral_messages_kernel_message_counts_hit_the_bound(self):
        algorithm = OralMessages(7, 2)
        outcome = run_batch(algorithm, [1]).outcomes[0]
        assert outcome.kernel
        assert outcome.messages_by_correct == algorithm.upper_bound_messages()


class TestVerdict:
    def test_declared_bounds_are_evaluated_once_per_batch(self, monkeypatch):
        # Evaluating a bound parses and compiles its expression; judging
        # each class with a fresh evaluation would cost more than the
        # kernel rows themselves.
        calls = []
        evaluate = AgreementAlgorithm.declared_bound

        def spy(self, declaration):
            calls.append(declaration)
            return evaluate(self, declaration)

        monkeypatch.setattr(AgreementAlgorithm, "declared_bound", spy)
        plans = [
            FaultPlan(faults=(CrashFault(pid=pid, phase=2),)) for pid in (1, 2, 3)
        ]
        result = run_batch(
            PhaseKing(9, 2),
            [*range(256), *(BatchCase(value=1, fault_plan=plan) for plan in plans)],
        )
        assert result.stats.unique_runs == 259
        assert all(o.agreement_ok for o in result.outcomes)
        assert len(calls) == len(set(calls)) <= 3, calls

    def test_each_kernel_row_is_judged_on_its_own_input(self):
        # Validity compares each decision with its own input, so the NaN
        # row and the 0 row are two verdicts, and both pass.
        result = run_batch(PhaseKing(9, 2), [float("nan"), 0], strict=True)
        assert result.stats.kernel_runs == 2
        assert [(o.kernel, o.kind) for o in result.outcomes] == [(True, "ok"), (True, "ok")]

    def test_confined_divergence_is_benign_with_text_ok(self):
        # The crashed transmitter keeps its own value while the others
        # decide the default: divergence confined to the excused.
        plan = FaultPlan(faults=(CrashFault(pid=0, phase=1),))
        (outcome,) = run_batch(
            DolevStrong(5, 1), [BatchCase(value=1, fault_plan=plan)], strict=True
        ).outcomes
        assert (outcome.kind, outcome.verdict, outcome.excused) == ("benign", "ok", (0,))
        assert outcome.agreement_ok


class TestSharedDigestTable:
    def test_digests_match_the_plain_service(self):
        table = SharedDigestTable()
        plain = SignatureService()
        interned = InternedSignatureService(table)
        payload = ("chain-link", 1, ())
        key_a = plain.key_for(0)
        key_b = interned.key_for(0)
        assert plain.sign(key_a, payload).digest == interned.sign(key_b, payload).digest

    def test_table_hits_accumulate_across_services(self):
        # The table keeps no totals: each service counts its own lookups.
        table = SharedDigestTable()
        payload = ("chain-link", 1, ())
        counts = []
        for _ in range(3):
            service = InternedSignatureService(table)
            service.sign(service.key_for(0), payload)
            counts.append((service.counters.digest_hits, service.counters.digest_misses))
        assert counts == [(0, 1), (1, 0), (1, 0)]
        assert not hasattr(table, "hits") and not hasattr(table, "misses")

    def test_uninternable_payloads_still_digest(self):
        table = SharedDigestTable()
        service = InternedSignatureService(table)
        signature = service.sign(service.key_for(0), (1, 2, 3))
        assert service.verify(signature, (1, 2, 3))


class TestChainVerdictCache:
    def test_issued_signatures_stay_per_run(self):
        # A chain signed under one run's service must not verify in another
        # run, even though both share the digest table.
        table = SharedDigestTable()
        run_one = InternedSignatureService(table)
        keys = {pid: run_one.key_for(pid) for pid in range(3)}
        chain = SignatureChain.initial(1, keys[0], run_one)
        chain = chain.extend(keys[1], run_one)
        assert chain.verify(run_one)
        run_two = InternedSignatureService(table)
        assert not chain.verify(run_two)

    def test_cached_verdict_answers_repeat_verifications(self):
        table = SharedDigestTable()
        service = InternedSignatureService(table)
        keys = {pid: service.key_for(pid) for pid in range(3)}
        chain = SignatureChain.initial(1, keys[0], service).extend(keys[1], service)
        assert chain.verify(service)
        counted = service.counters.counts()
        assert chain.verify(service)  # cached: no further digest work
        counted["chain_verify_calls"] += 1  # the repeat call itself
        assert service.counters.counts() == counted

    def test_forged_chains_are_rejected_despite_the_cache(self):
        table = SharedDigestTable()
        service = InternedSignatureService(table)
        keys = {0: service.key_for(0)}
        # An equal-valued *valid* chain first, to prime the cache with a
        # True verdict for a different signature tuple.
        valid = SignatureChain.initial(1, keys[0], service)
        assert valid.verify(service)
        forged = forge_chain(1, (0, 1), keys, service)
        assert not forged.verify(service)
        assert not forged.verify(service)  # still False on the second ask

    def test_false_verdicts_may_flip_to_true_after_signing(self):
        # Only True verdicts are cached: a chain that failed because the
        # signature was not yet issued must verify once it is.
        service = InternedSignatureService(SharedDigestTable())
        key = service.key_for(0)
        probe = SignatureChain.initial(1, key, service)
        impostor = SignatureChain(5, probe.signatures)
        assert not impostor.verify(service)
        real = SignatureChain.initial(5, key, service)
        assert real.verify(service)

    def test_default_service_does_not_cache(self):
        assert SignatureService.caches_chain_verdicts is False
        assert InternedSignatureService.caches_chain_verdicts is True

    def test_repeat_verify_of_an_immutable_chain_builds_no_key(self, monkeypatch):
        service = InternedSignatureService(SharedDigestTable())
        keys = {pid: service.key_for(pid) for pid in range(2)}
        chain = SignatureChain.initial(("v", 1), keys[0], service)
        chain = chain.extend(keys[1], service)
        built = []
        real = SignatureChain._verdict_key

        def counting(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(SignatureChain, "_verdict_key", counting)
        assert chain.verify(service)
        assert chain.verify(service)  # answered by identity
        assert built == [chain]
        twin = SignatureChain(("v", 1), chain.signatures)
        assert twin.verify(service)  # equal but distinct: answered by value
        assert len(built) == 2

    def test_mutated_list_value_gets_the_plain_answer(self):
        # A list value can change after the chain verified, so the chain
        # is not remembered by identity.
        answers = []
        for service in (
            SignatureService(),
            InternedSignatureService(SharedDigestTable()),
        ):
            keys = {pid: service.key_for(pid) for pid in range(2)}
            value = [1, 2]
            chain = SignatureChain.initial(value, keys[0], service)
            chain = chain.extend(keys[1], service)
            assert chain.verify(service)
            value.append(3)
            answers.append(chain.verify(service))
        assert answers == [False, False]


class TestFactories:
    def test_digest_table_can_be_shared_across_batches(self):
        table = SharedDigestTable()
        first = run_batch(DolevStrong(5, 1), [0, 1], table=table)
        second = run_batch(DolevStrong(5, 1), [0, 1], table=table)
        # The second batch re-uses the first batch's digests.
        assert first.stats.digest_misses > 0
        assert second.stats.digest_misses == 0
        assert second.stats.digest_hits == (
            first.stats.digest_hits + first.stats.digest_misses
        )
