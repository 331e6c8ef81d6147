"""Unit tests for the batch execution engine (repro.core.batch)."""

import dataclasses

import pytest

from repro.adversary.standard import RandomizedAdversary
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.oral_messages import OralMessages
from repro.algorithms.phase_king import PhaseKing
from repro.algorithms.registry import get
from repro.core.batch import (
    BatchCase,
    BatchEquivalenceError,
    batch_kernel_for,
    kernel_value_table,
    run_batch,
)
from repro.core.errors import ConfigurationError
from repro.core.protocol import AgreementAlgorithm
from repro.core.message import UninternableError
from repro.crypto.chains import SignatureChain, forge_chain
from repro.crypto.signatures import (
    InternedSignatureService,
    SharedDigestTable,
    SignatureService,
)
from repro.transport.faults import CrashFault, FaultPlan


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
        # Phase King decides the transmitter's raw value, so 1-vs-True
        # confusion in the kernel's value table would be visible here.
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

    def test_value_domain_is_validated_upfront(self):
        with pytest.raises(ConfigurationError, match="values in"):
            run_batch(get("algorithm-3")(9, 2), [0, 2])


class TestKernels:
    @pytest.mark.parametrize("name,n,t", [("phase-king", 9, 2), ("oral-messages", 7, 2)])
    def test_kernel_matches_scalar_runner(self, name, n, t):
        result = run_batch(get(name)(n, t), [0, 1, 1, 0], strict=True)
        assert result.stats.kernel_runs == 2
        assert result.stats.scalar_runs == 0
        assert all(o.kernel for o in result.outcomes)
        assert all(o.agreement_ok for o in result.outcomes)

    def test_kernel_registered_for_known_algorithms(self):
        assert batch_kernel_for("phase-king") is not None
        assert batch_kernel_for("oral-messages") is not None
        assert batch_kernel_for("dolev-strong") is None

    def test_kernel_declines_subclasses(self):
        class TweakedPhaseKing(PhaseKing):
            pass

        kernel = batch_kernel_for("phase-king")
        assert kernel(TweakedPhaseKing(9, 2), [0, 1]) is None

    def test_kernel_declines_none_values(self):
        kernel = batch_kernel_for("phase-king")
        assert kernel(PhaseKing(9, 2), [0, None]) is None

    def test_kernel_decline_falls_back_to_scalar(self, monkeypatch):
        from repro.core import batch as batch_module

        monkeypatch.setitem(
            batch_module._KERNELS, "phase-king", lambda algorithm, values: None
        )
        result = run_batch(PhaseKing(9, 2), [0, 1, 0], strict=True)
        assert result.stats.kernel_runs == 0
        assert result.stats.scalar_runs == 2

    def test_strict_mode_catches_a_lying_kernel(self, monkeypatch):
        from repro.core import batch as batch_module

        real = batch_module._KERNELS["phase-king"]

        def lying(algorithm, values):
            outcomes = real(algorithm, values)
            return [
                dataclasses.replace(o, messages_by_correct=o.messages_by_correct + 1)
                for o in outcomes
            ]

        monkeypatch.setitem(batch_module._KERNELS, "phase-king", lying)
        with pytest.raises(BatchEquivalenceError, match="messages_by_correct"):
            run_batch(PhaseKing(9, 2), [0, 1], strict=True)

    def test_oral_messages_kernel_message_counts_hit_the_bound(self):
        algorithm = OralMessages(7, 2)
        outcome = run_batch(algorithm, [1]).outcomes[0]
        assert outcome.kernel
        assert outcome.messages_by_correct == algorithm.upper_bound_messages()

    def test_value_table_orders_by_repr_and_tags_types(self):
        table, indices, default_index = kernel_value_table([1, True, 0], 0)
        assert table == [0, 1, True]
        assert indices == [1, 2, 0]
        assert default_index == 0
        with pytest.raises(UninternableError):
            kernel_value_table([object()], 0)


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
        table = SharedDigestTable()
        payload = ("chain-link", 1, ())
        for _ in range(3):
            service = InternedSignatureService(table)
            service.sign(service.key_for(0), payload)
        assert table.hits == 2
        assert table.misses == 1
        assert table.hit_rate == pytest.approx(2 / 3)

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
        hits_before = service.digest_memo_hits + table.hits
        assert chain.verify(service)  # cached: no further digest work
        assert service.digest_memo_hits + table.hits == hits_before

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


class TestFactories:
    def test_factory_argument_builds_one_arena(self):
        result = run_batch(lambda: DolevStrong(5, 1), [0, 1, 0], strict=True)
        assert result.stats.runs == 3
        assert result.stats.unique_runs == 2

    def test_digest_table_can_be_shared_across_batches(self):
        table = SharedDigestTable()
        run_batch(DolevStrong(5, 1), [0, 1], table=table)
        first_misses = table.misses
        run_batch(DolevStrong(5, 1), [0, 1], table=table)
        # The second batch re-uses the first batch's digests.
        assert table.misses == first_misses
