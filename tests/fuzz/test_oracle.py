"""Oracle verdicts: OK / SAFETY / BOUND / CRASH, and their precedence."""

import pytest

from repro.algorithms.dolev_strong import DolevStrong
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.runner import run
from repro.core.validation import BENIGN, BOUND, CRASH, OK, SAFETY
from repro.fuzz.oracle import execute_script
from repro.fuzz.script import AdversaryScript
from repro.transport.faults import CrashFault, FaultPlan

pytestmark = pytest.mark.fuzz


class _SplitBrain(Processor):
    """Scratch processor violating agreement: decides its own pid's parity."""

    def on_phase(self, phase, inbox):
        return []

    def decision(self):
        return self.ctx.pid % 2


class SplitBrainAlgorithm(AgreementAlgorithm):
    name = "scratch-split-brain"
    authenticated = False
    value_domain = frozenset({0, 1})
    phase_bound = "1"
    message_bound = "0"

    def num_phases(self):
        return 1

    def make_processor(self, pid):
        return _SplitBrain()


class _Exploding(Processor):
    def on_phase(self, phase, inbox):
        raise RuntimeError("scratch processor explosion")

    def decision(self):
        return None


class ExplodingAlgorithm(AgreementAlgorithm):
    name = "scratch-exploding"
    authenticated = False
    value_domain = frozenset({0, 1})

    def num_phases(self):
        return 1

    def make_processor(self, pid):
        return _Exploding()


class UnderDeclaredDolevStrong(DolevStrong):
    """Dolev-Strong with a deliberately impossible message budget."""

    name = "scratch-under-declared"
    message_bound = "1"


EMPTY = AdversaryScript(faulty=(1,))  # one faulty pid, zero mutations


class TestVerdicts:
    def test_fault_free_script_is_ok(self):
        outcome = execute_script(DolevStrong(5, 1), 1, EMPTY)
        assert outcome.verdict == OK
        assert not outcome.failed
        assert outcome.messages > 0

    def test_agreement_violation_is_safety(self):
        outcome = execute_script(SplitBrainAlgorithm(4, 1), 1, EMPTY)
        assert outcome.verdict == SAFETY
        assert outcome.failed

    def test_exceeded_declared_bound_is_bound(self):
        outcome = execute_script(UnderDeclaredDolevStrong(5, 1), 1, EMPTY)
        assert outcome.verdict == BOUND
        assert "declared bound 1" in outcome.detail

    def test_runner_exception_is_crash(self):
        outcome = execute_script(ExplodingAlgorithm(4, 1), 1, EMPTY)
        assert outcome.verdict == CRASH
        assert "RuntimeError" in outcome.detail

    def test_safety_takes_precedence_over_bound(self):
        # SplitBrain also busts its (zero) message bound in spirit; the
        # verdict must still be the more severe SAFETY.
        outcome = execute_script(SplitBrainAlgorithm(4, 1), 0, EMPTY)
        assert outcome.verdict == SAFETY

    def test_counts_reported_on_ok_runs(self):
        algorithm = DolevStrong(5, 1)
        result = run(algorithm, 1, EMPTY.build())
        outcome = execute_script(algorithm, 1, EMPTY)
        assert outcome.verdict == OK
        assert outcome.messages == result.metrics.messages_by_correct
        assert outcome.signatures == result.metrics.signatures_by_correct
        assert outcome.phases_used == result.metrics.last_active_phase


class TestBatchEngine:
    def test_script_runs_as_one_batch_case(self, monkeypatch):
        import repro.fuzz.oracle as oracle

        calls = []
        real = oracle.run_batch

        def spy(algorithm, cases, **kwargs):
            calls.append(list(cases))
            return real(algorithm, calls[-1], **kwargs)

        monkeypatch.setattr(oracle, "run_batch", spy)
        plan = FaultPlan(faults=(CrashFault(pid=2, phase=2),))
        outcome = execute_script(DolevStrong(5, 1), 1, EMPTY, fault_plan=plan)
        (cases,) = calls
        (case,) = cases
        assert case.value == 1 and case.fault_plan == plan
        assert case.adversary_factory is not None and case.trace is None
        assert case.adversary_factory(DolevStrong(5, 1)).faulty == {1}
        # pid 1 faulty and pid 2 crashed: two faults against t=1.
        assert outcome.verdict == BENIGN

    def test_trace_path_records_the_run(self, tmp_path):
        from repro.obs.inspect import summarize_trace

        path = tmp_path / "run.trace.jsonl"
        outcome = execute_script(DolevStrong(5, 1), 1, EMPTY, trace=str(path))
        summary = summarize_trace(path)
        assert summary.consistency_errors() == []
        assert summary.messages_by_correct == outcome.messages

    def test_crashed_run_leaves_a_truncated_trace(self, tmp_path):
        path = tmp_path / "crash.trace.jsonl"
        outcome = execute_script(ExplodingAlgorithm(4, 1), 1, EMPTY, trace=str(path))
        assert outcome.verdict == CRASH
        assert path.exists() and "run_end" not in path.read_text()
