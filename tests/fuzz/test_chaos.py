"""Chaos campaigns: benign fault plans through the fuzz pipeline."""

import json

import pytest

from repro.algorithms.registry import get
from repro.analysis.parallel import run_tasks
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.runner import run
from repro.core.validation import BENIGN, OK, SAFETY
from repro.fuzz.campaign import (
    FuzzCase,
    plan_cases,
    summarize,
)
from repro.fuzz.corpus import CorpusEntry, load_entry, save_entry
from repro.fuzz.oracle import execute_script
from repro.fuzz.script import AdversaryScript
from repro.transport.faults import CrashFault, FaultPlan
from repro.transport.faulty import FaultyTransport

pytestmark = pytest.mark.fuzz


class _ChattySplit(Processor):
    """Broadcasts every phase, then decides its own pid's parity — a
    split brain whose traffic gives delivery faults something to drop."""

    def on_phase(self, phase, inbox):
        return [
            (dst, "ping") for dst in range(self.ctx.n) if dst != self.ctx.pid
        ]

    def decision(self):
        return self.ctx.pid % 2


class ChattySplitBrain(AgreementAlgorithm):
    name = "scratch-chatty-split-brain"
    authenticated = False
    value_domain = frozenset({0, 1})

    def num_phases(self):
        return 2

    def make_processor(self, pid):
        return _ChattySplit()


class TestPlanChaosCases:
    """``plan_cases`` with a ``fault_rate``: the chaos campaign."""

    def test_deterministic_in_arguments(self):
        kwargs = dict(budget=5, seed=3, fault_rate=0.4)
        a = plan_cases(["dolev-strong"], **kwargs)
        b = plan_cases(["dolev-strong"], **kwargs)
        assert a == b
        assert a != plan_cases(["dolev-strong"], budget=5, seed=4, fault_rate=0.4)

    def test_cases_carry_plans_and_empty_scripts(self):
        cases = plan_cases(["dolev-strong"], budget=4, seed=0, fault_rate=0.5)
        assert len(cases) == 4
        for case in cases:
            assert case.script == AdversaryScript(faulty=())
            assert case.fault_plan is not None and not case.fault_plan.is_empty

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError, match="no fuzz configuration"):
            plan_cases(["nonesuch"], budget=1, seed=0, fault_rate=0.5)


class TestChaosOracle:
    def test_injected_crash_is_benign_not_safety(self):
        algorithm = get("dolev-strong")(6, 2)
        plan = FaultPlan(faults=(CrashFault(pid=2, phase=1),))
        outcome = execute_script(
            algorithm, 1, AdversaryScript(faulty=()), fault_plan=plan
        )
        assert outcome.verdict in (OK, BENIGN)
        assert not outcome.failed

    def test_empty_plan_behaves_like_no_plan(self):
        algorithm = get("dolev-strong")(6, 2)
        with_plan = execute_script(
            algorithm, 1, AdversaryScript(faulty=()), fault_plan=FaultPlan()
        )
        without = execute_script(algorithm, 1, AdversaryScript(faulty=()))
        assert with_plan == without
        assert with_plan.verdict == OK

    def test_divergence_among_unexcused_is_safety(self):
        algorithm = ChattySplitBrain(6, 2)
        # pid 5 crashes; the split-brain disagreement among pids 0-4 is
        # NOT attributable to that fault, so it must stay a safety finding.
        plan = FaultPlan(faults=(CrashFault(pid=5, phase=1),))
        result = run(algorithm, 1, transport=FaultyTransport(plan))
        assert result.fault_events
        outcome = execute_script(
            algorithm, 1, AdversaryScript(faulty=()), fault_plan=plan
        )
        assert outcome.verdict == SAFETY

    def test_divergence_past_the_fault_budget_is_benign(self):
        algorithm = ChattySplitBrain(6, 2)
        # Three crashed processors exceed t=2: guarantees no longer bind,
        # so even a split brain reads as benign over-faulting.
        plan = FaultPlan(
            faults=tuple(CrashFault(pid=p, phase=1) for p in (3, 4, 5))
        )
        outcome = execute_script(
            algorithm, 1, AdversaryScript(faulty=()), fault_plan=plan
        )
        assert outcome.verdict == BENIGN
        assert "budget" in outcome.detail

    def test_campaign_smoke_counts_benign(self):
        cases = plan_cases(["dolev-strong"], budget=10, seed=0, fault_rate=0.5)
        results = run_tasks(cases, workers=1)
        (summary,) = summarize(results)
        assert summary.cases == 10
        assert summary.safety == summary.bound == summary.crash == 0
        assert summary.ok + summary.benign == 10
        row = summary.as_row()
        assert row["benign"] == summary.benign

    def test_chaos_worker_count_invariance(self):
        cases = plan_cases(["dolev-strong"], budget=6, seed=1, fault_rate=0.5)
        serial = run_tasks(cases, workers=1)
        parallel = run_tasks(cases, workers=2)
        assert [r.outcome for r in serial] == [r.outcome for r in parallel]


class TestChaosCorpus:
    def entry(self):
        return CorpusEntry(
            case=FuzzCase(
                algorithm="dolev-strong",
                n=6,
                t=2,
                value=1,
                seed=11,
                script=AdversaryScript(faulty=()),
                fault_plan=FaultPlan(
                    faults=(CrashFault(pid=2, phase=1),), seed=11
                ),
            ),
            verdict=BENIGN,
            detail="test entry",
        )

    def test_fault_plan_round_trips(self, tmp_path):
        path = save_entry(tmp_path, self.entry())
        loaded = load_entry(path)
        assert loaded == self.entry()

    def test_pre_fault_corpus_files_still_load(self, tmp_path):
        data = self.entry().to_json_dict()
        del data["fault_plan"]
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data))
        assert load_entry(path).case.fault_plan is None

    def test_plain_entries_omit_the_field(self):
        data = CorpusEntry(
            case=FuzzCase(
                algorithm="dolev-strong",
                n=6,
                t=2,
                value=1,
                seed=0,
                script=AdversaryScript(faulty=(1,)),
            ),
            verdict="safety",
            detail="",
        ).to_json_dict()
        assert "fault_plan" not in data


class TestFuzzCasePickles:
    def test_chaos_case_round_trips_through_pickle(self):
        import pickle

        (case,) = plan_cases(
            ["dolev-strong"], budget=1, seed=0, fault_rate=0.5
        )
        assert pickle.loads(pickle.dumps(case)) == case
        assert isinstance(case, FuzzCase)
