"""Tests for the BA condition checker (repro.core.validation)."""

import pytest

from repro.algorithms.algorithm4 import Algorithm4
from repro.algorithms.dolev_strong import DolevStrong
from repro.algorithms.hub_exchange import HubExchange
from repro.algorithms.interactive import InteractiveConsistency
from repro.algorithms.registry import get
from repro.analysis.sweep import measure
from repro.core.errors import ValidationError
from repro.core.history import History
from repro.core.metrics import MetricsLedger
from repro.core.runner import RunResult
from repro.core.validation import check_byzantine_agreement, require_agreement


def make_result(
    decisions: dict[int, object],
    *,
    n: int = 4,
    faulty: frozenset[int] = frozenset(),
    input_value=1,
) -> RunResult:
    return RunResult(
        algorithm_name="stub",
        n=n,
        t=1,
        transmitter=0,
        input_value=input_value,
        correct=frozenset(range(n)) - faulty,
        faulty=faulty,
        decisions=decisions,
        metrics=MetricsLedger(),
        history=History.with_input(0, input_value),
    )


class TestAgreementCondition:
    def test_unanimous_is_ok(self):
        report = check_byzantine_agreement(make_result({0: 1, 1: 1, 2: 1, 3: 1}))
        assert report.ok and report.agreement and report.validity

    def test_split_decisions_violate_agreement(self):
        report = check_byzantine_agreement(make_result({0: 1, 1: 1, 2: 0, 3: 1}))
        assert not report.agreement
        assert any("agreement" in v for v in report.violations)

    def test_undecided_processor_flagged(self):
        report = check_byzantine_agreement(make_result({0: 1, 1: None, 2: 1, 3: 1}))
        assert not report.all_decided
        assert not report.ok


class TestValidityCondition:
    def test_correct_transmitter_imposes_its_value(self):
        report = check_byzantine_agreement(make_result({0: 0, 1: 0, 2: 0, 3: 0}))
        assert not report.validity  # input was 1

    def test_faulty_transmitter_lifts_validity(self):
        result = make_result({1: 0, 2: 0, 3: 0}, faulty=frozenset({0}))
        report = check_byzantine_agreement(result)
        assert report.validity and report.ok

    def test_validity_naming_is_informative(self):
        report = check_byzantine_agreement(make_result({0: 1, 1: 0, 2: 0, 3: 0}))
        assert any("validity" in v for v in report.violations)

    def test_a_decision_matches_the_input_as_a_set_member_does(self):
        # By identity first, then by equality: the input NaN object itself
        # is valid, another NaN is not, and True still matches 1.
        nan = float("nan")
        decided = make_result({0: nan, 1: nan, 2: nan, 3: nan}, input_value=nan)
        assert check_byzantine_agreement(decided).ok
        other = make_result({0: nan, 1: nan, 2: nan, 3: nan}, input_value=float("nan"))
        assert not check_byzantine_agreement(other).validity
        assert check_byzantine_agreement(make_result({0: True, 1: 1, 2: 1, 3: True})).ok

    @pytest.mark.parametrize(
        "name,n,t", [("oral-messages", 7, 2), ("dolev-strong", 6, 2)], ids=["kernel", "scalar"]
    )
    def test_a_nan_input_every_processor_decided_is_valid(self, name, n, t):
        assert measure(get(name)(n, t), float("nan")).agreement_ok


class TestExchangeConditions:
    """Exchange algorithms are judged by their own conditions, not BA's."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HubExchange(7, 2, {pid: pid for pid in range(7)}),
            lambda: Algorithm4(3, 1, {pid: pid for pid in range(9)}),
            lambda: InteractiveConsistency(
                5, 1, values=range(5), inner_factory=DolevStrong
            ),
        ],
        ids=["hub-exchange", "algorithm-4", "interactive-consistency"],
    )
    def test_a_fault_free_run_passes(self, build):
        assert measure(build(), 0).agreement_ok


class TestRequireAgreement:
    def test_passes_silently_when_ok(self):
        require_agreement(make_result({0: 1, 1: 1, 2: 1, 3: 1}))

    def test_raises_with_details(self):
        with pytest.raises(ValidationError, match="agreement"):
            require_agreement(make_result({0: 1, 1: 0, 2: 1, 3: 1}))


class TestReportRendering:
    def test_ok_report_str(self):
        report = check_byzantine_agreement(make_result({0: 1, 1: 1, 2: 1, 3: 1}))
        assert "holds" in str(report)

    def test_violation_report_str_lists_everything(self):
        report = check_byzantine_agreement(make_result({0: 1, 1: 0, 2: None, 3: 1}))
        text = str(report)
        assert "agreement" in text and "never decided" in text
