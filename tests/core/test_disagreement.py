"""DisagreementError: structured disagreement instead of string matching."""

import pytest

from repro.approx.validation import SAFETY
from repro.core.errors import DisagreementError, ReproError
from repro.core.runner import run
from tests.fuzz.test_oracle import SplitBrainAlgorithm


class TestDisagreementError:
    def run_split_brain(self):
        return run(SplitBrainAlgorithm(4, 1), 1)

    def test_unanimous_value_raises_with_decisions(self):
        result = self.run_split_brain()
        with pytest.raises(DisagreementError) as excinfo:
            result.unanimous_value()
        assert excinfo.value.decisions == dict(result.decisions)

    def test_is_a_value_error_and_repro_error(self):
        # Existing callers catch ValueError (some match on 'disagree');
        # both must keep working.
        error = DisagreementError({0: 0, 1: 1})
        assert isinstance(error, ValueError)
        assert isinstance(error, ReproError)
        assert "disagree" in str(error)

    def test_message_lists_the_conflicting_values(self):
        error = DisagreementError({0: 0, 1: 1, 2: 0})
        assert "0" in str(error) and "1" in str(error)

    def test_decisions_are_a_defensive_copy(self):
        decisions = {0: 0, 1: 1}
        error = DisagreementError(decisions)
        decisions[0] = 99
        assert error.decisions == {0: 0, 1: 1}

    def test_agreeing_run_returns_value(self):
        from repro.algorithms.registry import get

        result = run(get("dolev-strong")(4, 1), 1)
        assert result.unanimous_value() == 1

    def test_oracle_uses_structured_comparison(self):
        # The oracle's verdict for a split brain is SAFETY whether or not
        # anyone inspects the exception message.
        from repro.fuzz.oracle import classify_run

        algorithm = SplitBrainAlgorithm(4, 1)
        outcome = classify_run(algorithm, run(algorithm, 1))
        assert outcome.verdict == SAFETY
