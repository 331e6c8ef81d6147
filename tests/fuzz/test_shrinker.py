"""Shrinking: the acceptance demo from the issue.

A scratch algorithm with a deliberately injected agreement bug (processors
trust the first voice they hear, with no echo round) must be caught by a
seeded campaign and shrunk to a small counterexample that replays from its
JSON serialisation.
"""

import json

import pytest

from repro.core.message import Envelope
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.validation import OK, SAFETY
from repro.fuzz.generator import generate_script
from repro.fuzz.oracle import execute_script
from repro.fuzz.script import AdversaryScript
from repro.fuzz.shrinker import shrink_script

pytestmark = pytest.mark.fuzz


class _GullibleProcessor(Processor):
    """Decides on the first payload it hears from the transmitter.

    The injected bug: no cross-checking round, so a two-faced transmitter
    (or one sending junk to a subset) splits the correct processors.
    """

    def __init__(self):
        self._heard = None

    def on_phase(self, phase, inbox):
        if self.ctx.pid == self.ctx.transmitter:
            if phase == 1:
                value = next(e.payload for e in inbox if e.is_input_edge())
                self._heard = value
                return [(q, value) for q in self.ctx.others()]
            return []
        for envelope in inbox:
            if envelope.src == self.ctx.transmitter and self._heard is None:
                self._heard = envelope.payload
        return []

    def decision(self):
        return self._heard if self._heard is not None else 0


class GullibleAlgorithm(AgreementAlgorithm):
    """Scratch single-round broadcast with no agreement safeguard."""

    name = "scratch-gullible"
    authenticated = False
    value_domain = frozenset({0, 1})
    phase_bound = "2"
    message_bound = "n - 1"

    def num_phases(self):
        return 2

    def make_processor(self, pid):
        return _GullibleProcessor()


N, T = 5, 1


def _run_candidate(script):
    return execute_script(GullibleAlgorithm(N, T), 1, script)


class TestInjectedBugIsCaughtAndShrunk:
    def _find_failure(self):
        for seed in range(400):
            script = generate_script(
                seed, n=N, t=T, num_phases=2, value_domain=(0, 1)
            )
            outcome = _run_candidate(script)
            if outcome.verdict == SAFETY:
                return seed, script, outcome
        pytest.fail("seeded campaign never caught the injected agreement bug")

    def test_campaign_finds_the_bug(self):
        _, _, outcome = self._find_failure()
        assert outcome.verdict == SAFETY

    def test_shrinks_to_at_most_three_mutations(self):
        _, script, outcome = self._find_failure()

        def reproduce(candidate):
            return _run_candidate(candidate).verdict == outcome.verdict

        shrunk = shrink_script(script, reproduce, num_phases=2)
        assert len(shrunk.mutations) <= 3
        assert len(shrunk.faulty) == 1
        assert shrunk.size <= script.size
        # still failing after minimisation
        assert _run_candidate(shrunk).verdict == SAFETY

    def test_shrunk_counterexample_replays_from_json(self, tmp_path):
        _, script, outcome = self._find_failure()

        def reproduce(candidate):
            return _run_candidate(candidate).verdict == outcome.verdict

        shrunk = shrink_script(script, reproduce, num_phases=2)
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(shrunk.to_json_dict(), indent=2))

        reloaded = AdversaryScript.from_json_dict(json.loads(path.read_text()))
        assert reloaded == shrunk
        assert _run_candidate(reloaded).verdict == SAFETY


class TestShrinkerMechanics:
    def test_fault_free_script_not_shrinkable(self):
        script = AdversaryScript(faulty=(1,))
        outcome = _run_candidate(script)
        assert outcome.verdict == OK

    def test_shrinker_respects_reproducer(self):
        # A reproducer that only accepts the original script: no shrinking.
        _, script, _ = TestInjectedBugIsCaughtAndShrunk()._find_failure()
        shrunk = shrink_script(
            script, lambda candidate: candidate == script, num_phases=2
        )
        assert shrunk == script

    def test_attempt_budget_respected(self):
        calls = {"count": 0}
        _, script, outcome = TestInjectedBugIsCaughtAndShrunk()._find_failure()

        def counting(candidate):
            calls["count"] += 1
            return _run_candidate(candidate).verdict == outcome.verdict

        shrink_script(script, counting, num_phases=2, max_attempts=5)
        assert calls["count"] <= 5
