"""ScriptAdversary execution: the equivocating twin runs like its original,
and a simulated instance that raises is retired and counted."""

import pytest

from repro.algorithms.dolev_strong import DolevStrong, DolevStrongProcessor
from repro.algorithms.registry import get
from repro.core.runner import run
from repro.core.validation import OK
from repro.fuzz.mutations import Equivocate
from repro.fuzz.oracle import execute_script
from repro.fuzz.script import AdversaryScript

pytestmark = pytest.mark.fuzz


class TestEquivocationTwin:
    def test_coin_flipping_twin_runs_to_the_end(self):
        # Ben-Or's processors flip coins from phase 3 on.  A twin bound
        # without the run's coin source raised there and was retired, so
        # the transmitter's odd destinations heard nothing in that phase
        # and the plain protocol afterwards: equivocation stopped after
        # phase 2.
        algorithm = get("ben-or")(6, 1, max_rounds=8)
        tx = algorithm.transmitter
        adversary = AdversaryScript(
            faulty=(tx,),
            mutations=(
                Equivocate(pid=tx, phase_from=1, phase_to=8, alt_value=0, parity=1),
            ),
        ).build()
        result = run(algorithm, 1, adversary, coins=algorithm.coin_source(5))
        assert adversary._alt_wedged == set()
        sent = result.history.edges_sent_by(tx)
        phases = {phase for phase, _ in sent}
        assert len(phases) > 3
        for phase in phases:
            parities = {edge.dst % 2 for k, edge in sent if k == phase}
            assert parities == {0, 1}, f"phase {phase}: only parities {parities}"


class _RaisesAtPhase2(DolevStrongProcessor):
    def on_phase(self, phase, inbox):
        if phase == 2:
            raise RuntimeError("scratch simulation failure")
        return super().on_phase(phase, inbox)


class RaisingTransmitterDolevStrong(DolevStrong):
    """Dolev-Strong whose transmitter raises at phase 2.  Every script below
    corrupts the transmitter, so only its simulated instances raise."""

    name = "scratch-raising-transmitter"

    def make_processor(self, pid):
        if pid == self.transmitter:
            return _RaisesAtPhase2(t=self.t, default=self.default)
        return super().make_processor(pid)


class TestRetirement:
    def script(self, *mutations):
        return AdversaryScript(faulty=(0,), mutations=mutations)

    def test_a_raising_simulation_is_retired_and_counted(self):
        outcome = execute_script(RaisingTransmitterDolevStrong(5, 2), 1, self.script())
        assert (outcome.verdict, outcome.retired) == (OK, 1)

    def test_the_equivocation_twin_is_counted_too(self):
        twin = Equivocate(pid=0, phase_from=1, phase_to=3, alt_value=0, parity=1)
        outcome = execute_script(RaisingTransmitterDolevStrong(5, 2), 1, self.script(twin))
        assert (outcome.verdict, outcome.retired) == (OK, 2)

    def test_nothing_raises_nothing_is_retired(self):
        twin = Equivocate(pid=0, phase_from=1, phase_to=3, alt_value=0, parity=1)
        outcome = execute_script(DolevStrong(5, 2), 1, self.script(twin))
        assert (outcome.verdict, outcome.retired) == (OK, 0)
