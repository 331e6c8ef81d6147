"""ScriptAdversary execution: the equivocating twin runs like its original."""

import pytest

from repro.algorithms.registry import get
from repro.approx.coins import coins_for
from repro.core.runner import run
from repro.fuzz.mutations import Equivocate
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
        result = run(algorithm, 1, adversary, coins=coins_for(algorithm, 5))
        assert adversary._alt_wedged == set()
        sent = result.history.edges_sent_by(tx)
        phases = {phase for phase, _ in sent}
        assert len(phases) > 3
        for phase in phases:
            parities = {edge.dst % 2 for k, edge in sent if k == phase}
            assert parities == {0, 1}, f"phase {phase}: only parities {parities}"
