"""Tests for Algorithm 1 (Theorem 3): n = 2t+1, t+2 phases, ≤ 2t²+2t msgs."""

import pytest

from repro.adversary.standard import (
    CrashAdversary,
    EquivocatingTransmitter,
    GarbageAdversary,
    ScriptedAdversary,
    SilentAdversary,
)
from repro.algorithms.algorithm1 import Algorithm1
from repro.bounds.formulas import theorem3_message_upper_bound, theorem3_phases
from repro.core.errors import ConfigurationError
from repro.core.runner import run
from repro.core.validation import check_byzantine_agreement
from repro.crypto.chains import SignatureChain


class TestConfiguration:
    @pytest.mark.parametrize("n,t", [(4, 1), (5, 1), (7, 2), (5, 0)])
    def test_rejects_anything_but_n_equals_2t_plus_1(self, n, t):
        if n != 2 * t + 1 or t < 1:
            with pytest.raises(ConfigurationError):
                Algorithm1(n, t)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_phase_count_matches_theorem3(self, t):
        assert Algorithm1(2 * t + 1, t).num_phases() == theorem3_phases(t)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_message_bound_matches_theorem3(self, t):
        assert (
            Algorithm1(2 * t + 1, t).upper_bound_messages()
            == theorem3_message_upper_bound(t)
        )


class TestFaultFree:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("value", [0, 1])
    def test_agreement_and_validity(self, t, value):
        result = run(Algorithm1(2 * t + 1, t), value)
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == value

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_value_one_hits_the_bound_exactly(self, t):
        """The fault-free 1-history is the worst case: exactly 2t² + 2t."""
        result = run(Algorithm1(2 * t + 1, t), 1)
        assert result.metrics.messages_by_correct == 2 * t * t + 2 * t

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_value_zero_sends_only_the_broadcast(self, t):
        """0 is never relayed — only the transmitter's 2t messages flow."""
        result = run(Algorithm1(2 * t + 1, t), 0)
        assert result.metrics.messages_by_correct == 2 * t

    def test_relay_structure_is_bipartite_plus_transmitter(self):
        """Algorithm 1's fault-free communication pattern: the transmitter
        fans out, and all relays cross sides."""
        result = run(Algorithm1(7, 3), 1)
        relay_graph = result.processors[1].graph
        edges = [edge for phase in result.history.phases[1:] for edge in phase.edges()]
        assert edges
        for edge in edges:
            assert relay_graph.has_edge(edge.src, edge.dst), (edge.src, edge.dst)


class TestByzantineResilience:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_equivocating_transmitter(self, t):
        n = 2 * t + 1
        adversary = EquivocatingTransmitter(
            0, {q: (1 if q == 1 else 0) for q in range(1, n)}
        )
        result = run(Algorithm1(n, t), 0, adversary)
        assert check_byzantine_agreement(result).ok

    @pytest.mark.parametrize("t", [2, 3])
    def test_silent_side_a(self, t):
        n = 2 * t + 1
        result = run(Algorithm1(n, t), 1, SilentAdversary(list(range(1, t + 1))))
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1

    def test_transmitter_sends_one_only_to_one_side(self):
        """A faulty transmitter telling only side A still converges: A
        relays to B within the phase budget."""
        t = 2
        adversary = EquivocatingTransmitter(0, {1: 1, 2: 1, 3: 0, 4: 0})
        result = run(Algorithm1(5, t), 0, adversary)
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1

    def test_garbage_resilience(self):
        result = run(Algorithm1(7, 3), 1, GarbageAdversary([1, 4]))
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1

    def test_crash_chain_mid_relay(self):
        result = run(Algorithm1(7, 3), 1, CrashAdversary({1: 2, 4: 3, 2: 4}))
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1


class TestCorrectOneMessageValidation:
    def test_same_side_path_rejected(self):
        """A chain whose signers hop within one side is not a path in G."""

        def script(view, env):
            if view.phase != 2:
                return []
            chain = SignatureChain(1)
            chain = chain.extend(env.keys[0], env.service)
            chain = chain.extend(env.keys[1], env.service)
            # 1 and 2 are both in A — (1, 2) is not an edge of G; target 2's
            # neighbour check must reject the extended path.
            return [(1, 2, chain)]

        result = run(Algorithm1(5, 2), 0, ScriptedAdversary([0, 1], script))
        assert result.decisions[2] == 0

    def test_wrong_length_chain_rejected(self):
        """A phase-k correct 1-message needs exactly k signatures."""

        def script(view, env):
            if view.phase != 3:
                return []
            chain = SignatureChain.initial(1, env.keys[0], env.service)
            return [(0, q, chain) for q in range(1, env.n)]  # 1 sig at phase 3

        result = run(Algorithm1(5, 2), 0, ScriptedAdversary([0], script))
        assert all(v == 0 for v in result.decisions.values())

    def test_forged_signature_rejected(self):
        def script(view, env):
            if view.phase != 1:
                return []
            from repro.crypto.chains import chain_body

            fake = env.service.forge(0, chain_body(1, ()))
            chain = SignatureChain(1, (fake,))
            return [(1, q, chain) for q in range(2, env.n)]

        result = run(Algorithm1(5, 2), 0, ScriptedAdversary([0, 1], script))
        assert all(v == 0 for v in result.decisions.values())

    def test_value_zero_chain_never_relayed(self):
        """Only 1-messages propagate; a signed 0 is not a correct 1-message."""
        result = run(Algorithm1(5, 2), 0)
        relays = [
            e
            for k, phase in enumerate(result.history.phases)
            if k >= 2
            for e in phase.edges()
        ]
        assert relays == []


class TestDecisionTiming:
    def test_delayed_release_still_reaches_everyone_by_t_plus_2(self):
        """Theorem 3's hard case: faulty processors release the value as
        late as possible; relays must still cover everybody by phase t+2,
        with the final deliveries arriving through ``on_final``."""
        t = 2  # n = 5, A = {1, 2}, B = {3, 4}, faulty = {0, 3}

        def script(view, env):
            if view.phase == 1:
                # faulty transmitter whispers 1 only to its accomplice 3.
                chain = SignatureChain.initial(1, env.keys[0], env.service)
                return [(0, 3, chain)]
            if view.phase == 2:
                # accomplice 3 (side B) extends and releases only to 1.
                chain = SignatureChain.initial(1, env.keys[0], env.service)
                chain = chain.extend(env.keys[3], env.service)
                return [(3, 1, chain)]
            return []

        result = run(Algorithm1(5, t), 0, ScriptedAdversary([0, 3], script))
        # 1 accepts (0,3)-chain at phase 3 and relays (0,3,1) to B; 4
        # accepts at phase 4 and relays (0,3,1,4) to A; 2 accepts it in
        # on_final. Everyone correct must land on 1.
        assert check_byzantine_agreement(result).ok
        assert result.unanimous_value() == 1
