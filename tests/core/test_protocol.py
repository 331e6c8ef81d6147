"""Tests for contexts and the algorithm base class (repro.core.protocol)."""

import pytest

from repro.core.protocol import AgreementAlgorithm, Processor
from repro.crypto.signatures import SignatureService
from tests.conftest import make_context


class TestContext:
    def test_sign_and_verify_roundtrip(self):
        ctx = make_context(pid=2)
        signature = ctx.sign("payload")
        assert signature.signer == 2
        assert ctx.verify(signature, "payload")

    def test_verify_other_processors_signatures(self):
        service = SignatureService()
        alice = make_context(pid=1, service=service)
        bob = make_context(pid=2, service=service)
        signature = alice.sign("hello")
        assert bob.verify(signature, "hello")

    def test_verify_rejects_wrong_payload(self):
        ctx = make_context()
        signature = ctx.sign("a")
        assert not ctx.verify(signature, "b")

    def test_others_excludes_self(self):
        ctx = make_context(pid=1, n=4)
        assert ctx.others() == [0, 2, 3]


class MinimalAlgorithm(AgreementAlgorithm):
    name = "minimal"

    def num_phases(self) -> int:
        return 1

    def make_processor(self, pid):  # pragma: no cover - never run
        raise NotImplementedError


class TestAgreementAlgorithmBase:
    def test_population_validated(self):
        with pytest.raises(ValueError):
            MinimalAlgorithm(3, 3)

    def test_transmitter_fixed_at_zero(self):
        assert MinimalAlgorithm(5, 1).transmitter == 0

    def test_describe_contains_bounds(self):
        desc = MinimalAlgorithm(5, 1).describe()
        assert desc["name"] == "minimal"
        assert desc["n"] == 5 and desc["t"] == 1
        assert desc["phases"] == 1
        assert "message_bound" in desc and "signature_bound" in desc

    def test_default_bounds_are_none(self):
        algorithm = MinimalAlgorithm(5, 1)
        assert algorithm.upper_bound_messages() is None
        assert algorithm.upper_bound_signatures() is None


class TestProcessorDefaults:
    def test_on_final_default_is_noop(self):
        class Simple(Processor):
            def on_phase(self, phase, inbox):
                return []

            def decision(self):
                return None

        processor = Simple()
        processor.bind(make_context())
        processor.on_final(())  # must not raise

    def test_on_bind_hook_called(self):
        calls = []

        class Hooked(Processor):
            def on_bind(self):
                calls.append(self.ctx.pid)

            def on_phase(self, phase, inbox):
                return []

            def decision(self):
                return None

        Hooked().bind(make_context(pid=3))
        assert calls == [3]
