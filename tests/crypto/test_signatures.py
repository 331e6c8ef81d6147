"""Tests for the registry-oracle signature scheme."""

import pytest

from repro.core.errors import ForgeryError
from repro.crypto.signatures import (
    InternedSignatureService,
    SharedDigestTable,
    Signature,
    SignatureService,
    SigningKey,
)


class TestSigning:
    def test_sign_verify_roundtrip(self, service):
        key = service.key_for(3)
        signature = service.sign(key, ("msg", 1))
        assert signature.signer == 3
        assert service.verify(signature, ("msg", 1))

    def test_verify_rejects_other_payload(self, service):
        key = service.key_for(0)
        signature = service.sign(key, "a")
        assert not service.verify(signature, "b")

    def test_same_key_returned_per_processor(self, service):
        assert service.key_for(1) is service.key_for(1)


class TestUnforgeability:
    def test_hand_built_key_rejected(self, service):
        fake = SigningKey(0, service)
        with pytest.raises(ForgeryError):
            service.sign(fake, "anything")

    def test_key_from_other_service_rejected(self, service):
        other = SignatureService()
        foreign_key = other.key_for(0)
        with pytest.raises(ForgeryError):
            service.sign(foreign_key, "anything")

    def test_forge_produces_non_verifying_signature(self, service):
        fake = service.forge(5, "payload")
        assert fake.signer == 5
        assert not service.verify(fake, "payload")

    def test_hand_built_signature_object_rejected(self, service):
        # Signature is plain data — building one names a signer but does
        # not make it valid.
        from repro.core.message import payload_digest

        fake = Signature(signer=2, digest=payload_digest("x"))
        assert not service.verify(fake, "x")

    def test_signature_valid_only_within_its_service(self, service):
        other = SignatureService()
        signature = service.sign(service.key_for(0), "x")
        assert not other.verify(signature, "x")


class TestEndorse:
    def test_endorse_registers_a_raw_digest(self, service):
        from repro.core.message import payload_digest

        digest = payload_digest(("anything", 42))
        signature = service.endorse(service.key_for(1), digest)
        assert service.verify(signature, ("anything", 42))

    def test_endorse_requires_the_real_key(self, service):
        with pytest.raises(ForgeryError):
            service.endorse(SigningKey(1, service), "00" * 8)

    def test_endorsed_signature_bound_to_digest(self, service):
        from repro.core.message import payload_digest

        signature = service.endorse(service.key_for(1), payload_digest("x"))
        assert not service.verify(signature, "y")


class TestSealing:
    """After ``seal()`` the registry stops minting keys: an adversary that
    reaches the shared service mid-run must not be able to acquire a
    *correct* processor's signing capability (the forge-attempt hole the
    fuzzer's :class:`~repro.fuzz.mutations.ForgeAttempt` probes)."""

    def test_sealed_key_for_raises_typed_error(self, service):
        service.key_for(0)
        service.seal()
        with pytest.raises(ForgeryError):
            service.key_for(1)

    def test_seal_is_idempotent(self, service):
        service.seal()
        service.seal()
        with pytest.raises(ForgeryError):
            service.key_for(0)

    def test_preminted_keys_still_sign_after_seal(self, service):
        key = service.key_for(4)
        service.seal()
        signature = service.sign(key, "late message")
        assert service.verify(signature, "late message")

    def test_forge_still_works_after_seal(self, service):
        # forge() needs no key — sealing must not break the tests and
        # adversaries that *attempt* forgeries to assert rejection.
        service.seal()
        fake = service.forge(2, "payload")
        assert not service.verify(fake, "payload")

    def test_clone_is_unsealed(self, service):
        # The conformance checker replays protocol logic against a clone
        # and needs fresh keys there.
        service.seal()
        clone = service.clone()
        key = clone.key_for(0)
        signature = clone.sign(key, "replayed")
        assert clone.verify(signature, "replayed")

    def test_runner_seals_the_run_service(self):
        from repro.algorithms.dolev_strong import DolevStrong
        from repro.core.runner import run

        result = run(DolevStrong(4, 1), 1)
        with pytest.raises(ForgeryError):
            result.service.key_for(0)

    def test_adversary_cannot_mint_correct_key_mid_run(self):
        # An adversary that tries key_for() on the shared service during the
        # phase loop gets ForgeryError, which the runner surfaces instead of
        # letting the forgery through.
        from repro.adversary.base import Adversary
        from repro.algorithms.dolev_strong import DolevStrong
        from repro.core.runner import run

        class KeyThief(Adversary):
            def on_phase(self, view):
                stolen = self.env.service.key_for(2)  # 2 is correct
                chain = self.env.service.sign(stolen, "forged")
                return [(1, 3, chain)]

        with pytest.raises(ForgeryError):
            run(DolevStrong(4, 1), 1, KeyThief([1]))


class TestDigestMemo:
    """Digests are a function of the payload's current contents: the same
    digests and verdicts as ``payload_digest``, for equal objects and for
    an object mutated after it was signed."""

    def test_memo_matches_payload_digest(self, service):
        from repro.core.message import payload_digest

        payload = ("relay", 3, ("inner", 1, 2))
        assert service._digest(payload) == payload_digest(payload)
        # a second call returns the identical digest
        assert service._digest(payload) == payload_digest(payload)

    def test_equal_but_distinct_objects_still_agree(self, service):
        first = ("msg", 1, ("a", "b"))
        second = ("msg", 1, ("a", "b"))
        key = service.key_for(2)
        signature = service.sign(key, first)
        assert service.verify(signature, second)

    def test_memo_works_for_unhashable_payloads(self, service):
        payload = ["list", {"k": 1}]
        key = service.key_for(0)
        signature = service.sign(key, payload)
        assert service.verify(signature, payload)
        assert service.verify(signature, ["list", {"k": 1}])

    @pytest.mark.parametrize("interned", [False, True])
    def test_mutated_payload_no_longer_verifies(self, interned):
        service = (
            InternedSignatureService(SharedDigestTable())
            if interned
            else SignatureService()
        )
        payload = [1, 2]
        signature = service.sign(service.key_for(0), payload)
        assert service.verify(signature, payload)
        payload.append(3)
        assert not service.verify(signature, payload)

    def test_clone_does_not_share_memo(self, service):
        payload = ("p", 1)
        service.sign(service.key_for(0), payload)
        clone = service.clone()
        # issued signatures still verify in the clone
        signature = Signature(signer=0, digest=service._digest(payload))
        assert clone.verify(signature, payload)
