"""Tests for multi-signature chains."""

import pytest

from repro.crypto.chains import SignatureChain, chain_body, forge_chain
from repro.crypto.signatures import (
    InternedSignatureService,
    SharedDigestTable,
    Signature,
    SignatureService,
)


def build(service: SignatureService, signers: list[int], value=1) -> SignatureChain:
    chain = SignatureChain(value)
    for pid in signers:
        chain = chain.extend(service.key_for(pid), service)
    return chain


class TestConstruction:
    def test_initial_has_one_signature(self, service):
        chain = SignatureChain.initial("v", service.key_for(0), service)
        assert len(chain) == 1
        assert chain.signers == (0,)
        assert chain.value == "v"

    def test_extend_appends_in_order(self, service):
        chain = build(service, [0, 1, 2])
        assert chain.signers == (0, 1, 2)

    def test_extend_is_persistent(self, service):
        base = build(service, [0])
        extended = base.extend(service.key_for(1), service)
        assert len(base) == 1 and len(extended) == 2

    def test_has_signed(self, service):
        chain = build(service, [0, 2])
        assert chain.has_signed(0) and chain.has_signed(2)
        assert not chain.has_signed(1)


class TestVerification:
    def test_valid_chain_verifies(self, service):
        assert build(service, [0, 1, 2]).verify(service)

    def test_empty_chain_verifies_trivially(self, service):
        assert SignatureChain("v").verify(service)

    def test_value_tamper_detected(self, service):
        chain = build(service, [0, 1])
        tampered = SignatureChain("other", chain.signatures)
        assert not tampered.verify(service)

    def test_signature_removal_detected(self, service):
        chain = build(service, [0, 1, 2])
        spliced = SignatureChain(chain.value, chain.signatures[:1] + chain.signatures[2:])
        assert not spliced.verify(service)

    def test_signature_reorder_detected(self, service):
        chain = build(service, [0, 1])
        swapped = SignatureChain(chain.value, chain.signatures[::-1])
        assert not swapped.verify(service)

    def test_duplicate_signer_rejected_by_default(self, service):
        chain = build(service, [0, 1])
        duplicated = chain.extend(service.key_for(0), service)
        assert not duplicated.verify(service)


class TestForgeChain:
    def test_full_collusion_verifies(self, service):
        keys = {0: service.key_for(0), 1: service.key_for(1)}
        chain = forge_chain("v", (0, 1), keys, service)
        assert chain.verify(service)

    def test_missing_key_breaks_the_chain(self, service):
        keys = {1: service.key_for(1)}  # no key for 0
        chain = forge_chain("v", (0, 1), keys, service)
        assert not chain.verify(service)

    def test_chain_body_is_prefix_sensitive(self, service):
        chain = build(service, [0])
        assert chain_body("v", ()) != chain_body("v", chain.signatures)


@pytest.fixture(params=["plain", "interned"])
def either_service(request) -> SignatureService:
    """The strict reference service and the batch engine's per-run one,
    which answers repeats from its memo and checks only the last link of
    a chain whose prefix verified."""
    if request.param == "plain":
        return SignatureService()
    return InternedSignatureService(SharedDigestTable())


class TestVerifiedPrefix:
    """Each test verifies a chain first, then asks about a chain that
    shares its prefix: both services must give the plain walk's answer."""

    def test_bool_signer_does_not_pass_for_processor_one(self, either_service):
        genuine = build(either_service, [1, 2], value="v")
        assert genuine.verify(either_service)
        first, second = genuine.signatures
        forged = SignatureChain("v", (Signature(True, first.digest), second))
        assert not forged.verify(either_service)

    def test_forged_last_link_fails(self, either_service):
        prefix = build(either_service, [0, 1])
        assert prefix.verify(either_service)
        fake = either_service.forge(2, chain_body(prefix.value, prefix.signatures))
        forged = SignatureChain(prefix.value, prefix.signatures + (fake,))
        before = either_service.counters.verify_calls
        assert not forged.verify(either_service)
        links = either_service.counters.verify_calls - before
        assert links == (1 if either_service.caches_chain_verdicts else 3)

    def test_repeated_last_signer_fails(self, either_service):
        prefix = build(either_service, [0, 1])
        assert prefix.verify(either_service)
        repeated = prefix.extend(either_service.key_for(0), either_service)
        assert not repeated.verify(either_service)

    def test_extension_of_a_verified_chain_checks_one_link(self, either_service):
        prefix = build(either_service, [0, 1, 2])
        assert prefix.verify(either_service)
        extended = prefix.extend(either_service.key_for(3), either_service)
        before = either_service.counters.verify_calls
        assert extended.verify(either_service)
        links = either_service.counters.verify_calls - before
        assert links == (1 if either_service.caches_chain_verdicts else 4)
