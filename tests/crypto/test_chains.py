"""Tests for multi-signature chains."""

from repro.crypto.chains import SignatureChain, chain_body, forge_chain
from repro.crypto.signatures import SignatureService


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

    def test_prefix_signers_restriction(self, service):
        chain = build(service, [0, 1])
        assert chain.verify_prefix_signers(service, {0, 1, 2})
        assert not chain.verify_prefix_signers(service, {0, 2})


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
