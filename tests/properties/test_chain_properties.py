"""Property-based tests for signature chains."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chains import SignatureChain
from repro.crypto.signatures import Signature, SignatureService

signer_lists = st.lists(
    st.integers(0, 9), min_size=1, max_size=6, unique=True
)
values = st.one_of(st.integers(0, 5), st.text(max_size=8))


def build_chain(signers, value):
    service = SignatureService()
    chain = SignatureChain(value)
    for pid in signers:
        chain = chain.extend(service.key_for(pid), service)
    return service, chain


class TestChainProperties:
    @given(signer_lists, values)
    def test_honest_chains_always_verify(self, signers, value):
        service, chain = build_chain(signers, value)
        assert chain.verify(service)
        assert chain.signers == tuple(signers)

    @given(signer_lists, values, st.data())
    @settings(max_examples=80)
    def test_any_single_link_tamper_breaks_verification(self, signers, value, data):
        service, chain = build_chain(signers, value)
        index = data.draw(st.integers(0, len(chain) - 1))
        mode = data.draw(st.sampled_from(["drop", "resign", "redigest"]))
        sigs = list(chain.signatures)
        if mode == "drop":
            # dropping the *last* link legitimately yields a valid prefix
            # (tested separately); only interior drops must break the chain.
            if index == len(sigs) - 1:
                return
            del sigs[index]
        elif mode == "resign":
            sigs[index] = Signature(signer=sigs[index].signer + 100, digest=sigs[index].digest)
        else:
            sigs[index] = Signature(signer=sigs[index].signer, digest="0" * 16)
        tampered = SignatureChain(value, tuple(sigs))
        if tampered.signatures != chain.signatures:
            assert not tampered.verify(service)

    @given(signer_lists, values)
    def test_value_substitution_breaks_verification(self, signers, value):
        service, chain = build_chain(signers, value)
        other = ("definitely", "different")
        assert not SignatureChain(other, chain.signatures).verify(service)

    @given(signer_lists, values)
    @settings(max_examples=50)
    def test_prefixes_of_valid_chains_are_valid(self, signers, value):
        service, chain = build_chain(signers, value)
        for k in range(len(chain) + 1):
            prefix = SignatureChain(value, chain.signatures[:k])
            assert prefix.verify(service)

    @given(signer_lists, values)
    @settings(max_examples=50)
    def test_truncating_from_the_front_breaks_chains(self, signers, value):
        service, chain = build_chain(signers, value)
        if len(chain) >= 2:
            beheaded = SignatureChain(value, chain.signatures[1:])
            assert not beheaded.verify(service)

    @given(st.lists(st.integers(0, 9), min_size=2, max_size=6))
    def test_duplicate_signers_rejected_iff_present(self, signers):
        service = SignatureService()
        chain = SignatureChain("v")
        for pid in signers:
            chain = chain.extend(service.key_for(pid), service)
        has_duplicates = len(set(signers)) != len(signers)
        assert chain.verify(service) == (not has_duplicates)
