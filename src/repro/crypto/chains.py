"""Multi-signature chains.

Every authenticated algorithm in the paper relays a value with a growing
list of signatures appended: Dolev–Strong messages with ``k`` distinct
signatures at phase ``k``, Algorithm 1's *correct 1-messages* whose signers
form a simple path in the relay graph, Algorithm 2's *increasing messages*,
Algorithm 5's *valid messages* (a value plus at least ``t + 1`` active
signatures).  This module provides the common structure.

Chain convention: the ``i``-th signature signs the pair *(value, previous
signatures)* — so nobody can splice a signature out of the middle or reuse
one under a different prefix, matching the paper's assumption that contents
and signatures cannot be altered undetectably.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from repro.core.message import intern_key
from repro.core.types import ProcessorId, Value
from repro.crypto.signatures import Signature, SignatureService, SigningKey

_signer = attrgetter("signer")
_digest = attrgetter("digest")

#: Builtin scalar types: exactly these, not subclasses, which may carry
#: mutable state.
_SCALARS = frozenset({type(None), bool, int, float, str, bytes})
#: The exact types of a fixed chain's signatures and their two fields.
_SIGNATURE, _INT, _STR = frozenset({Signature}), frozenset({int}), frozenset({str})


def _immutable(value: Value) -> bool:
    """Whether *value* can never change: a builtin scalar, or a tuple built
    from them."""
    if type(value) is tuple:
        return all(map(_immutable, value))
    return type(value) in _SCALARS


def chain_body(value: Value, prefix: tuple[Signature, ...]) -> Any:
    """The payload that the next signature of a chain binds to.

    Exposed so adversaries can build chains by hand with faulty keys — the
    model explicitly allows colluding faulty processors to fabricate any
    message carrying only their own signatures.
    """
    return ("chain-link", value, prefix)


@dataclass(frozen=True, slots=True)
class SignatureChain:
    """A value with an ordered tuple of signatures over it.

    Immutable; :meth:`extend` returns a new chain.  Construction does not
    imply validity — receivers must call :meth:`verify`.
    """

    value: Value
    signatures: tuple[Signature, ...] = ()

    # ---------------------------------------------------------- construction

    @classmethod
    def initial(
        cls, value: Value, key: SigningKey, service: SignatureService
    ) -> "SignatureChain":
        """A fresh chain: *value* signed once by the holder of *key*."""
        signature = service.sign(key, chain_body(value, ()))
        return cls(value=value, signatures=(signature,))

    def extend(self, key: SigningKey, service: SignatureService) -> "SignatureChain":
        """Append the signature of *key*'s holder over the current chain."""
        signature = service.sign(key, chain_body(self.value, self.signatures))
        return SignatureChain(self.value, self.signatures + (signature,))

    # ------------------------------------------------------------ inspection

    @property
    def signers(self) -> tuple[ProcessorId, ...]:
        """Signer ids in signing order."""
        return tuple(map(_signer, self.signatures))

    def __len__(self) -> int:
        return len(self.signatures)

    def has_signed(self, pid: ProcessorId) -> bool:
        """True iff *pid* appears among the signers."""
        return pid in map(_signer, self.signatures)

    # ------------------------------------------------------------ validation

    def is_fixed(self) -> bool:
        """Whether this chain can never change and compares exactly: its
        value passes :func:`_immutable`, and its signatures are a tuple of
        exact :class:`~repro.crypto.signatures.Signature` objects, each
        with an ``int`` signer and a ``str`` digest.

        Per-run memos remember only fixed chains: the interned service's
        verdicts (by identity and by :meth:`_verdict_key`) and the metrics
        ledger's signature counts.  For a fixed chain, equal keys mean
        equal digests, so a signer ``True`` cannot pass for processor ``1``.
        """
        signatures = self.signatures
        return (
            type(signatures) is tuple
            and _SIGNATURE.issuperset(map(type, signatures))
            and _INT.issuperset(map(type, map(_signer, signatures)))
            and _STR.issuperset(map(type, map(_digest, signatures)))
            and _immutable(self.value)
        )

    def verify(self, service: SignatureService) -> bool:
        """Check that every link was legitimately signed in order, each by
        a different signer (what every algorithm in the paper requires).

        Services that cache chain verdicts (the batch engine's per-run
        :class:`~repro.crypto.signatures.InternedSignatureService`) answer
        a repeat verification of a fixed chain (:meth:`is_fixed`) in O(1):
        of this very object by identity, else of an equal chain by value.
        When the chain minus its last link verified earlier in the run,
        only the last link is checked: the ``i``-th signature binds the
        value and the signatures before it, so that verdict covers every
        other link.  The repeated-signer check always covers the whole
        chain.  Any other chain, and every chain on the default service,
        is walked link by link.
        """
        service.counters.chain_verify_calls += 1
        if not service.caches_chain_verdicts:
            return self._walk(service)
        if service.chain_verified(self):
            return True
        if not self.is_fixed():
            return self._walk(service)
        key = self._verdict_key()
        value_key, pairs = key
        if service.chain_verdict_seen(key):
            verified = True
        elif pairs and service.chain_verdict_seen((value_key, pairs[:-1])):
            verified = self._walk(service, len(pairs) - 1)
        else:
            verified = self._walk(service)
        if verified:
            service.chain_verdict_add(key, self)
        return verified

    def _walk(self, service: SignatureService, verified: int = 0) -> bool:
        """Verify the links after the first *verified* against *service*,
        rejecting a signer that appears twice anywhere in the chain."""
        signatures = self.signatures
        if len(set(map(_signer, signatures))) != len(signatures):
            return False
        prefix: tuple[Signature, ...] = ()
        links = signatures
        if verified:
            prefix, links = signatures[:verified], signatures[verified:]
        for signature in links:
            if not service.verify(signature, chain_body(self.value, prefix)):
                return False
            prefix = prefix + (signature,)
        return True

    def _verdict_key(self) -> tuple[Any, tuple[tuple[ProcessorId, str], ...]]:
        """Value-equality cache key of a fixed chain's verdict: the value's
        :func:`~repro.core.message.intern_key` and the ``(signer, digest)``
        pairs, the exact data :meth:`verify` consults.  Dropping the last
        pair gives the key of the chain one link shorter."""
        signatures = self.signatures
        pairs = zip(map(_signer, signatures), map(_digest, signatures))
        return intern_key(self.value), tuple(pairs)


def forge_chain(
    value: Value,
    signers: tuple[ProcessorId, ...],
    keys: dict[ProcessorId, SigningKey],
    service: SignatureService,
) -> SignatureChain:
    """Build a chain signed by *signers* using whatever keys are available.

    For signers whose key is in *keys* (faulty colluders) a real signature is
    produced; for the rest an unregistered forgery is inserted.  The result
    verifies iff every signer's key was available — exactly the paper's
    collusion model.
    """
    chain = SignatureChain(value)
    for pid in signers:
        if pid in keys:
            chain = chain.extend(keys[pid], service)
        else:
            fake = service.forge(pid, chain_body(value, chain.signatures))
            chain = SignatureChain(value, chain.signatures + (fake,))
    return chain
