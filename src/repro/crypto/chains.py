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

from repro.core.message import UninternableError, intern_key
from repro.core.types import ProcessorId, Value
from repro.crypto.signatures import Signature, SignatureService, SigningKey

_signer = attrgetter("signer")

#: Builtin scalar types: exactly these, not subclasses, which may carry
#: mutable state.
_SCALARS = frozenset({type(None), bool, int, float, str, bytes})


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
        return any(sig.signer == pid for sig in self.signatures)

    # ------------------------------------------------------------ validation

    def verify(self, service: SignatureService) -> bool:
        """Check that every link was legitimately signed in order, each by
        a different signer (what every algorithm in the paper requires).

        Services that cache chain verdicts (the batch engine's per-run
        :class:`~repro.crypto.signatures.InternedSignatureService`) answer a
        repeat verification in O(1): of this very object by identity when
        it cannot change, else of an equal chain by value.  The default
        service always walks every link.
        """
        if not service.caches_chain_verdicts:
            return self._walk(service)
        if service.chain_verified(self):
            return True
        key = self._verdict_key()
        if key is None:
            return self._walk(service)
        if service.chain_verdict_seen(key) or self._walk(service):
            frozen = type(self.signatures) is tuple and _immutable(self.value)
            service.chain_verdict_add(key, self if frozen else None)
            return True
        return False

    def _walk(self, service: SignatureService) -> bool:
        """Verify every link against *service*, rejecting repeated signers."""
        if len(set(self.signers)) != len(self.signatures):
            return False
        prefix: tuple[Signature, ...] = ()
        for signature in self.signatures:
            if not service.verify(signature, chain_body(self.value, prefix)):
                return False
            prefix = prefix + (signature,)
        return True

    def _verdict_key(self) -> Any | None:
        """Value-equality cache key for this chain's verification verdict.

        ``None`` when the value cannot be interned — such chains are simply
        never cached.  Signatures are flattened to ``(signer, digest)``
        pairs, the exact data :meth:`verify` consults.
        """
        try:
            value_key = intern_key(self.value)
        except UninternableError:
            return None
        return (value_key, tuple((sig.signer, sig.digest) for sig in self.signatures))

    def verify_prefix_signers(
        self,
        service: SignatureService,
        allowed: frozenset[ProcessorId] | set[ProcessorId],
    ) -> bool:
        """Valid chain whose signers all come from *allowed*."""
        return self.verify(service) and all(s in allowed for s in self.signers)


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
