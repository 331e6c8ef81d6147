"""Simulated unforgeable signature scheme (the paper's "authentication").

The paper assumes a signature scheme in the style of Diffie–Hellman [2] and
RSA [16]: every processor can sign its messages so that *"every receiver
will recognize them as being signed by it and no one can change the contents
of a message or the signature undetectably"*, and faulty processors may
collude — any message carrying only faulty processors' signatures can be
fabricated by them.

The reproduction replaces public-key cryptography with a **registry oracle**,
which preserves exactly the properties the proofs use:

* *Existential unforgeability*: :meth:`SignatureService.sign` requires the
  signer's :class:`SigningKey`, a capability object handed out exactly once
  per processor by the runner.  Correct processors' keys live only inside
  their own runtime context, so no other party can produce their signatures.
* *Collusion*: the adversary receives the keys of every faulty processor and
  can therefore sign anything on their behalf — including retroactively and
  for payloads a correct processor never saw.
* *Verifiability*: anyone can call :meth:`SignatureService.verify`; no key is
  needed to verify.

The substitution is documented in DESIGN.md §4.  It is deterministic, free,
and — unlike real crypto — lets tests *attempt* forgeries and assert they
are rejected (:meth:`SignatureService.forge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.counters import Counters
from repro.core.errors import ForgeryError
from repro.core.message import UninternableError, intern_key, payload_digest
from repro.core.types import ProcessorId


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature of *signer* over a payload with the given digest.

    Signatures are plain data and travel inside payloads; validity is not a
    property of the object but of the registry — call
    :meth:`SignatureService.verify` to check it.  (A faulty processor can
    construct a ``Signature`` object naming anyone; verification is what
    exposes the fake.)
    """

    signer: ProcessorId
    digest: str


class SigningKey:
    """Capability to sign on behalf of one processor.

    Only the :class:`SignatureService` can mint keys; holding the key *is*
    the authorisation.  The runner gives each correct processor its own key
    (inside its :class:`~repro.core.protocol.Context`) and gives the
    adversary the keys of all faulty processors.
    """

    __slots__ = ("pid", "_service")

    def __init__(self, pid: ProcessorId, service: "SignatureService") -> None:
        self.pid = pid
        self._service = service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SigningKey(pid={self.pid})"


class SignatureService:
    """Registry-backed signature oracle shared by one simulated system.

    One instance exists per run.  It records every ``(signer, digest)`` pair
    produced through a legitimate :meth:`sign` call; :meth:`verify` simply
    checks membership.  Its :attr:`counters` count the run's payload
    digests, ``sign`` and ``verify`` calls and chain verifications (the
    runner reports them as the run's
    :attr:`~repro.core.runner.RunResult.counters`).
    """

    #: Whether the chain-verdict hooks can ever answer ``True`` — lets
    #: :meth:`repro.crypto.chains.SignatureChain.verify` skip them
    #: entirely against this (the default) service.
    caches_chain_verdicts = False

    def __init__(self) -> None:
        self._issued: set[tuple[ProcessorId, str]] = set()
        self._keys: dict[ProcessorId, SigningKey] = {}
        self._sealed = False
        #: Digest accounting: a hit was answered from the batch service's
        #: shared value-keyed table; a miss paid the canonical walk plus
        #: hash.  This service has no table, so every digest is a miss.
        self.counters = Counters()

    # ------------------------------------------------------------------ keys

    def key_for(self, pid: ProcessorId) -> SigningKey:
        """Return the unique signing key of *pid* (minting it on first use).

        Intended for the runner only; protocols and adversaries receive keys
        through their contexts and must not call this.  Once the runner has
        distributed every key it calls :meth:`seal`, after which this method
        raises :class:`~repro.core.errors.ForgeryError` — the enforcement
        behind "no one can change the contents of a message or the signature
        undetectably": without sealing, any adversary (or fuzz primitive)
        could mint a *correct* processor's key mid-run and forge at will.
        """
        if self._sealed:
            raise ForgeryError(
                f"signature registry is sealed; the key for processor {pid} "
                "can no longer be obtained (use forge() to build signatures "
                "that verification must reject)"
            )
        if pid not in self._keys:
            self._keys[pid] = SigningKey(pid, self)
        return self._keys[pid]

    def seal(self) -> None:
        """Stop handing out signing keys; existing keys keep working.

        The runner calls this once key distribution is complete (after
        binding the correct processors and the adversary).  Idempotent.
        """
        self._sealed = True

    # --------------------------------------------------------------- digests

    def _digest(self, payload: Any) -> str:
        """:func:`~repro.core.message.payload_digest` of the payload's
        current contents.

        Never keyed on the object: a list signed, then appended to, must
        digest differently, or its contents would change undetectably.
        """
        self.counters.digest_misses += 1
        return payload_digest(payload)

    # --------------------------------------------------- chain verdict hooks

    def chain_verified(self, chain: Any) -> bool:
        """Whether this very *chain* object already verified ``True``.

        The base service never caches (see :attr:`caches_chain_verdicts`);
        the batch engine's :class:`InternedSignatureService` overrides the
        three hooks with per-run, true-verdicts-only memos of fixed chains
        (:meth:`~repro.crypto.chains.SignatureChain.is_fixed`) — sound
        because the issued-signature set only grows within a run, so a
        chain that once verified can never stop verifying.
        """
        return False

    def chain_verdict_seen(self, key: Any) -> bool:
        """Whether a chain with cache key *key* already verified ``True``."""
        return False

    def chain_verdict_add(self, key: Any, chain: Any) -> None:
        """Record that the fixed *chain*, whose cache key is *key*,
        verified ``True``."""

    # --------------------------------------------------------------- signing

    def sign(self, key: SigningKey, payload: Any) -> Signature:
        """Produce *key.pid*'s signature over *payload*.

        Raises :class:`~repro.core.errors.ForgeryError` if *key* was not
        minted by this service (e.g. a hand-built key, or a key from another
        run's service).
        """
        if self._keys.get(key.pid) is not key:
            raise ForgeryError(
                f"key for processor {key.pid} was not issued by this service"
            )
        self.counters.sign_calls += 1
        digest = self._digest(payload)
        self._issued.add((key.pid, digest))
        return Signature(signer=key.pid, digest=digest)

    def endorse(self, key: SigningKey, digest: str) -> Signature:
        """Sign a raw digest directly (no payload in hand).

        Real signature schemes sign arbitrary byte strings, so a (faulty)
        key holder can always endorse a digest it has seen even without a
        canonical payload for it.  Replay adversaries use this to re-issue
        their own signatures from a recorded history inside a new
        execution — the recorded history *is* the execution being built,
        so those signatures are genuine there (see
        :mod:`repro.adversary.lowerbound`).  Correct processors never call
        this; the runner only routes it through adversary-held keys.
        """
        if self._keys.get(key.pid) is not key:
            raise ForgeryError(
                f"key for processor {key.pid} was not issued by this service"
            )
        self._issued.add((key.pid, digest))
        return Signature(signer=key.pid, digest=digest)

    def forge(self, signer: ProcessorId, payload: Any) -> Signature:
        """Build a *fake* signature naming *signer*, without its key.

        The result has the right digest but was never registered, so
        :meth:`verify` rejects it.  Used by tests and adversaries to check
        that algorithms actually verify what they receive.
        """
        return Signature(signer=signer, digest=payload_digest(payload))

    # ----------------------------------------------------------- verification

    def verify(self, signature: Signature, payload: Any) -> bool:
        """True iff *signature* was legitimately produced over *payload*."""
        self.counters.verify_calls += 1
        if self._digest(payload) != signature.digest:
            return False
        return (signature.signer, signature.digest) in self._issued

    @classmethod
    def fresh_registries(cls, count: int) -> tuple["SignatureService", ...]:
        """Mint *count* independent signature registries.

        Composite protocols that embed sub-protocol instances (e.g.
        interactive consistency's rotated BA copies) need one registry per
        instance.  They must obtain them here rather than constructing
        :class:`SignatureService` themselves — keeping registry creation
        inside the crypto layer is what lets ``repro lint`` rule BA003
        verify that algorithm code never mints signing authority.
        """
        return tuple(cls() for _ in range(count))

    def clone(self) -> "SignatureService":
        """An independent copy of the registry with fresh keys.

        Signatures issued in the original verify in the clone (the issued
        set is copied), but signing through the clone does not affect the
        original.  Used by the conformance checker, which replays protocol
        logic against a recorded history without polluting the run's
        registry.
        """
        copy = SignatureService()
        copy._issued = set(self._issued)
        return copy


class SharedDigestTable:
    """A value-keyed payload-digest memo shared across many runs.

    Protocols rebuild equal payloads (signature chains reconstruct their
    link bodies on every verification), so an identity-keyed memo would
    never hit.  This table keys on :func:`~repro.core.message.intern_key`
    — a type-tagged mirror of the canonical form — so *equal* payloads
    share one digest computation across every run of a batch.  The digest
    is a pure function of the payload's value, which is what makes
    cross-run sharing sound (unlike signature registries, which are
    strictly per-run).  The table keeps no totals: each lookup counts
    into the caller's :class:`~repro.core.counters.Counters`.
    """

    #: Entry-count backstop: a full table is cleared, not grown.
    _MAX_ENTRIES = 1 << 18

    __slots__ = ("_digests",)

    def __init__(self) -> None:
        self._digests: dict[Any, str] = {}

    def digest(self, payload: Any, counters: Counters) -> str:
        """Digest *payload*, answering from the table when possible, and
        count the lookup as a hit or a miss into *counters*."""
        try:
            key = intern_key(payload)
        except UninternableError:
            counters.digest_misses += 1
            return payload_digest(payload)
        hit = self._digests.get(key)
        if hit is not None:
            counters.digest_hits += 1
            return hit
        counters.digest_misses += 1
        digest = payload_digest(payload)
        if len(self._digests) >= self._MAX_ENTRIES:
            self._digests.clear()
        self._digests[key] = digest
        return digest


class InternedSignatureService(SignatureService):
    """A per-run signature registry backed by a shared digest table.

    The batch engine mints one of these per *unique* run: the issued-
    signature set, the signing keys and the seal are strictly per-run
    (signatures from one run must never verify in another, and forgeries
    must keep failing), while digest computations — pure functions of
    payload values — are shared through *table* across the whole batch.

    It also caches chain verdicts (see
    :meth:`SignatureService.chain_verified`) — per run, true verdicts
    only, so a ``False`` caused by a not-yet-issued signature can still
    flip to ``True`` later in the run.
    """

    caches_chain_verdicts = True

    def __init__(self, table: SharedDigestTable) -> None:
        super().__init__()
        self._table = table
        self._chain_verdicts: set[Any] = set()
        #: id(chain) -> chain for the fixed chains that verified.
        #: Holding the chain keeps it alive, so its ``id`` cannot be reused
        #: by another object while the entry lives.
        self._verified_chains: dict[int, Any] = {}

    def _digest(self, payload: Any) -> str:
        return self._table.digest(payload, self.counters)

    def chain_verified(self, chain: Any) -> bool:
        """True iff this chain object already verified in *this* run."""
        return self._verified_chains.get(id(chain)) is chain

    def chain_verdict_seen(self, key: Any) -> bool:
        """True iff an equal chain already verified in *this* run."""
        return key in self._chain_verdicts

    def chain_verdict_add(self, key: Any, chain: Any) -> None:
        """Remember a successful verification for the rest of this run."""
        self._chain_verdicts.add(key)
        self._verified_chains[id(chain)] = chain
