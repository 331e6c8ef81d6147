"""Algorithm 3 of the paper: linear-message BA for ``n`` up to ``~t³``.

The first ``2t + 1`` processors (including the transmitter) are *active*
and run Algorithm 1 among themselves; the remaining ``m = n - (2t + 1)``
*passive* processors are divided into ``r = ⌈m/s⌉`` disjoint *chain sets*
of size ``s`` (the last set may be smaller), each with a *root* ``c(1)``.

Within each set the root sequentially visits its members: it sends the
accumulating message ``m(j-1)`` to ``c(j)``, who signs it and returns it.
At the end the root reports ``m(s)`` — the agreed value carrying the
signatures of every member it reached — to all active processors, and the
actives directly inform exactly those members whose signature is missing.

Phase schedule (``t + 2s + 3`` phases total):

* ``1 .. t+2``      — actives run Algorithm 1;
* ``t+3``           — every active sends the agreed value to every root;
                      a root's ``m(1)`` is the value received from at least
                      ``t + 1`` actives;
* ``t+2j`` (2≤j≤s)  — root sends ``m(j-1)`` to ``c(j)``;
* ``t+2j+1``        — ``c(j)`` signs and returns it (if well-formed);
* ``t+2s+2``        — root sends ``m(s)`` to every active;
* ``t+2s+3``        — active ``p`` sends the agreed value to every ``c(j)``
                      whose signature is missing from the report ``m(p,C)``
                      (or whose root never reported the correct value).

Decision: actives by Algorithm 1; a root by its ``m(1)``; a member ``c(j)``
by the value received from at least ``t + 1`` actives in the last phase if
any, else by the value its root sent it.

Lemma 1: at most ``2n + 4tn/s + 3t²s`` messages.  Theorem 5: with
``s = 4t`` this is ``O(n + t³)``.

Message formats (all are :class:`~repro.crypto.chains.SignatureChain`s, so
every message carries at least its sender's signature):

* active → root value report: 1-signature chain on the agreed value;
* root → member / member → root: chain whose first signer is the root,
  followed by the signatures of the members visited so far, in set order;
* root → active report: the final such chain;
* active → member direct delivery: 1-signature chain on the agreed value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.algorithms.algorithm1 import (
    Algorithm1,
    Algorithm1Processor,
    Algorithm1Transmitter,
)
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Context, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain


@dataclass(frozen=True)
class ChainSet:
    """One chain set ``C``: its members in visit order (root first)."""

    members: tuple[ProcessorId, ...]

    @property
    def root(self) -> ProcessorId:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def position(self, pid: ProcessorId) -> int:
        """The 1-based label ``j`` of *pid* within the set."""
        return self.members.index(pid) + 1

    def member(self, j: int) -> ProcessorId:
        """The processor ``c(j)`` (1-based)."""
        return self.members[j - 1]


def build_chain_sets(n: int, t: int, s: int) -> list[ChainSet]:
    """Partition the passive processors ``2t+1 .. n-1`` into sets of size *s*."""
    passive = list(range(2 * t + 1, n))
    return [
        ChainSet(tuple(passive[start : start + s]))
        for start in range(0, len(passive), s)
    ]


def count_value_endorsements(
    inbox: Sequence[Envelope],
    senders: frozenset[ProcessorId],
    ctx: Context,
) -> dict[Value, set[ProcessorId]]:
    """Tally verified 1-signature value chains from *senders*, per value.

    Only chains whose single verified signature matches the network-stamped
    source are counted — a faulty processor cannot inflate another value's
    tally or vote twice.
    """
    tally: dict[Value, set[ProcessorId]] = {}
    for envelope in inbox:
        chain = envelope.payload
        if envelope.src not in senders:
            continue
        if not isinstance(chain, SignatureChain) or len(chain) != 1:
            continue
        if chain.signatures[0].signer != envelope.src or not chain.verify(ctx.service):
            continue
        tally.setdefault(chain.value, set()).add(envelope.src)
    return tally


def unique_majority_value(
    tally: dict[Value, set[ProcessorId]], threshold: int
) -> Value | None:
    """The single value endorsed by at least *threshold* distinct senders."""
    winners = sorted(
        (v for v, who in tally.items() if len(who) >= threshold), key=repr
    )
    return winners[0] if len(winners) == 1 else None


class Algorithm3Active(Processor):
    """An active processor: Algorithm 1 role plus chain-set supervision."""

    def __init__(
        self,
        inner: Algorithm1Processor | Algorithm1Transmitter,
        sets: Sequence[ChainSet],
    ) -> None:
        self.inner = inner
        self.sets = tuple(sets)
        #: validated report chains, keyed by root id.
        self.reports: dict[ProcessorId, SignatureChain] = {}
        self.agreed: Value | None = None

    def on_bind(self) -> None:
        self.inner.bind(replace(self.ctx, n=2 * self.ctx.t + 1))

    # ------------------------------------------------------------ validation

    def _valid_report(self, envelope: Envelope, chain_set: ChainSet) -> bool:
        """A report must be a verified chain rooted at the set's root whose
        remaining signers are set members in visit order."""
        chain = envelope.payload
        if not isinstance(chain, SignatureChain) or len(chain) < 1:
            return False
        if chain.signatures[0].signer != chain_set.root:
            return False
        positions = []
        for signer in chain.signers[1:]:
            if signer not in chain_set.members:
                return False
            positions.append(chain_set.position(signer))
        if positions != sorted(set(positions)) or any(p < 2 for p in positions):
            return False
        return chain.verify(self.ctx.service)

    def _collect_reports(self, inbox: Sequence[Envelope]) -> None:
        roots = {cs.root: cs for cs in self.sets}
        for envelope in inbox:
            chain_set = roots.get(envelope.src)
            if chain_set is None or envelope.src in self.reports:
                continue
            if self._valid_report(envelope, chain_set):
                self.reports[envelope.src] = envelope.payload

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        t = self.ctx.t
        if phase <= t + 2:
            return self.inner.on_phase(phase, inbox)
        if phase == t + 3:
            self.inner.on_final(inbox)
            self.agreed = self.inner.decision()
            chain = SignatureChain.initial(self.agreed, self.ctx.key, self.ctx.service)
            return [(cs.root, chain) for cs in self.sets]
        # every later phase may deliver a (possibly short-set) report.
        self._collect_reports(inbox)
        if phase == self._last_phase():
            return self._direct_deliveries()
        return []

    def _last_phase(self) -> int:
        return self.ctx.t + 2 * self._configured_s() + 3

    def _configured_s(self) -> int:
        return max((cs.size for cs in self.sets), default=0)

    def _direct_deliveries(self) -> list[Outgoing]:
        """Send the agreed value to every member not certified by its root."""
        chain = SignatureChain.initial(self.agreed, self.ctx.key, self.ctx.service)
        sends: list[Outgoing] = []
        for chain_set in self.sets:
            report = self.reports.get(chain_set.root)
            if report is not None and report.value == self.agreed:
                covered = set(report.signers)
            else:
                covered = set()
            sends.extend(
                (member, chain)
                for member in chain_set.members[1:]
                if member not in covered
            )
        return sends

    def decision(self) -> Value | None:
        return self.agreed if self.agreed is not None else self.inner.decision()


class Algorithm3Root(Processor):
    """The root ``c(1)`` of one chain set."""

    def __init__(self, chain_set: ChainSet, actives: frozenset[ProcessorId]) -> None:
        self.chain_set = chain_set
        self.actives = actives
        self.m: SignatureChain | None = None
        self.agreed: Value | None = None

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        t = self.ctx.t
        offset = phase - t
        if offset < 4 or offset % 2 != 0:
            return []
        k = offset // 2  # phase == t + 2k, k = 2 .. size + 1
        size = self.chain_set.size
        if k > size + 1:
            return []
        if k == 2:
            tally = count_value_endorsements(inbox, self.actives, self.ctx)
            self.agreed = unique_majority_value(tally, t + 1)
            if self.agreed is None:
                return []
            self.m = SignatureChain.initial(self.agreed, self.ctx.key, self.ctx.service)
        else:
            self._absorb_response(inbox, visited=self.chain_set.member(k - 1))
        if self.m is None:
            return []
        if k <= size:
            return [(self.chain_set.member(k), self.m)]
        return [(active, self.m) for active in self.actives]

    def _absorb_response(self, inbox: Sequence[Envelope], visited: ProcessorId) -> None:
        """Accept ``m(j-1)`` back from ``c(j)`` with its signature appended."""
        if self.m is None:
            return
        for envelope in inbox:
            if envelope.src != visited:
                continue
            chain = envelope.payload
            if not isinstance(chain, SignatureChain):
                continue
            if (
                chain.value == self.m.value
                and chain.signers == self.m.signers + (visited,)
                and chain.verify(self.ctx.service)
            ):
                self.m = chain
                return

    def decision(self) -> Value | None:
        return self.agreed


class Algorithm3Member(Processor):
    """A non-root member ``c(j)`` (``j ≥ 2``) of one chain set."""

    def __init__(self, chain_set: ChainSet, actives: frozenset[ProcessorId]) -> None:
        self.chain_set = chain_set
        self.actives = actives
        self.root_value: Value | None = None
        self.final_value: Value | None = None

    def _valid_root_message(self, chain: object) -> bool:
        """The root's ``m(j-1)``: rooted at ``c(1)``, then a subsequence of
        ``c(2) .. c(j-1)`` in visit order, verified."""
        if not isinstance(chain, SignatureChain) or len(chain) < 1:
            return False
        if chain.signatures[0].signer != self.chain_set.root:
            return False
        my_position = self.chain_set.position(self.ctx.pid)
        positions = []
        for signer in chain.signers[1:]:
            if signer not in self.chain_set.members:
                return False
            positions.append(self.chain_set.position(signer))
        if positions != sorted(set(positions)):
            return False
        if any(p < 2 or p >= my_position for p in positions):
            return False
        return chain.verify(self.ctx.service)

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        j = self.chain_set.position(self.ctx.pid)
        if phase != self.ctx.t + 2 * j + 1:
            return []
        from_root = [e for e in inbox if e.src == self.chain_set.root]
        if len(from_root) != 1 or not self._valid_root_message(from_root[0].payload):
            return []
        chain = from_root[0].payload
        self.root_value = chain.value
        signed = chain.extend(self.ctx.key, self.ctx.service)
        return [(self.chain_set.root, signed)]

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        tally = count_value_endorsements(inbox, self.actives, self.ctx)
        self.final_value = unique_majority_value(tally, self.ctx.t + 1)

    def decision(self) -> Value | None:
        if self.final_value is not None:
            return self.final_value
        return self.root_value


class Algorithm3(AgreementAlgorithm):
    """Lemma 1 / Theorem 5: ``t + 2s + 3`` phases, ``≤ 2n + 4tn/s + 3t²s``
    messages; ``s = 4t`` gives ``O(n + t³)``."""

    name = "algorithm-3"
    authenticated = True
    value_domain = frozenset({0, 1})
    phase_bound = "lemma1_phases(t, s)"
    message_bound = "lemma1_message_upper_bound(n, t, s)"
    #: generous: every correct message carries at most as many signatures
    #: as the phase bound (the paper bounds only messages here).
    signature_bound = "lemma1_message_upper_bound(n, t, s) * lemma1_phases(t, s)"

    def __init__(self, n: int, t: int, *, s: int | None = None) -> None:
        super().__init__(n, t)
        if t < 1 or n < 2 * t + 1:
            raise ConfigurationError(
                f"Algorithm 3 needs t >= 1 and n >= 2t + 1 (got n={n}, t={t})"
            )
        if s is None:
            s = max(1, 4 * t)  # Theorem 5's choice
        if s < 1:
            raise ConfigurationError(f"chain-set size must be positive, got s={s}")
        self.s = s
        self.sets = build_chain_sets(n, t, s)
        self.actives = frozenset(range(2 * t + 1))
        self._graph_algorithm = Algorithm1(2 * t + 1, t)

    def num_phases(self) -> int:
        effective_s = max((cs.size for cs in self.sets), default=0)
        return self.t + 2 * effective_s + 3

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid in self.actives:
            inner = self._graph_algorithm.make_processor(pid)
            return Algorithm3Active(inner, self.sets)
        chain_set = next(cs for cs in self.sets if pid in cs.members)
        if pid == chain_set.root:
            return Algorithm3Root(chain_set, self.actives)
        return Algorithm3Member(chain_set, self.actives)
