"""Oral Messages OM(t) — the unauthenticated baseline (Lamport–Shostak–Pease [14]).

The classic unauthenticated algorithm, implemented in its iterative
*exponential information gathering* (EIG) form.  It tolerates ``t`` faults
only when ``n > 3t``, and its worst-case message count grows like
``O(n^t)`` — which is exactly why it belongs in the comparison tables: the
paper's Corollary 1 lower-bounds unauthenticated algorithms at
``n(t+1)/4`` messages, and OM(t) overshoots that bound massively, while the
``O(nt + t³)`` algorithm of [10] (cited as the best unauthenticated result)
comes within a constant of it for ``n > t²``.

EIG structure: values are gathered along *paths* — sequences of distinct
processor ids beginning with the transmitter.  In phase 1 the transmitter
sends its value (path ``(0,)``) to everyone.  In phase ``k`` every
processor relays, for every length-``k−1`` path ``σ`` it holds a value for
and does not itself appear in, the claim "``σ`` said ``v``" — the receiver
stores it under path ``σ·p``.  After ``t + 1`` phases each processor
resolves the tree bottom-up by recursive majority (default on ties) and
decides the root's resolved value.

Every relayed claim is its own message (one ``(path, value)`` pair per
envelope): this matches the message granularity of [14] and makes the
exponential blow-up visible in the metrics.  No signatures are used —
receivers trust only the network-stamped immediate sender, so a faulty
processor can lie arbitrarily about what others said, which is what the
recursive majority defends against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from typing import Iterable, Sequence

from repro.algorithms.base import DEFAULT_VALUE, input_value_from
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value


@dataclass(frozen=True, slots=True)
class Relay:
    """The claim "the processors along *path* relayed *value*".

    ``path`` is the EIG node: distinct processor ids, starting with the
    transmitter, ending with the processor that (supposedly) last relayed
    the value.  The receiver only trusts the final hop — the network stamps
    the true sender, which must equal ``path[-1]``.
    """

    path: tuple[ProcessorId, ...]
    value: Value


class OralMessagesProcessor(Processor):
    """One EIG participant."""

    def __init__(self, default: Value = DEFAULT_VALUE) -> None:
        self.default = default
        #: the EIG tree: path -> reported value.
        self.tree: dict[tuple[ProcessorId, ...], Value] = {}

    # ------------------------------------------------------------- reception

    def _store(self, envelope: Envelope, expected_length: int) -> None:
        relay = envelope.payload
        if not isinstance(relay, Relay):
            return
        path = relay.path
        if len(path) != expected_length or len(set(path)) != len(path):
            return
        if not path or path[0] != self.ctx.transmitter:
            return
        if path[-1] != envelope.src:
            return  # a processor cannot claim somebody else relayed to us
        if path not in self.tree:
            self.tree[path] = relay.value

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if self.ctx.pid == self.ctx.transmitter:
            if phase == 1:
                value = input_value_from(inbox)
                self.tree[(self.ctx.pid,)] = value
                relay = Relay(path=(self.ctx.pid,), value=value)
                return [(q, relay) for q in self.ctx.others()]
            return []
        if phase == 1:
            return []
        for envelope in inbox:
            self._store(envelope, expected_length=phase - 1)
        if phase > self.ctx.t + 1:
            return []
        outgoing: list[Outgoing] = []
        for path, value in sorted(self.tree.items()):
            if len(path) != phase - 1 or self.ctx.pid in path:
                continue
            extended = Relay(path=path + (self.ctx.pid,), value=value)
            # a processor implicitly relays to itself: its own extension is
            # a child of the EIG node and participates in the majority.
            self.tree[extended.path] = value
            for q in self.ctx.others():
                if q not in extended.path:
                    outgoing.append((q, extended))
        return outgoing

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        if self.ctx.pid != self.ctx.transmitter:
            for envelope in inbox:
                self._store(envelope, expected_length=self.ctx.t + 1)

    # --------------------------------------------------------------- decision

    def _resolve(self, path: tuple[ProcessorId, ...]) -> Value:
        """Bottom-up recursive majority over the EIG subtree at *path*.

        When we are the last relayer of *path* we commanded that
        subinstance ourselves, so our stored value is authoritative — the
        sub-lieutenants were never asked to echo it back to us.
        """
        if path[-1] == self.ctx.pid:
            return self.tree.get(path, self.default)
        if len(path) == self.ctx.t + 1:
            return self.tree.get(path, self.default)
        votes: dict[Value, int] = {}
        children = 0
        for q in range(self.ctx.n):
            if q in path:
                continue
            children += 1
            child = self._resolve(path + (q,))
            votes[child] = votes.get(child, 0) + 1
        if not children:
            return self.tree.get(path, self.default)
        best = max(votes.values())
        winners = sorted(
            (v for v, c in votes.items() if c == best), key=repr
        )
        if len(winners) == 1:
            return winners[0]
        return self.default

    def decision(self) -> Value:
        if self.ctx.pid == self.ctx.transmitter:
            return self.tree.get((self.ctx.pid,), self.default)
        if (self.ctx.transmitter,) not in self.tree and not any(
            path[0] == self.ctx.transmitter for path in self.tree
        ):
            return self.default
        return self._resolve((self.ctx.transmitter,))


class OralMessages(AgreementAlgorithm):
    """OM(t) / EIG: ``t + 1`` phases, no signatures, needs ``n > 3t``."""

    name = "oral-messages"
    authenticated = False
    phase_bound = "t + 1"
    #: the exact worst-case relay count involves ordered path counting —
    #: computed by ``upper_bound_messages``.
    message_bound = "derived"

    def __init__(self, n: int, t: int, *, default: Value = DEFAULT_VALUE) -> None:
        super().__init__(n, t)
        if n <= 3 * t:
            raise ConfigurationError(
                f"oral messages requires n > 3t (got n={n}, t={t})"
            )
        self.default = default

    def num_phases(self) -> int:
        return self.t + 1

    def make_processor(self, pid: ProcessorId) -> Processor:
        return OralMessagesProcessor(default=self.default)

    def upper_bound_messages(self) -> int:
        """Exact worst-case relay count: the fault-free schedule's total."""
        return sum(count for _, count in _relay_schedule(self.n, self.t))

    def fault_free_schedule(self) -> list[tuple[int, int]] | None:
        """Fault-free, every EIG subtree resolves to the broadcast value,
        so each lieutenant's root majority is unanimous and every
        processor decides the input; the schedule is
        :func:`_relay_schedule`.  ``None`` on a subclass, which may change
        what runs."""
        if type(self) is not OralMessages:
            return None
        return _relay_schedule(self.n, self.t)


def _relay_schedule(n: int, t: int) -> list[tuple[int, int]]:
    """Messages per phase of a fault-free run, which attains the worst case.

    Phase 1 is the transmitter's broadcast.  At phase ``k ≥ 2`` each of the
    ``n − 1`` lieutenants holds one length-``(k − 1)`` path per ordered
    choice of ``k − 2`` intermediate hops among the ``n − 2`` processors
    that are neither the transmitter nor itself, and relays each to the
    ``n − k`` processors off the extended path.
    """
    schedule = [(1, n - 1)]
    for k in range(2, t + 2):
        schedule.append((k, (n - 1) * perm(n - 2, k - 2) * (n - k)))
    return schedule

