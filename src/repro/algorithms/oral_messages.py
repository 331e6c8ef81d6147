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
from math import comb
from typing import Iterable, Sequence

from repro.algorithms.base import (
    DEFAULT_VALUE,
    AgreementAlgorithm,
    Processor,
    input_value_from,
)
from repro.core.batch import (
    BatchOutcome,
    kernel_value_table,
    register_batch_kernel,
)
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing, UninternableError
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
        """Exact worst-case relay count.

        At phase ``k ≥ 2`` a processor holds at most ``P(k)`` length-
        ``(k-1)`` paths avoiding itself and relays each to the ``n - k``
        processors not on the extended path, where ``P(k)`` counts paths
        ``(transmitter, q_2, .., q_{k-1})`` of distinct non-self ids.
        """
        n, t = self.n, self.t
        total = n - 1  # phase 1, the transmitter's broadcast
        for k in range(2, t + 2):
            # choose and order k - 2 intermediate hops from the n - 2
            # processors that are neither the transmitter nor the relayer.
            paths = comb(n - 2, k - 2) * _factorial(k - 2)
            total += (n - 1) * paths * (n - k)
        return total


def _factorial(x: int) -> int:
    result = 1
    for i in range(2, x + 1):
        result *= i
    return result


@register_batch_kernel("oral-messages")
def _oral_messages_batch_kernel(
    algorithm: AgreementAlgorithm, values: Sequence[Value]
) -> list[BatchOutcome] | None:
    """Vectorised fault-free OM(t) over ``(runs, values)`` vote arrays.

    Fault-free, every EIG subtree resolves to the broadcast value, so each
    non-transmitter's root resolution is a majority over its ``n − 1``
    root-child votes — computed here as one numpy bincount/argmax per run
    (ties resolve to the default, exactly as :meth:`_resolve` does).  The
    message schedule is closed-form: computed with exact Python integers
    (the path counts overflow int64 fast) matching
    :meth:`OralMessages.upper_bound_messages` phase by phase, which
    fault-free executions attain.  Declines (``None``) on subclasses,
    missing numpy, uninternable values, or ``None`` inputs.
    """
    if type(algorithm) is not OralMessages:
        return None
    if any(value is None for value in values):
        return None
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is part of the toolchain
        return None
    try:
        table, indices, default_index = kernel_value_table(
            values, algorithm.default
        )
    except UninternableError:
        return None

    n, t = algorithm.n, algorithm.t
    runs, width = len(values), len(table)
    index_array = np.asarray(indices, dtype=np.int64)
    # Root-majority vote: n − 1 root children per lieutenant, all carrying
    # the broadcast value.  Ties (impossible with a real vote, but kept for
    # shape-faithfulness) fall back to the default, as _resolve does.
    votes = np.zeros((runs, width), dtype=np.int64)
    votes[np.arange(runs), index_array] = n - 1
    best = votes.max(axis=1)
    tie = (votes == best[:, None]).sum(axis=1) > 1
    resolved = np.where(tie, default_index, votes.argmax(axis=1))
    if n == 1:  # a lone transmitter never votes; it decides its own value
        resolved = index_array

    # Exact fault-free message schedule (== upper_bound_messages, phase by
    # phase): at phase k each of the n − 1 lieutenants relays its
    # comb(n−2, k−2)·(k−2)! held paths to the n − k off-path processors.
    per_phase: list[tuple[int, int]] = []
    if n > 1:
        per_phase.append((1, n - 1))
    for k in range(2, t + 2):
        paths = comb(n - 2, k - 2) * _factorial(k - 2)
        count = (n - 1) * paths * (n - k)
        if count > 0:
            per_phase.append((k, count))
    total = sum(count for _, count in per_phase)
    phases_used = max((phase for phase, _ in per_phase), default=0)

    outcomes: list[BatchOutcome] = []
    for row in range(runs):
        value = table[int(resolved[row])]
        decisions = {pid: value for pid in range(n)}
        decisions[algorithm.transmitter] = values[row]
        outcomes.append(
            BatchOutcome(
                decisions=tuple(sorted(decisions.items())),
                messages_by_correct=total,
                messages_by_faulty=0,
                signatures_by_correct=0,
                signatures_by_faulty=0,
                phases_used=phases_used,
                phases_configured=algorithm.num_phases(),
                messages_per_phase=tuple(per_phase),
                signatures_per_phase=tuple(
                    (phase, 0) for phase, _ in per_phase
                ),
            )
        )
    return outcomes
