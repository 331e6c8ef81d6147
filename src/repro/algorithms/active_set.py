"""The ``O(nt + t²)``-message authenticated baseline (Dolev–Strong [9]).

The paper cites [9] as the best previously known authenticated algorithm:
``t + 1`` phases and ``O(nt + t²)`` messages.  The key idea — reused by the
paper's Algorithms 3 and 5 — is that only a small *active set* needs to run
the expensive core protocol; everybody else can be informed cheaply:

* The first ``2t + 1`` processors (transmitter included) are active.
* Phases ``1 .. t+1`` — the actives run classic Dolev–Strong among
  themselves: ``O(t²)`` messages.
* Phase ``t + 2`` — every active signs its decided value and sends it to
  every passive processor: ``(2t+1)(n − 2t − 1) = O(nt)`` messages.
* A passive processor decides the value it received from at least ``t + 1``
  distinct actives (at least one of them is correct, and all correct
  actives agree), or the default value if no value reaches that quorum.

Total: ``O(nt + t²)`` messages in ``t + 2`` phases (one more phase than
[9]'s statement, which folds the informing step into the last core phase).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from repro.algorithms.algorithm3 import count_value_endorsements, unique_majority_value
from repro.algorithms.base import DEFAULT_VALUE
from repro.algorithms.dolev_strong import DolevStrong, DolevStrongProcessor
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain


class ActiveSetActive(Processor):
    """An active processor: Dolev–Strong core plus the informing phase."""

    def __init__(self, inner: DolevStrongProcessor, passive: Sequence[ProcessorId]) -> None:
        self.inner = inner
        self.passive = tuple(passive)

    def on_bind(self) -> None:
        self.inner.bind(replace(self.ctx, n=2 * self.ctx.t + 1))

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        t = self.ctx.t
        if phase <= t + 1:
            return self.inner.on_phase(phase, inbox)
        if phase == t + 2:
            self.inner.on_final(inbox)
            decided = self.inner.decision()
            chain = SignatureChain.initial(decided, self.ctx.key, self.ctx.service)
            return [(q, chain) for q in self.passive]
        return []

    def decision(self) -> Value | None:
        return self.inner.decision()


class ActiveSetPassive(Processor):
    """A passive processor: waits for the actives' verdict."""

    def __init__(self, actives: frozenset[ProcessorId], default: Value) -> None:
        self.actives = actives
        self.default = default
        self.decided: Value | None = None

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        tally = count_value_endorsements(inbox, self.actives, self.ctx)
        self.decided = unique_majority_value(tally, self.ctx.t + 1)

    def decision(self) -> Value:
        return self.decided if self.decided is not None else self.default


class ActiveSetBroadcast(AgreementAlgorithm):
    """The [9] baseline: ``t + 2`` phases, ``O(nt + t²)`` messages."""

    name = "active-set"
    authenticated = True
    phase_bound = "t + 2"
    #: the Dolev–Strong core among ``2t + 1`` actives plus the informing
    #: fan-out ``(2t + 1)(n − 2t − 1)``.
    message_bound = "(2*t + 2*t * 2 * (2*t - 1)) + (2*t + 1) * (n - 2*t - 1)"
    signature_bound = "unstated"

    def __init__(self, n: int, t: int, *, default: Value = DEFAULT_VALUE) -> None:
        super().__init__(n, t)
        if n < 2 * t + 1:
            raise ConfigurationError(
                f"the active-set baseline needs n >= 2t + 1 (got n={n}, t={t})"
            )
        self.default = default
        self.actives = frozenset(range(2 * t + 1))
        self._core = DolevStrong(2 * t + 1, t, default=default)

    def num_phases(self) -> int:
        return self.t + 2

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid in self.actives:
            inner = self._core.make_processor(pid)
            assert isinstance(inner, DolevStrongProcessor)
            return ActiveSetActive(inner, tuple(range(2 * self.t + 1, self.n)))
        return ActiveSetPassive(self.actives, self.default)

