"""Ben-Or's randomized binary consensus (1983), in the typed discipline.

Each logical *round* ``r`` is two lockstep phases:

* phase ``2r − 1`` (**report**): broadcast ``Report(r, value)``;
* phase ``2r`` (**proposal**): count the round-``r`` reports (own value
  included); if some value ``v`` has ``count · 2 > n + t``, broadcast
  ``Proposal(r, v)``, else ``Proposal(r, None)`` (the ⊥ proposal).

At the start of round ``r + 1`` (and in ``on_final`` for the last
round) each processor counts the round-``r`` proposals:

* ``count(v) > (n + t) / 2``  →  **decide** ``v``;
* ``count(v) ≥ t + 1``        →  adopt ``v`` for the next report;
* otherwise                   →  adopt a **coin flip**
  (``ctx.coins.flip(pid, r)`` — keyed randomness, replayable per seed).

With ``n > 5t`` at most one value can clear the proposal threshold per
round, which gives agreement; a decided processor keeps broadcasting its
value, so every correct processor adopts it and decides one round later
(the runner's variable-round mode then stops the run).  Unanimous
correct inputs decide deterministically in round 1; mixed inputs
terminate with probability 1, with a geometric round-count tail that the
statistical suite checks against the coin bias
(:mod:`repro.approx.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

from repro.approx.base import RandomizedConsensus
from repro.core.errors import ConfigurationError, ProtocolViolationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import Processor
from repro.core.types import ProcessorId, Value

__all__ = ["Report", "Proposal", "BenOr", "BenOrProcessor"]


@dataclass(frozen=True, slots=True)
class Report:
    """Round-``r`` first-stage broadcast of the sender's current value."""

    round_index: int
    value: int


@dataclass(frozen=True, slots=True)
class Proposal:
    """Round-``r`` second-stage broadcast; ``value=None`` is ⊥."""

    round_index: int
    value: int | None


class BenOr(RandomizedConsensus):
    """Ben-Or's protocol for ``n > 5t`` with a seeded, replayable coin."""

    name: ClassVar[str] = "ben-or"
    phase_bound: ClassVar[str] = "2 * m"
    message_bound: ClassVar[str] = "2 * m * n * (n - 1)"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        max_rounds: int = 30,
        coin_bias: float = 0.5,
        coin_scope: str = "local",
        inputs: Sequence[int] | None = None,
    ) -> None:
        if n <= 5 * t:
            raise ConfigurationError(
                f"Ben-Or's thresholds need n > 5t; got n={n}, t={t}"
            )
        super().__init__(
            n,
            t,
            max_rounds=max_rounds,
            coin_bias=coin_bias,
            coin_scope=coin_scope,
            inputs=inputs,
        )

    def num_phases(self) -> int:
        """Two phases per round; a cap, not a schedule (variable rounds)."""
        return 2 * self.m

    def make_processor(self, pid: ProcessorId) -> Processor:
        return BenOrProcessor(self, pid)


class BenOrProcessor(Processor):
    """One Ben-Or participant; all randomness comes from ``ctx.coins``."""

    def __init__(self, algorithm: BenOr, pid: ProcessorId) -> None:
        self.algorithm = algorithm
        self.value = algorithm.inputs[pid]
        self.decided: int | None = None
        self._last_proposal: int | None = None

    def _count_reports(self, round_index: int, inbox: Sequence[Envelope]) -> dict[int, int]:
        """Distinct-sender counts of round-``r`` reports, own included."""
        seen: dict[ProcessorId, int] = {self.ctx.pid: self.value}
        for envelope in inbox:
            payload = envelope.payload
            if (
                isinstance(payload, Report)
                and payload.round_index == round_index
                and payload.value in (0, 1)
                and 0 <= envelope.src < self.ctx.n
                and envelope.src != self.ctx.pid
            ):
                seen.setdefault(envelope.src, payload.value)
        counts = {0: 0, 1: 0}
        for value in sorted(seen.values()):
            counts[value] += 1
        return counts

    def _count_proposals(
        self, round_index: int, inbox: Sequence[Envelope], own: int | None
    ) -> dict[int, int]:
        """Distinct-sender counts of round-``r`` value proposals (⊥ ignored)."""
        seen: dict[ProcessorId, int | None] = {self.ctx.pid: own}
        for envelope in inbox:
            payload = envelope.payload
            if (
                isinstance(payload, Proposal)
                and payload.round_index == round_index
                and (payload.value is None or payload.value in (0, 1))
                and 0 <= envelope.src < self.ctx.n
                and envelope.src != self.ctx.pid
            ):
                seen.setdefault(envelope.src, payload.value)
        counts = {0: 0, 1: 0}
        for value in sorted(v for v in seen.values() if v is not None):
            counts[value] += 1
        return counts

    def _settle_round(self, round_index: int, inbox: Sequence[Envelope]) -> None:
        """Process round-``r`` proposals: decide, adopt, or flip the coin."""
        counts = self._count_proposals(round_index, inbox, self._last_proposal)
        n, t = self.ctx.n, self.ctx.t
        for v in (0, 1):
            if counts[v] * 2 > n + t:
                if self.decided is None:
                    self.decided = v
                self.value = v
                return
        for v in (0, 1):
            if counts[v] >= t + 1:
                self.value = v
                return
        if self.decided is not None:
            # A decided processor never re-randomizes: it keeps reporting
            # its decision so laggards adopt and decide next round.
            self.value = self.decided
            return
        if self.ctx.coins is None:
            raise ProtocolViolationError(
                "ben-or needs a CoinSource on its Context (run with coins=...)"
            )
        self.value = self.ctx.coins.flip(self.ctx.pid, round_index)

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if phase % 2 == 1:
            round_index = (phase + 1) // 2
            if round_index > 1:
                self._settle_round(round_index - 1, inbox)
            payload: object = Report(round_index=round_index, value=self.value)
        else:
            round_index = phase // 2
            counts = self._count_reports(round_index, inbox)
            proposal: int | None = None
            for v in (0, 1):
                if counts[v] * 2 > self.ctx.n + self.ctx.t:
                    proposal = v
            self._last_proposal = proposal
            payload = Proposal(round_index=round_index, value=proposal)
        return [(q, payload) for q in self.ctx.others()]

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        # The cap is even (2m): the last delivered messages are round-m
        # proposals, which still allow a final decide/adopt step.
        self._settle_round(self.algorithm.num_phases() // 2, inbox)

    def decision(self) -> Value | None:
        return self.decided

    def has_terminated(self) -> bool:
        return self.decided is not None
