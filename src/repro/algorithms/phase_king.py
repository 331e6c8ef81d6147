"""Phase King — a polynomial unauthenticated reference baseline.

**Not part of the paper** (Berman & Garay, 1989 — seven years later).  It
is included as a runnable *polynomial* unauthenticated comparator: the
paper cites [10] (Dolev–Fischer–Fowler–Lynch–Strong) as the
``O(nt + t³)``-message unauthenticated optimum, but [10]'s algorithm is
notoriously intricate; Phase King gives the comparison tables a simple
polynomial unauthenticated point (``O(t · n²)`` messages, ``n > 4t``)
between the exponential OM(t) and the authenticated algorithms.  All
reports label it as a post-paper reference.

The simple two-round variant, ``t + 1`` iterations, king of iteration
``k`` = processor ``k``:

* round A — everyone broadcasts its preference; each processor computes
  the majority value ``maj`` among what it received (own included) and
  the multiplicity ``cnt``;
* round B — the king broadcasts its ``maj``; a processor keeps its own
  ``maj`` if ``cnt ≥ n − t``, otherwise adopts the king's value.

With ``n > 4t``: if all correct processors already prefer ``v`` they all
see ``cnt ≥ n − t`` and keep it (persistence); and in an iteration with a
correct king every correct processor ends up with the same preference —
among ``t + 1`` kings at least one is correct.

An initial phase carries the transmitter's private value (the paper's BA
problem statement): every processor's starting preference is what the
transmitter broadcast, or the default if it stayed silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.algorithms.base import DEFAULT_VALUE, input_value_from
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value


@dataclass(frozen=True, slots=True)
class Preference:
    """Round A broadcast: the sender's current preference."""

    value: Value


@dataclass(frozen=True, slots=True)
class KingWord:
    """Round B broadcast: the king's majority value."""

    value: Value


class PhaseKingProcessor(Processor):
    """One Phase King participant.

    Phase schedule (runner semantics: phase-``p`` sends arrive at
    ``on_phase(p + 1)``):

    * phase 1 — the transmitter broadcasts its private value;
    * phase ``2 + 2k`` (round A of iteration ``k``) — absorb either the
      transmitter's value (``k = 0``) or the previous king's word, then
      broadcast the preference;
    * phase ``3 + 2k`` (round B) — tally preferences into ``(maj, cnt)``;
      the king broadcasts its ``maj``;
    * ``on_final`` — absorb the last king's word; decide the preference.
    """

    def __init__(self, default: Value = DEFAULT_VALUE) -> None:
        self.default = default
        self.preference: Value = default
        self._maj: Value = default
        self._cnt: int = 0

    # --------------------------------------------------------------- helpers

    def _absorb_king(self, inbox: Sequence[Envelope], king: ProcessorId) -> None:
        """Finish the previous iteration: keep or adopt the king's word."""
        king_word = next(
            (
                e.payload.value
                for e in inbox
                if e.src == king and isinstance(e.payload, KingWord)
            ),
            None,
        )
        if self._cnt >= self.ctx.n - self.ctx.t:
            self.preference = self._maj
        elif king_word is not None:
            self.preference = king_word

    def _tally_preferences(self, inbox: Sequence[Envelope]) -> None:
        counts: dict[Value, int] = {self.preference: 1}  # own vote
        seen: set[ProcessorId] = set()
        for envelope in inbox:
            payload = envelope.payload
            if not isinstance(payload, Preference) or envelope.src in seen:
                continue
            seen.add(envelope.src)
            counts[payload.value] = counts.get(payload.value, 0) + 1
        best = max(counts.values())
        winners = sorted((v for v, c in counts.items() if c == best), key=repr)
        self._maj = winners[0]
        self._cnt = best

    def _broadcast(self, payload: object) -> list[Outgoing]:
        return [(q, payload) for q in self.ctx.others()]

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if phase == 1:
            if self.ctx.pid == self.ctx.transmitter:
                self.preference = input_value_from(inbox)
                return self._broadcast(Preference(self.preference))
            return []

        k, round_offset = divmod(phase - 2, 2)
        if round_offset == 0:  # round A of iteration k
            if k == 0:
                from_transmitter = next(
                    (
                        e.payload.value
                        for e in inbox
                        if e.src == self.ctx.transmitter
                        and isinstance(e.payload, Preference)
                    ),
                    None,
                )
                if self.ctx.pid != self.ctx.transmitter:
                    self.preference = (
                        from_transmitter
                        if from_transmitter is not None
                        else self.default
                    )
            else:
                self._absorb_king(inbox, king=k - 1)
            return self._broadcast(Preference(self.preference))

        # round B of iteration k.
        self._tally_preferences(inbox)
        if self.ctx.pid == k:
            return self._broadcast(KingWord(self._maj))
        return []

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        self._absorb_king(inbox, king=self.ctx.t)

    def decision(self) -> Value:
        return self.preference


class PhaseKing(AgreementAlgorithm):
    """Post-paper reference: ``n > 4t``, ``2t + 3`` phases, ``O(tn²)``
    messages, no signatures."""

    name = "phase-king"
    authenticated = False
    phase_bound = "2*t + 3"
    #: transmitter broadcast + per iteration one all-to-all round and one
    #: king broadcast.
    message_bound = "(n - 1) + (t + 1) * (n * (n - 1) + (n - 1))"

    def __init__(self, n: int, t: int, *, default: Value = DEFAULT_VALUE) -> None:
        super().__init__(n, t)
        if n <= 4 * t:
            raise ConfigurationError(
                f"Phase King requires n > 4t (got n={n}, t={t})"
            )
        self.default = default

    def num_phases(self) -> int:
        return 2 * self.t + 3

    def make_processor(self, pid: ProcessorId) -> Processor:
        return PhaseKingProcessor(default=self.default)

    def fault_free_schedule(self) -> list[tuple[int, int]] | None:
        """Every processor starts from the transmitter's value, so each
        tally counts ``n ≥ n − t`` copies of it and every processor keeps
        it through all ``t + 1`` iterations: each decides the input.  The
        schedule is the transmitter's broadcast, then per iteration one
        all-to-all round A and one king broadcast in round B.  ``None`` on
        a subclass, which may change what runs."""
        if type(self) is not PhaseKing:
            return None
        n = self.n
        schedule = [(1, n - 1)]
        for k in range(self.t + 1):
            schedule += [(2 + 2 * k, n * (n - 1)), (3 + 2 * k, n - 1)]
        return schedule
