"""The adversaries constructed inside the paper's lower-bound proofs.

Theorem 1's proof corrupts the signature-exchange set ``A(p)`` of a weakly
connected processor ``p`` and has it *behave toward p as in history H and
toward everyone else as in history G* — a pure replay of two recorded
fault-free executions (:class:`ReplayAdversary` + :func:`build_split_plan`).

Theorem 2's proof corrupts a set ``B`` of ``⌊1 + t/2⌋`` processors that
*never talk to each other and behave correctly toward the rest except for
ignoring the first ⌈t/2⌉ messages* (:class:`IgnoreFirstAdversary`), then —
to derive the contradiction for an algorithm that sends too little —
switches one member ``p`` of ``B`` back to correct while corrupting the
processors that had been feeding it (:class:`Theorem2SwitchAdversary`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.adversary.base import Adversary, FaultySend, PhaseView
from repro.adversary.standard import SimulatingAdversary
from repro.core.history import History, edge_payloads
from repro.core.message import Envelope, Outgoing, iter_payload_parts
from repro.core.types import ProcessorId
from repro.crypto.signatures import Signature

#: phase -> list of (src, dst, payload): a complete faulty-traffic script.
ReplayPlan = dict[int, list[FaultySend]]


class ReplayAdversary(Adversary):
    """Faulty processors that replay a precomputed traffic plan verbatim.

    Replayed payloads carry the *original* signatures, which remain valid —
    the signature scheme binds signers to contents, not to the execution
    that first produced them (a faulty processor may always re-send
    anything it has ever said or seen).
    """

    def __init__(self, faulty: Iterable[ProcessorId], plan: ReplayPlan) -> None:
        super().__init__(faulty)
        self.plan = {phase: list(sends) for phase, sends in plan.items()}

    def on_bind(self) -> None:
        """Re-issue our own recorded signatures inside this execution.

        The recorded traffic embeds signatures of the faulty processors,
        produced in the source histories.  In the execution being built
        those signatures are equally genuine — the colluding faulty
        processors simply sign the same digests again
        (:meth:`~repro.crypto.signatures.SignatureService.endorse`).
        Correct processors' embedded signatures need no help: digests are
        deterministic, so when the correct processor signs the same content
        in this execution the registry entry coincides.
        """
        env = self.env
        assert env is not None
        for sends in self.plan.values():
            for _, _, payload in sends:
                for part in iter_payload_parts(payload):
                    if isinstance(part, Signature) and part.signer in self.faulty:
                        env.service.endorse(env.keys[part.signer], part.digest)

    def on_phase(self, view: PhaseView) -> list[FaultySend]:
        return list(self.plan.get(view.phase, ()))


def build_split_plan(
    history_h: History,
    history_g: History,
    target: ProcessorId,
    faulty: frozenset[ProcessorId],
) -> ReplayPlan:
    """Theorem 1's history ``H'``: the processors in *faulty* (= ``A(p)``)
    send *target* exactly what they sent it in ``H`` and send everyone else
    exactly what they sent them in ``G``."""
    plan: ReplayPlan = {}

    def add_from(history: History, to_target: bool) -> None:
        """Queue replayed sends from *source* into the plan."""
        for phase_number, phase in enumerate(history.phases):
            if phase_number == 0:
                continue
            for edge in phase.edges():
                if edge.src not in faulty:
                    continue
                if (edge.dst == target) != to_target:
                    continue
                if edge.dst in faulty:
                    continue  # traffic among colluders is irrelevant
                for payload in edge_payloads(edge.label):
                    plan.setdefault(phase_number, []).append(
                        (edge.src, edge.dst, payload)
                    )

    add_from(history_h, to_target=True)
    add_from(history_g, to_target=False)
    return plan


class IgnoreFirstAdversary(SimulatingAdversary):
    """Theorem 2's history ``H'``: the set ``B`` plays deaf.

    Every member of *b_set* behaves like a correct processor except that it
    (a) never sends a message to another member of ``B`` and (b) ignores
    the first *ignore_count* messages it receives from processors outside
    ``B`` (all of them, if it receives fewer).
    """

    def __init__(self, b_set: Iterable[ProcessorId], ignore_count: int) -> None:
        super().__init__(b_set)
        self.b_set = frozenset(b_set)
        self.ignore_count = ignore_count
        self._ignored: dict[ProcessorId, int] = {pid: 0 for pid in self.b_set}

    def filter_inbox(
        self, pid: ProcessorId, phase: int, inbox: Sequence[Envelope]
    ) -> Sequence[Envelope]:
        kept: list[Envelope] = []
        for envelope in inbox:
            from_outside = (
                envelope.src not in self.b_set and not envelope.is_input_edge()
            )
            if from_outside and self._ignored[pid] < self.ignore_count:
                self._ignored[pid] += 1
                continue
            kept.append(envelope)
        return kept

    def transform_outbox(
        self, pid: ProcessorId, phase: int, outgoing: list[Outgoing]
    ) -> list[Outgoing]:
        return [(dst, payload) for dst, payload in outgoing if dst not in self.b_set]

    def messages_ignored(self) -> Mapping[ProcessorId, int]:
        """How many incoming messages each ``B`` member has swallowed."""
        return dict(self._ignored)


class Theorem2SwitchAdversary(SimulatingAdversary):
    """Theorem 2's history ``H''``: the contradiction construction.

    One former ``B`` member — *target* — is now correct.  The faulty set is
    ``(B − {target}) ∪ A(p)`` where ``A(p)`` (*starvers* here) are the
    correct processors that had sent *target* messages in ``H'``:

    * members of ``B − {target}`` keep their ``H'`` behaviour (silent
      towards ``B``, first messages ignored) and additionally ignore
      everything *target* sends;
    * the starvers behave like correct processors except that they never
      send anything to *target*.
    """

    def __init__(
        self,
        b_rest: Iterable[ProcessorId],
        starvers: Iterable[ProcessorId],
        target: ProcessorId,
        ignore_count: int,
    ) -> None:
        self.b_rest = frozenset(b_rest)
        self.starvers = frozenset(starvers)
        if self.b_rest & self.starvers:
            raise ValueError("B and A(p) must be disjoint")
        self.target = target
        self.b_all = self.b_rest | {target}
        self.ignore_count = ignore_count
        self._ignored: dict[ProcessorId, int] = {pid: 0 for pid in self.b_rest}
        super().__init__(self.b_rest | self.starvers)

    def filter_inbox(
        self, pid: ProcessorId, phase: int, inbox: Sequence[Envelope]
    ) -> Sequence[Envelope]:
        if pid in self.starvers:
            return inbox
        kept: list[Envelope] = []
        for envelope in inbox:
            if envelope.src == self.target:
                continue
            from_outside = (
                envelope.src not in self.b_all and not envelope.is_input_edge()
            )
            if from_outside and self._ignored[pid] < self.ignore_count:
                self._ignored[pid] += 1
                continue
            kept.append(envelope)
        return kept

    def transform_outbox(
        self, pid: ProcessorId, phase: int, outgoing: list[Outgoing]
    ) -> list[Outgoing]:
        if pid in self.starvers:
            return [(dst, p) for dst, p in outgoing if dst != self.target]
        return [(dst, p) for dst, p in outgoing if dst not in self.b_all]