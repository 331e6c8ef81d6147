"""Algorithm 4 of the paper: 3-phase grid exchange with ``O(N^1.5)`` messages.

``N = m²`` processors ``p(i, j)`` each hold a value and want (almost) all
correct processors to learn (almost) all correct values.  The obvious
solution costs ``N(N-1)`` messages; relaying through ``t + 1`` hubs costs
``Θ(Nt)``.  Algorithm 4 spends only ``3(m-1)m² = O(N^1.5)`` messages and
still guarantees (Lemma 2) that a set ``P`` of at least ``N - 2t`` correct
processors — those whose **row** contains fewer than ``m/2`` faulty
processors, the *non-isolated* set — succeed completely: for all
``p(i,j), p(l,k) ∈ P``, ``p(i,j)`` ends up holding ``M(l,k)`` signed by
``p(l,k)``.

* Phase 1 — ``p(i,j)`` signs its value and sends it along its **row**.
  ``M1(i,j,k)`` is the (format-checked) value received from ``p(i,k)``.
* Phase 2 — ``p(i,j)`` bundles ``[M1(i,j,1..m)]`` and sends it along its
  **column**.  ``M2(i,j,l)`` is the (format-checked) bundle received from
  ``p(l,j)`` — row ``l``'s values.
* Phase 3 — ``p(i,j)`` bundles ``[M2(i,j,1..m)]`` and sends it along its
  **row**; ``M3(i,j)`` is everything received.

A message without the correct format (wrong signer, unverifiable
signature, oversized bundle) is replaced by the empty string, exactly as
the paper specifies.

:class:`GridExchange` is the sans-runner component (Algorithm 5 embeds it
at varying phase offsets); :class:`Algorithm4` wraps it as a standalone
3-phase run for the Theorem 6 experiments.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Context, Processor
from repro.core.runner import RunResult
from repro.core.types import ProcessorId, Value
from repro.core.validation import ValidationReport
from repro.crypto.chains import SignatureChain
from repro.network.topology import Grid


def _valid_signed_value(
    payload: object, expected_signer: ProcessorId, ctx: Context
) -> bool:
    """A correct phase-1 format: a value signed (once) by *expected_signer*."""
    return (
        isinstance(payload, SignatureChain)
        and len(payload) == 1
        and payload.signatures[0].signer == expected_signer
        and payload.verify(ctx.service)
    )


def _valid_row_bundle(
    payload: object, row_members: Sequence[ProcessorId], ctx: Context
) -> tuple[SignatureChain, ...] | None:
    """A correct phase-2 format: up to ``m`` strings, each a value signed by
    a distinct member of *row_members*.  Returns the verified strings, or
    ``None`` if the format is wrong (treated as the empty string)."""
    if not isinstance(payload, tuple) or len(payload) > len(row_members):
        return None
    allowed = set(row_members)
    seen: set[ProcessorId] = set()
    for item in payload:
        if not isinstance(item, SignatureChain) or len(item) != 1:
            return None
        signer = item.signatures[0].signer
        if signer not in allowed or signer in seen:
            return None
        if not item.verify(ctx.service):
            return None
        seen.add(signer)
    return payload


class GridExchange:
    """One processor's share of Algorithm 4, offset-free.

    Drive it with :meth:`outgoing` for steps 1–3 (step *k*'s inbox holds
    the deliveries of step *k − 1*) and :meth:`absorb_final` for the
    receive-only step 4.  Results accumulate in :attr:`gathered`, mapping
    each grid member to the set of values it verifiably signed (a set,
    because a faulty signer may sign several).
    """

    def __init__(self, ctx: Context, grid: Grid, my_value: Value) -> None:
        self.ctx = ctx
        self.grid = grid
        self.my_value = my_value
        #: every verified (signer → values) pair learned so far.
        self.gathered: dict[ProcessorId, set[Value]] = {}
        #: the signed chains behind :attr:`gathered`, keyed by signer then
        #: value — kept so gathered values can be *forwarded* with their
        #: proof of origin (Algorithm 5's proofs of work).
        self.chains: dict[ProcessorId, dict[Value, SignatureChain]] = {}
        self._row = grid.row_of(ctx.pid)
        self._column = grid.column_of(ctx.pid)
        #: M1, keyed by row member; our own entry is filled locally.
        self._m1: dict[ProcessorId, SignatureChain] = {}
        #: M2, keyed by row index ``l``; our own row's bundle filled locally.
        self._m2: dict[int, tuple[SignatureChain, ...]] = {}

    # ------------------------------------------------------------- the steps

    def outgoing(self, step: int, inbox: Sequence[Envelope]) -> list[Outgoing]:
        if step == 1:
            return self._step1()
        if step == 2:
            return self._step2(inbox)
        if step == 3:
            return self._step3(inbox)
        raise ValueError(f"GridExchange has steps 1..3, got {step}")

    def _step1(self) -> list[Outgoing]:
        chain = SignatureChain.initial(self.my_value, self.ctx.key, self.ctx.service)
        self._m1[self.ctx.pid] = chain
        self._note(chain)
        return [(q, chain) for q in self._row if q != self.ctx.pid]

    def _step2(self, inbox: Sequence[Envelope]) -> list[Outgoing]:
        for envelope in inbox:
            if envelope.src in self._row and _valid_signed_value(
                envelope.payload, envelope.src, self.ctx
            ):
                self._m1[envelope.src] = envelope.payload
                self._note(envelope.payload)
        bundle = tuple(self._m1[q] for q in self._row if q in self._m1)
        my_row_index, _ = self.grid.position(self.ctx.pid)
        self._m2[my_row_index] = bundle
        return [(q, bundle) for q in self._column if q != self.ctx.pid]

    def _step3(self, inbox: Sequence[Envelope]) -> list[Outgoing]:
        column_row_of = {q: self.grid.position(q)[0] for q in self._column}
        for envelope in inbox:
            row_index = column_row_of.get(envelope.src)
            if row_index is None or row_index in self._m2:
                continue
            row_members = [self.grid.at(row_index, c) for c in range(self.grid.m)]
            bundle = _valid_row_bundle(envelope.payload, row_members, self.ctx)
            if bundle is not None:
                self._m2[row_index] = bundle
                for chain in bundle:
                    self._note(chain)
        super_bundle = tuple(
            self._m2.get(l, ()) for l in range(self.grid.m)
        )
        return [(q, super_bundle) for q in self._row if q != self.ctx.pid]

    def absorb_final(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            if envelope.src not in self._row:
                continue
            payload = envelope.payload
            if not isinstance(payload, tuple) or len(payload) != self.grid.m:
                continue
            for row_index, entry in enumerate(payload):
                row_members = [
                    self.grid.at(row_index, c) for c in range(self.grid.m)
                ]
                bundle = _valid_row_bundle(entry, row_members, self.ctx)
                if bundle is not None:
                    for chain in bundle:
                        self._note(chain)

    # -------------------------------------------------------------- results

    def _note(self, chain: SignatureChain) -> None:
        signer = chain.signatures[0].signer
        self.gathered.setdefault(signer, set()).add(chain.value)
        self.chains.setdefault(signer, {})[chain.value] = chain

    def knows_value_of(self, pid: ProcessorId) -> bool:
        """True iff some verified value signed by *pid* was gathered."""
        return pid in self.gathered


class Algorithm4Processor(Processor):
    """Standalone wrapper: runs the exchange in phases 1–3."""

    def __init__(self, grid: Grid, my_value: Value) -> None:
        self.grid = grid
        self.my_value = my_value
        self.exchange: GridExchange | None = None

    def on_bind(self) -> None:
        self.exchange = GridExchange(self.ctx, self.grid, self.my_value)

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        assert self.exchange is not None
        return self.exchange.outgoing(phase, inbox)

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        assert self.exchange is not None
        self.exchange.absorb_final(inbox)

    def decision(self) -> Value:
        """Mutual exchange has no agreement decision; report our own value."""
        return self.my_value


class Algorithm4(AgreementAlgorithm):
    """Theorem 6: ``N = m²`` processors, 3 phases, ``≤ 3(m−1)m²`` messages,
    and the non-isolated ``≥ N − 2t`` correct processors fully exchange.

    *values* assigns each processor the value it wants to distribute; the
    runner's ``input_value`` is unused (pass anything).
    """

    name = "algorithm-4"
    authenticated = True
    phase_bound = "3"
    #: ``3(m−1)m²``: each processor sends ``m − 1`` messages per phase.
    message_bound = "theorem6_message_upper_bound(m)"
    signature_bound = "unstated"

    def __init__(self, m: int, t: int, values: Mapping[ProcessorId, Value]) -> None:
        if m < 1:
            raise ConfigurationError(f"grid side must be positive, got m={m}")
        super().__init__(m * m, t)
        self.m = m
        self.values = dict(values)
        missing = [pid for pid in range(self.n) if pid not in self.values]
        if missing:
            raise ConfigurationError(f"no value assigned to processors {missing}")
        self.grid = Grid(tuple(range(self.n)))

    def num_phases(self) -> int:
        return 3

    def make_processor(self, pid: ProcessorId) -> Processor:
        return Algorithm4Processor(self.grid, self.values[pid])

    def conditions(
        self, result: RunResult, excused: frozenset[int] = frozenset()
    ) -> ValidationReport:
        """Lemma 2, with ``P`` the non-isolated set of the faulty and
        *excused* processors: ``|P| ≥ N − 2·|faulty|``, and every member of
        ``P`` gathered the signed value of every other member."""
        lost = result.faulty | excused
        p_set = nonisolated_set(self.grid, lost)
        violations: list[str] = []
        if len(p_set) < self.n - 2 * len(lost):
            violations.append(
                f"|P| = {len(p_set)} < N - 2·|faulty| = {self.n - 2 * len(lost)}"
            )
        for receiver in sorted(p_set):
            exchange = result.processors[receiver].exchange  # type: ignore[attr-defined]
            for source in sorted(p_set):
                if not exchange.knows_value_of(source):
                    violations.append(f"{receiver} missed the value of {source}")
                elif self.values[source] not in exchange.gathered[source]:
                    violations.append(f"{receiver} holds a wrong value for {source}")
        return ValidationReport(
            agreement=not violations,
            validity=True,
            all_decided=True,
            violations=violations,
            excused=frozenset(excused) & result.correct,
        )


def nonisolated_set(grid: Grid, faulty: frozenset[ProcessorId]) -> set[ProcessorId]:
    """Lemma 2's set ``P``: correct processors whose row has fewer than
    ``m/2`` faulty members."""
    result: set[ProcessorId] = set()
    for pid in grid.members:
        if pid in faulty:
            continue
        row_faulty = sum(1 for q in grid.row_of(pid) if q in faulty)
        if row_faulty < grid.m / 2:
            result.add(pid)
    return result
