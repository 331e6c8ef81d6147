"""Abstract bases for the approximate / randomized workload family.

Two new problem statements join the exact-BA zoo:

* :class:`ApproximateAgreement` — every processor starts with a real
  value; correct processors must end within ``eps`` of each other
  (ε-agreement) and inside the range of correct inputs (ε-validity).
  The synchronous round structure follows Dolev-Lynch-Pinter-Stark-Weihl:
  each round, broadcast your value, collect the others', sort, trim the
  ``t`` lowest and ``t`` highest, and apply a concrete *update rule*.
  The per-round contraction of the correct-value diameter is declared as
  the ``convergence_rate`` class attribute (lint rule BA010) and the
  round count is *derived* from it: the smallest ``m`` with
  ``diameter · rate^m ≤ eps``, computed in exact rational arithmetic.
* :class:`RandomizedConsensus` — exact binary agreement with
  probabilistic termination.  Processors consult the run's seeded
  :class:`~repro.approx.coins.CoinSource`; the algorithm opts into the
  runner's variable-round mode, so ``num_phases()`` is a cap and the run
  stops once every correct processor reports
  :meth:`~repro.core.protocol.Processor.has_terminated`.

Both families are unauthenticated (no signatures) and take *per-processor*
inputs from the algorithm configuration: the runner's single transmitter
input edge is the exact-BA input model, so approx processors simply
ignore the phase-0 edge and read their initial value from
``algorithm.inputs``.

Exact BA's conditions do not apply verbatim to either family, so each
base states its own in
:meth:`~repro.core.protocol.AgreementAlgorithm.conditions`: ε-agreement
and ε-validity (a failure is ``eps_violation``), or agreement and
unanimity-validity, where a processor undecided at the round cap is no
violation (liveness is judged statistically by :mod:`repro.approx.stats`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Sequence

from repro.approx.coins import CoinSource
from repro.bounds.expressions import evaluate_rate
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value
from repro.core.validation import EPS_VIOLATION, ValidationReport

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.runner import RunResult

__all__ = [
    "RoundValue",
    "ApproximateAgreement",
    "ApproxProcessor",
    "RandomizedConsensus",
]


@dataclass(frozen=True, slots=True)
class RoundValue:
    """One processor's value broadcast in one approximate-agreement round."""

    round_index: int
    value: float


class ApproximateAgreement(AgreementAlgorithm):
    """Base for synchronous ε-agreement algorithms (trim-and-update).

    Concrete subclasses declare a ``convergence_rate`` expression and
    implement :meth:`update` (the rule applied to the trimmed, sorted
    value multiset each round).  Everything else — the broadcast/collect
    round structure, junk filtering, the derived round count — is shared.
    """

    name: ClassVar[str] = "approx-abstract"
    authenticated: ClassVar[bool] = False
    #: Continuous inputs: any float is a legal value.
    value_domain: ClassVar[frozenset[Any] | None] = None
    phase_bound: ClassVar[str | None] = "derived"
    message_bound: ClassVar[str | None] = "derived"
    family: ClassVar[str] = "approx"
    violation: ClassVar[str] = EPS_VIOLATION

    def __init__(
        self,
        n: int,
        t: int,
        *,
        eps: float = 0.25,
        inputs: Sequence[float] | None = None,
    ) -> None:
        super().__init__(n, t)
        if not (eps > 0 and math.isfinite(eps)):
            raise ConfigurationError(f"eps must be positive and finite, got {eps!r}")
        self.eps = float(eps)
        if inputs is None:
            # Defaults offset from 0 so that junk coerced to 0.0 (the
            # strawman's bug) falls visibly outside the correct range.
            inputs = tuple(10.0 + pid for pid in range(n))
        self.inputs = tuple(float(v) for v in inputs)
        if len(self.inputs) != n:
            raise ConfigurationError(
                f"{self.name} needs one input per processor: got "
                f"{len(self.inputs)} inputs for n={n}"
            )
        self.m = self._required_rounds()

    # ------------------------------------------------------ derived bounds

    def contraction_rate(self) -> Fraction:
        """The declared per-round contraction, evaluated exactly."""
        rate = evaluate_rate(self.convergence_rate, self.bound_parameters())
        if rate is None:
            raise ConfigurationError(
                f"{type(self).__name__} declares no convergence_rate; "
                f"approximate-agreement algorithms must (lint rule BA010)"
            )
        return rate

    def _required_rounds(self) -> int:
        """Smallest ``m ≥ 1`` with ``diameter · rate^m ≤ eps`` (exact)."""
        diameter = Fraction(max(self.inputs)) - Fraction(min(self.inputs))
        eps = Fraction(self.eps)
        rate = self.contraction_rate()
        rounds = 1
        span = diameter * rate
        while span > eps:
            rounds += 1
            span *= rate
        return rounds

    def num_phases(self) -> int:
        """One phase per contraction round (the final absorb is on_final)."""
        return self.m

    def make_processor(self, pid: ProcessorId) -> Processor:
        return ApproxProcessor(self, pid)

    # ------------------------------------------------------- the update rule

    def trimmed(self, values: Sequence[float]) -> list[float]:
        """Sort and drop the ``t`` lowest and ``t`` highest values.

        At most ``t`` of the collected values are adversarial, so after
        trimming ``t`` per side every survivor lies within the range of
        correct values — the inductive step of ε-validity.
        """
        ordered = sorted(values)
        return ordered[self.t : len(ordered) - self.t]

    @abc.abstractmethod
    def update(self, values: Sequence[float]) -> float:
        """Map one round's collected value multiset to the next value.

        *values* is the full n-multiset (own value substituted for
        missing or malformed entries), unsorted; implementations
        typically start from :meth:`trimmed`.
        """

    def conditions(
        self, result: RunResult, excused: frozenset[int] = frozenset()
    ) -> ValidationReport:
        """ε-agreement + ε-validity containment on one finished run."""
        violations: list[str] = []
        decisions = {
            pid: value
            for pid, value in sorted(result.decisions.items())
            if pid not in excused
        }

        undecided = sorted(
            pid
            for pid, value in decisions.items()
            if not isinstance(value, float) or value != value
        )
        all_decided = not undecided
        if undecided:
            violations.append(
                f"correct processors {undecided} hold no finite value"
            )
        settled = {
            pid: value
            for pid, value in sorted(decisions.items())
            if pid not in undecided
        }

        agreement = True
        if settled:
            low_pid = min(settled, key=lambda pid: (settled[pid], pid))
            high_pid = max(settled, key=lambda pid: (settled[pid], pid))
            spread = settled[high_pid] - settled[low_pid]
            # A strict float comparison would flag rounding dust; one ulp of
            # slack keeps the check about the protocol, not the FPU.
            if spread > self.eps * (1 + 1e-12):
                agreement = False
                violations.append(
                    f"eps-agreement violated: |{settled[high_pid]!r} - "
                    f"{settled[low_pid]!r}| = {spread!r} > eps={self.eps!r} "
                    f"(processors {high_pid} vs {low_pid})"
                )

        validity = True
        correct_inputs = [self.inputs[pid] for pid in sorted(result.correct)]
        if settled and correct_inputs:
            low, high = min(correct_inputs), max(correct_inputs)
            outside = sorted(
                pid
                for pid, value in settled.items()
                if not low - 1e-12 <= value <= high + 1e-12
            )
            if outside:
                validity = False
                violations.append(
                    f"eps-validity violated: {outside} decided outside the "
                    f"correct-input range [{low!r}, {high!r}]: "
                    f"{[settled[pid] for pid in outside]!r}"
                )

        return ValidationReport(
            agreement=agreement,
            validity=validity,
            all_decided=all_decided,
            violations=violations,
            excused=frozenset(excused) & result.correct,
        )

    def describe(self) -> dict[str, object]:
        row = super().describe()
        row["eps"] = self.eps
        row["convergence_rate"] = str(self.contraction_rate())
        return row


class ApproxProcessor(Processor):
    """The shared round engine: broadcast, collect, substitute, update.

    Round ``r`` is phase ``r``: at phase 1 each processor broadcasts its
    initial value; at phase ``r > 1`` it first absorbs the round-``r−1``
    values delivered from phase ``r−1`` (applying the algorithm's update
    rule) and then broadcasts the result tagged for round ``r``.  The
    final round's messages arrive in :meth:`on_final`, so ``m`` phases
    yield exactly ``m`` contractions.
    """

    def __init__(self, algorithm: ApproximateAgreement, pid: ProcessorId) -> None:
        self.algorithm = algorithm
        self.value = algorithm.inputs[pid]
        self.rounds_applied = 0

    def _collect(self, round_index: int, inbox: Sequence[Envelope]) -> list[float]:
        """The n-multiset for *round_index*: own value fills every gap.

        A sender that sent nothing, sent a payload that is not a
        :class:`RoundValue`, tagged the wrong round, or shipped a
        non-finite float is treated exactly like a silent one — its slot
        is substituted with the collector's own value, the standard
        defense that keeps the multiset at size ``n``.
        """
        received: dict[ProcessorId, float] = {}
        for envelope in inbox:
            payload = envelope.payload
            if (
                isinstance(payload, RoundValue)
                and payload.round_index == round_index
                and isinstance(payload.value, float)
                and payload.value == payload.value  # rejects NaN
                and abs(payload.value) != float("inf")
                and 0 <= envelope.src < self.ctx.n
                and envelope.src != self.ctx.pid
            ):
                received.setdefault(envelope.src, payload.value)
        values = [self.value]
        for q in self.ctx.others():
            values.append(received.get(q, self.value))
        return values

    def _apply_round(self, round_index: int, inbox: Sequence[Envelope]) -> None:
        self.value = self.algorithm.update(self._collect(round_index, inbox))
        self.rounds_applied += 1

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        if phase > 1:
            self._apply_round(phase - 1, inbox)
        payload = RoundValue(round_index=phase, value=self.value)
        return [(q, payload) for q in self.ctx.others()]

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        self._apply_round(self.algorithm.num_phases(), inbox)

    def decision(self) -> Value | None:
        return self.value


class RandomizedConsensus(AgreementAlgorithm):
    """Base for coin-flipping binary consensus (Ben-Or-style).

    Subclasses get per-processor binary inputs, a configured coin (bias
    and local/common scope), and the variable-round contract: the runner
    stops as soon as every correct processor has decided, with
    ``num_phases()`` as the cap.
    """

    name: ClassVar[str] = "randomized-abstract"
    authenticated: ClassVar[bool] = False
    value_domain: ClassVar[frozenset[Any] | None] = frozenset({0, 1})
    phase_bound: ClassVar[str | None] = "derived"
    message_bound: ClassVar[str | None] = "derived"
    variable_rounds: ClassVar[bool] = True
    uses_coins: ClassVar[bool] = True
    family: ClassVar[str] = "randomized"

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
        super().__init__(n, t)
        if (
            isinstance(max_rounds, bool)
            or not isinstance(max_rounds, int)
            or max_rounds < 1
        ):
            raise ConfigurationError(
                f"max_rounds must be an int of at least 1, got {max_rounds!r}"
            )
        # Stored as ``m`` so the declared phase/message bounds can close
        # over it through bound_parameters().
        self.m = max_rounds
        if not 0.0 <= coin_bias <= 1.0:
            raise ConfigurationError(
                f"coin_bias must be in [0, 1], got {coin_bias!r}"
            )
        if coin_scope not in ("local", "common"):
            raise ConfigurationError(f"unknown coin scope {coin_scope!r}")
        self.coin_bias = float(coin_bias)
        self.coin_scope = coin_scope
        if inputs is None:
            # Alternating inputs by default: a mixed start exercises the
            # coin path instead of the deterministic unanimous fast path.
            inputs = tuple(pid % 2 for pid in range(n))
        self.inputs = tuple(int(v) for v in inputs)
        if len(self.inputs) != n or any(v not in (0, 1) for v in self.inputs):
            raise ConfigurationError(
                f"{self.name} needs one binary input per processor; got "
                f"{self.inputs!r} for n={n}"
            )

    @property
    def max_rounds(self) -> int:
        """The round cap (alias of the bound parameter ``m``)."""
        return self.m

    def coin_source(self, seed: int | None) -> CoinSource:
        """The coin stream of one run of this configuration.  No *seed*
        is seed 0, so every path that runs it without one (``measure()``,
        the sweeps, a request with no ``coin_seed``) flips the same coins."""
        return CoinSource(
            0 if seed is None else seed, bias=self.coin_bias, scope=self.coin_scope
        )

    def conditions(
        self, result: RunResult, excused: frozenset[int] = frozenset()
    ) -> ValidationReport:
        """Agreement + unanimity-validity; undecided-at-cap is not a failure."""
        violations: list[str] = []
        decisions = {
            pid: value
            for pid, value in sorted(result.decisions.items())
            if pid not in excused
        }
        decided = {
            pid: value
            for pid, value in sorted(decisions.items())
            if value is not None
        }

        values = set(decided.values())
        agreement = len(values) <= 1
        if not agreement:
            per_value = {
                repr(v): sorted(p for p, d in decided.items() if d == v)
                for v in sorted(values)
            }
            violations.append(f"agreement violated: {per_value}")

        validity = True
        correct_inputs = {self.inputs[pid] for pid in sorted(result.correct)}
        if decided and len(correct_inputs) == 1:
            (unanimous,) = correct_inputs
            wrong = sorted(
                pid for pid, value in decided.items() if value != unanimous
            )
            if wrong:
                validity = False
                violations.append(
                    f"validity violated: correct inputs are unanimously "
                    f"{unanimous!r} but {wrong} decided otherwise"
                )

        # Probabilistic termination: a processor still undecided when the
        # round cap ran out is a statistics question, not a per-run bug.
        return ValidationReport(
            agreement=agreement,
            validity=validity,
            all_decided=True,
            violations=violations,
            excused=frozenset(excused) & result.correct,
        )
