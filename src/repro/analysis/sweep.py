"""Sweep points: the cost record of one scenario, and the worst case.

The paper's evaluation is a family of worst-case cost claims over
``(n, t, s, α)``.  :func:`sweep_points` condenses a finished
:func:`~repro.core.batch.run_batch` call into :class:`SweepPoint`
records (messages / signatures / phases); :func:`measure` is a one-case
batch, :func:`~repro.analysis.parallel.sweep_parallel` runs whole grids
through the same engine, and :func:`worst_case` picks the point a bound
speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from repro.adversary.base import Adversary
from repro.core.batch import BatchCase, BatchResult, run_batch
from repro.core.protocol import AgreementAlgorithm
# Unused here; perfbench/tracing.py wraps the runner under this name.
from repro.core.runner import run  # noqa: F401
from repro.core.types import Value


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One measured execution."""

    algorithm: str
    n: int
    t: int
    params: tuple[tuple[str, object], ...]
    adversary: str
    value: Value
    messages: int
    signatures: int
    phases_used: int
    phases_configured: int
    message_bound: int | None
    agreement_ok: bool

    def param(self, key: str, default: object = None) -> object:
        return dict(self.params).get(key, default)

    def as_row(self) -> dict[str, object]:
        """Flatten the point into a table row.

        Sweep params are appended as extra columns.  A param whose name
        collides with a base column (e.g. a grid swept over ``"n"``) is
        prefixed with ``param_`` — repeatedly, until the name is free —
        instead of silently overwriting the measured value.  Float axes
        (``eps``, ``coin_bias``) land verbatim; they are never folded into
        a string here, so CSV/JSON export keeps their exact value.
        """
        row: dict[str, object] = {
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "adversary": self.adversary,
            "value": self.value,
            "messages": self.messages,
            "signatures": self.signatures,
            "phases": self.phases_configured,
            "bound": self.message_bound,
            "ok": self.agreement_ok,
        }
        for key, value in self.params:
            column = key
            while column in row:
                column = f"param_{column}"
            row[column] = value
        return row


def sweep_points(
    algorithm: AgreementAlgorithm,
    cases: Sequence[BatchCase],
    params: Sequence[tuple[tuple[str, object], ...]],
    result: BatchResult,
) -> list[SweepPoint]:
    """One :class:`SweepPoint` per case of the finished batch *result*,
    in case order; *params* holds each case's sweep parameters.  The
    message bound is the one the batch judged its outcomes against."""
    return [
        SweepPoint(
            algorithm=algorithm.name,
            n=algorithm.n,
            t=algorithm.t,
            params=case_params,
            adversary=case.adversary_name,
            value=case.value,
            messages=outcome.messages_by_correct,
            signatures=outcome.signatures_by_correct,
            phases_used=outcome.phases_used,
            phases_configured=outcome.phases_configured,
            message_bound=result.declared.messages,
            agreement_ok=outcome.agreement_ok,
        )
        for case, case_params, outcome in zip(cases, params, result.outcomes)
    ]


def measure(
    algorithm: AgreementAlgorithm,
    value: Value,
    adversary: Adversary | None = None,
    *,
    adversary_name: str = "fault-free",
    params: Mapping[str, object] | None = None,
) -> SweepPoint:
    """Run one scenario as a one-case :func:`~repro.core.batch.run_batch`
    and condense it into a :class:`SweepPoint`.

    A coin-flipping algorithm runs on the default coin stream
    (:meth:`~repro.core.protocol.AgreementAlgorithm.coin_source`).
    ``agreement_ok`` is false when :func:`~repro.core.validation.judge_run`
    fails the run: its conditions, or a declared bound.
    """
    case = BatchCase(
        value=value,
        adversary_name=adversary_name,
        adversary_factory=None if adversary is None else (lambda _: adversary),
    )
    result = run_batch(algorithm, [case])
    return sweep_points(algorithm, [case], [tuple(sorted((params or {}).items()))], result)[0]


#: Fields of :class:`SweepPoint` that :func:`worst_case` may maximise.
WORST_CASE_KEYS = frozenset(
    f.name for f in fields(SweepPoint) if f.name not in ("params",)
)


def worst_case(points: Iterable[SweepPoint], key: str = "messages") -> SweepPoint:
    """The point maximising *key* — the paper's bounds are worst-case.

    *key* must name a :class:`SweepPoint` field; besides the default
    ``"messages"``, the bound-relevant choices are ``"signatures"`` (the
    Theorem 1 cost measure) and ``"phases_used"`` (the trade-off axis).
    An unknown key raises :class:`ValueError`.
    """
    if key not in WORST_CASE_KEYS:
        raise ValueError(
            f"unknown worst_case key {key!r}; expected one of "
            f"{sorted(WORST_CASE_KEYS)}"
        )
    points = list(points)
    if not points:
        raise ValueError("no sweep points")
    return max(points, key=lambda p: getattr(p, key))
