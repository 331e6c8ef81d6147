"""Sweep points: the cost record of one scenario, and the worst case.

The paper's evaluation is a family of worst-case cost claims over
``(n, t, s, α)``.  :func:`measure` condenses one run into a
:class:`SweepPoint` (messages / signatures / phases),
:func:`~repro.analysis.parallel.sweep_parallel` runs whole grids of them,
and :func:`worst_case` picks the point a bound speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping

from repro.adversary.base import Adversary
from repro.approx.coins import coins_for
from repro.approx.validation import declared_costs, judge_run
from repro.core.protocol import AgreementAlgorithm
from repro.core.runner import run
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


def measure(
    algorithm: AgreementAlgorithm,
    value: Value,
    adversary: Adversary | None = None,
    *,
    adversary_name: str = "fault-free",
    params: Mapping[str, object] | None = None,
    record_history: bool = False,
    sinks: tuple = (),
) -> SweepPoint:
    """Run one scenario and condense it into a :class:`SweepPoint`.

    *sinks* (``repro.obs`` event sinks) are forwarded to the runner so
    sweeps can opt into per-scenario traces; the default keeps the
    un-instrumented fast path.  A coin-flipping algorithm runs on the
    default coin stream (:func:`~repro.approx.coins.coins_for`).
    ``agreement_ok`` is false when :func:`~repro.approx.validation.judge_run`
    fails the run: its conditions, or a declared bound.
    """
    result = run(
        algorithm,
        value,
        adversary,
        record_history=record_history,
        sinks=sinks,
        coins=coins_for(algorithm),
    )
    declared = declared_costs(algorithm)
    verdict = judge_run(result, algorithm, declared)
    return SweepPoint(
        algorithm=algorithm.name,
        n=algorithm.n,
        t=algorithm.t,
        params=tuple(sorted((params or {}).items())),
        adversary=adversary_name,
        value=value,
        messages=result.metrics.messages_by_correct,
        signatures=result.metrics.signatures_by_correct,
        phases_used=result.metrics.last_active_phase,
        phases_configured=algorithm.num_phases(),
        message_bound=declared.messages,
        agreement_ok=not verdict.failed,
    )


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
