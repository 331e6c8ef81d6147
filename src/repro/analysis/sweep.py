"""Parameter sweeps: run scenario grids and collect cost records.

This is the workhorse behind the benchmark harness and EXPERIMENTS.md —
the paper's evaluation is a family of worst-case cost claims over
``(n, t, s, α)``, so reproducing it means sweeping those parameters and
recording messages / signatures / phases per run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping

from repro.adversary.base import Adversary
from repro.approx.coins import coins_for
from repro.approx.validation import check_run_conditions
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
    """
    result = run(
        algorithm,
        value,
        adversary,
        record_history=record_history,
        sinks=sinks,
        coins=coins_for(algorithm),
    )
    # Family-aware: exact BA for the zoo, ε-agreement / randomized
    # conditions for the workloads — float-ε sweep grids judge the right
    # predicate instead of demanding bit-equality of float decisions.
    report = check_run_conditions(result, algorithm)
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
        message_bound=algorithm.upper_bound_messages(),
        agreement_ok=report.ok,
    )


def sweep(
    configurations: Iterable[tuple[Mapping[str, object], Callable[[], AgreementAlgorithm]]],
    values: Iterable[Value] = (0, 1),
    adversaries: Iterable[tuple[str, Callable[[AgreementAlgorithm], Adversary | None]]] = (
        ("fault-free", lambda _: None),
    ),
) -> list[SweepPoint]:
    """Cartesian sweep: configurations × adversaries × values."""
    points: list[SweepPoint] = []
    adversaries = list(adversaries)
    values = list(values)
    for params, factory in configurations:
        for adversary_name, adversary_factory in adversaries:
            for value in values:
                algorithm = factory()
                points.append(
                    measure(
                        algorithm,
                        value,
                        adversary_factory(algorithm),
                        adversary_name=adversary_name,
                        params=params,
                    )
                )
    return points


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
