"""Midpoint ε-agreement (SNIPPETS AlgorithmOne's update rule, typed).

Each round every processor broadcasts its value, collects the full
n-multiset (substituting its own value for missing or junk entries),
sorts, discards the ``t`` lowest and ``t`` highest, and moves to the
*midpoint* of the survivors: ``(min + max) / 2``.

Contraction argument (n > 3t): after trimming, every correct processor's
surviving window is contained in the correct-value range, and any two
correct processors' windows overlap in at least ``n − 2t − t ≥ 1``
common entries of the sorted global multiset; taking midpoints of
overlapping windows halves the maximum distance between any two correct
values — the declared ``convergence_rate`` of ``1/2``.
"""

from __future__ import annotations

from typing import ClassVar, Sequence

from repro.approx.base import ApproximateAgreement
from repro.core.errors import ConfigurationError

__all__ = ["MidpointApprox"]


class MidpointApprox(ApproximateAgreement):
    """Trim ``t`` per side, move to the midpoint of the survivors."""

    name: ClassVar[str] = "midpoint-approx"
    phase_bound: ClassVar[str] = "m"
    message_bound: ClassVar[str] = "m * n * (n - 1)"
    convergence_rate: ClassVar[str] = "1 / 2"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        eps: float = 0.25,
        inputs: Sequence[float] | None = None,
    ) -> None:
        if n <= 3 * t:
            raise ConfigurationError(
                f"midpoint ε-agreement needs n > 3t; got n={n}, t={t}"
            )
        super().__init__(n, t, eps=eps, inputs=inputs)

    def update(self, values: Sequence[float]) -> float:
        survivors = self.trimmed(values)
        return (survivors[0] + survivors[-1]) / 2.0
