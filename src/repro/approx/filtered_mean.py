"""Filtered-mean ε-agreement (SNIPPETS AlgorithmTwo's update rule, typed).

Like :class:`~repro.approx.midpoint.MidpointApprox` but the update is the
*mean* of the trimmed multiset rather than its midpoint.  The mean of
``n − 2t`` survivors shifts by at most ``t/(n − 2t)`` of the correct
diameter when ``t`` entries are exchanged, giving the declared
``convergence_rate`` of ``t / (n - 2*t)`` — faster than ``1/2`` whenever
``n > 4t``, the regime where averaging beats the midpoint.

``t ≥ 1`` is required: at ``t = 0`` the expression degenerates to rate 0
(no adversary, one round of exchange already agrees exactly) and the
contraction-rate discipline — a rate strictly inside ``(0, 1)`` — has
nothing to say.
"""

from __future__ import annotations

from typing import ClassVar, Sequence

from repro.approx.base import ApproximateAgreement
from repro.core.errors import ConfigurationError

__all__ = ["FilteredMeanApprox"]


class FilteredMeanApprox(ApproximateAgreement):
    """Trim ``t`` per side, move to the mean of the survivors."""

    name: ClassVar[str] = "filtered-mean-approx"
    phase_bound: ClassVar[str] = "m"
    message_bound: ClassVar[str] = "m * n * (n - 1)"
    convergence_rate: ClassVar[str] = "t / (n - 2*t)"

    def __init__(
        self,
        n: int,
        t: int,
        *,
        eps: float = 0.25,
        inputs: Sequence[float] | None = None,
    ) -> None:
        if t < 1:
            raise ConfigurationError(
                "filtered-mean ε-agreement needs t >= 1 (its contraction "
                "rate t/(n-2t) degenerates at t=0)"
            )
        if n <= 3 * t:
            raise ConfigurationError(
                f"filtered-mean ε-agreement needs n > 3t; got n={n}, t={t}"
            )
        super().__init__(n, t, eps=eps, inputs=inputs)

    def update(self, values: Sequence[float]) -> float:
        survivors = self.trimmed(values)
        return sum(survivors) / len(survivors)
