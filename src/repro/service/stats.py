"""Capacity metrics for a traffic run: throughput and latency percentiles.

The product metric of the service layer is **agreements/sec** — completed
instances whose verdict did not fail, per wall-clock second — sitting next
to the engine metric messages/sec.  Latency is summarised per *stage*
(end-to-end, queue wait, in-service) as nearest-rank percentiles:
p50/p95/p99 over the measured samples, no interpolation, so a reported
number is always one that actually occurred.  The work counts are the
stripes' summed :class:`~repro.core.counters.Counters`, which
:class:`ServiceStats` extends.  Everything here is arithmetic over
finished :class:`~repro.service.request.RequestOutcome` records — no
clocks, no I/O — which is what makes the unit tests exact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.counters import Counters
from repro.core.validation import BENIGN

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.service.request import RequestOutcome

__all__ = ["percentile", "LatencySummary", "ServiceStats", "build_stats"]

#: The quantiles every latency family reports, in export order.
QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (``0 < q <= 1``).

    The classic ceil(q·N)-th order statistic: an actual sample, never an
    interpolation.  Raises :class:`ValueError` on an empty sample set or
    a quantile outside ``(0, 1]``.
    """
    return _nearest_rank(sorted(samples), q)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of samples already in ascending order."""
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    # The 1e-9 slack keeps exact ranks exact: 0.99 * 100 floats to
    # 99.00000000000001, which a bare ceil would round up to rank 100.
    rank = max(1, math.ceil(len(ordered) * q - 1e-9))
    return ordered[rank - 1]


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Nearest-rank percentile summary of one latency family."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "LatencySummary | None":
        """Summarise *samples*; ``None`` when there are none."""
        values = list(samples)
        if not values:
            return None
        # Summed in sample order, then sorted in place once for all
        # three quantiles.
        mean_s = sum(values) / len(values)
        values.sort()
        p50, p95, p99 = (_nearest_rank(values, q) for q in QUANTILES)
        return cls(
            count=len(values),
            mean_s=mean_s,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            max_s=values[-1],
        )

    def to_json_dict(self) -> dict[str, Any]:
        """Flat JSON form (rounded to microseconds)."""
        return {
            "count": self.count,
            "mean_s": round(self.mean_s, 6),
            "p50_s": round(self.p50_s, 6),
            "p95_s": round(self.p95_s, 6),
            "p99_s": round(self.p99_s, 6),
            "max_s": round(self.max_s, 6),
        }


@dataclass(slots=True)
class ServiceStats(Counters):
    """Everything a capacity planner reads off one finished traffic run.

    The inherited :class:`~repro.core.counters.Counters` fields are the sum
    over every stripe of the run.
    """

    requests: int = 0
    #: Requests whose verdict did not fail, ``benign`` ones included.
    ok: int = 0
    failed: int = 0
    #: The ``ok`` requests whose divergence the injected faults account for.
    benign: int = 0
    wall_s: float = 0.0
    waves: int = 0
    messages_total: int = 0
    signatures_total: int = 0
    e2e: LatencySummary | None = None
    queue: LatencySummary | None = None
    service: LatencySummary | None = None
    #: Per-algorithm request/ok counts, keyed by registry name.
    per_algorithm: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def agreements_per_sec(self) -> float | None:
        """Completions that did not fail per wall second (the product metric)."""
        return (self.ok / self.wall_s) if self.wall_s > 0 else None

    @property
    def requests_per_sec(self) -> float | None:
        """All completions (ok or not) per wall second."""
        return (self.requests / self.wall_s) if self.wall_s > 0 else None

    @property
    def messages_per_sec(self) -> float | None:
        """Correct-sender messages moved per wall second."""
        return (self.messages_total / self.wall_s) if self.wall_s > 0 else None

    @property
    def dedup_ratio(self) -> float | None:
        """Requests served per run actually executed (``None``: no runs)."""
        return (self.requests / self.unique_runs) if self.unique_runs else None

    def to_json_dict(self) -> dict[str, Any]:
        """Flat JSON form (the ``repro loadgen``/``serve`` summary)."""

        def rate(value: float | None) -> float | None:
            return round(value, 2) if value is not None else None

        return {
            **Counters.to_json_dict(self),
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "benign": self.benign,
            "wall_s": round(self.wall_s, 6),
            "waves": self.waves,
            "agreements_per_sec": rate(self.agreements_per_sec),
            "requests_per_sec": rate(self.requests_per_sec),
            "messages_total": self.messages_total,
            "signatures_total": self.signatures_total,
            "messages_per_sec": rate(self.messages_per_sec),
            "dedup_ratio": rate(self.dedup_ratio),
            "latency": {
                stage: summary.to_json_dict()
                for stage, summary in (
                    ("e2e", self.e2e),
                    ("queue", self.queue),
                    ("service", self.service),
                )
                if summary is not None
            },
            "per_algorithm": {
                name: dict(counts)
                for name, counts in sorted(self.per_algorithm.items())
            },
        }


def build_stats(
    outcomes: Sequence["RequestOutcome"],
    *,
    wall_s: float,
    waves: int,
    counters: Counters | None = None,
) -> ServiceStats:
    """Fold finished outcomes (plus the stripes' summed *counters*) into one summary."""
    ok = benign = messages = signatures = 0
    per_algorithm: dict[str, dict[str, int]] = {}
    for outcome in outcomes:
        passed = outcome.ok
        ok += passed
        benign += outcome.kind == BENIGN
        messages += outcome.messages
        signatures += outcome.signatures
        per = per_algorithm.get(outcome.algorithm)
        if per is None:
            per = per_algorithm[outcome.algorithm] = {"requests": 0, "ok": 0}
        per["requests"] += 1
        per["ok"] += passed
    return ServiceStats(
        **dataclasses.asdict(counters or Counters()),
        requests=len(outcomes),
        ok=ok,
        failed=len(outcomes) - ok,
        benign=benign,
        wall_s=wall_s,
        waves=waves,
        messages_total=messages,
        signatures_total=signatures,
        # One latency family's samples at a time.
        e2e=LatencySummary.from_samples(o.latency_s for o in outcomes),
        queue=LatencySummary.from_samples(o.queue_wait_s for o in outcomes),
        service=LatencySummary.from_samples(o.service_s for o in outcomes),
        per_algorithm=per_algorithm,
    )
