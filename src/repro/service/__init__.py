"""Agreement-as-a-service: multiplexed instances under load.

The serving layer the ROADMAP's "millions of users" story asks for:
many concurrent agreement instances multiplexed over the self-healing
worker pool, with run-class deduplication, per-worker setup caching and
capacity metrics (agreements/sec, latency percentiles) exported through
:mod:`repro.obs.export`.

Pieces:

* :mod:`repro.service.request` — the ``repro-service/1`` wire objects
  (:class:`AgreementRequest`, :class:`RequestOutcome`);
* :mod:`repro.service.loadgen` — seeded Poisson open-loop traffic with a
  weighted workload mix (:func:`generate_schedule`, :func:`parse_mix`);
* :mod:`repro.service.scheduler` — wave dispatch over
  :func:`~repro.analysis.parallel.run_tasks`, each stripe one
  :func:`~repro.core.batch.run_batch` call (:class:`Scheduler`);
* :mod:`repro.service.cache` — per-worker arena + digest-table memo;
* :mod:`repro.service.stats` — nearest-rank percentile summaries and the
  agreements/sec product metric (:class:`ServiceStats`).

See ``docs/service.md`` for the capacity-planning guide and the latency
methodology, and ``repro loadgen`` / ``repro serve`` for the CLI pair.
"""

from repro.service.cache import reset_worker_cache
from repro.service.loadgen import (
    DEFAULT_MIX,
    MixItem,
    MixSpecError,
    generate_schedule,
    parse_mix,
)
from repro.service.request import (
    SERVICE_SCHEMA,
    AgreementRequest,
    RequestFormatError,
    RequestOutcome,
    ScheduledRequest,
)
from repro.service.scheduler import (
    Scheduler,
    ServiceReport,
    ServiceStripe,
    StripeResult,
)
from repro.service.stats import (
    LatencySummary,
    ServiceStats,
    build_stats,
    percentile,
)

__all__ = [
    "DEFAULT_MIX",
    "SERVICE_SCHEMA",
    "AgreementRequest",
    "LatencySummary",
    "MixItem",
    "MixSpecError",
    "RequestFormatError",
    "RequestOutcome",
    "ScheduledRequest",
    "Scheduler",
    "ServiceReport",
    "ServiceStats",
    "ServiceStripe",
    "StripeResult",
    "build_stats",
    "generate_schedule",
    "parse_mix",
    "percentile",
    "reset_worker_cache",
]
