"""Agreement-as-a-service: multiplexed instances under load.

The serving layer the ROADMAP's "millions of users" story asks for:
many concurrent agreement instances multiplexed over the self-healing
worker pool, with run-class deduplication, per-worker setup caching and
capacity metrics (agreements/sec, latency percentiles) exported through
:mod:`repro.obs.export`.

Pieces:

* :mod:`repro.service.request` — the ``repro-service/1`` wire objects
  (``AgreementRequest``, ``RequestOutcome``);
* :mod:`repro.service.loadgen` — seeded Poisson open-loop traffic with a
  weighted workload mix (``generate_schedule``, ``parse_mix``);
* :mod:`repro.service.scheduler` — wave dispatch over
  :func:`~repro.analysis.parallel.run_tasks`, each stripe one
  :func:`~repro.core.batch.run_batch` call (``Scheduler``);
* :mod:`repro.service.cache` — per-worker arena + digest-table memo;
* :mod:`repro.service.stats` — nearest-rank percentile summaries and the
  agreements/sec product metric (``ServiceStats``).

See ``docs/service.md`` for the capacity-planning guide and the latency
methodology, and ``repro loadgen`` / ``repro serve`` for the CLI pair.
"""
