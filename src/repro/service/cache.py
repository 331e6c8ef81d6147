"""Per-worker setup cache: amortise arenas and digest tables across stripes.

Constructing an algorithm and warming its signature-digest table is pure
per-``(algorithm, n, t, params)`` work — exactly the key two requests
share when they hit the same *configuration* of the zoo.  The service
layer therefore memoizes, per worker process:

* the **arena** — one configured
  :class:`~repro.core.protocol.AgreementAlgorithm` instance serving every
  run of that configuration (processors are minted fresh per run; the
  instance itself is stateless across runs, the same invariant
  :func:`repro.core.batch.run_batch` relies on);
* the **digest table** — one
  :class:`~repro.crypto.signatures.SharedDigestTable` per configuration,
  so a payload's signature digest is computed once per worker lifetime
  instead of once per request.

The cache is deliberately *process-local* (one module-level dict per
worker, read through :func:`setup`): digest tables are plain dicts, and
sharing them across processes would cost more in pickling than it saves
in hashing.  A scheduler's workers live as long as the
scheduler, so every cache — theirs, and the serving process's own, which
serves one-stripe waves — lasts the whole traffic run, and each process
misses a configuration at most once.  Each lookup counts into the
stripe's :class:`~repro.core.counters.Counters`, so ``repro loadgen``'s
hit and miss counters sum over all of them.

:func:`build_arena` is the one place an arena is built: ``repro serve``
and ``repro loadgen`` call it once per configuration while parsing, so a
configuration its algorithm rejects fails there, not in a worker.
"""

from __future__ import annotations

from typing import Any

from repro.algorithms.registry import get
from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.core.protocol import AgreementAlgorithm
from repro.crypto.signatures import SharedDigestTable
from repro.service.request import RequestFormatError

__all__ = ["build_arena", "reset_worker_cache", "setup"]

#: The cache key: ``AgreementRequest.config_key()``'s shape.
ConfigKey = tuple[str, int, int, tuple[tuple[str, Any], ...]]


def build_arena(key: ConfigKey) -> AgreementAlgorithm:
    """The configured algorithm instance *key* names.

    Raises:
        RequestFormatError: when the algorithm rejects ``(n, t, params)``.
    """
    name, n, t, params = key
    try:
        return get(name)(n, t, **dict(params))
    except (ConfigurationError, TypeError) as error:
        shown = f", params={dict(params)}" if params else ""
        raise RequestFormatError(
            f"{name} rejects n={n}, t={t}{shown}: {error}"
        ) from None


#: This process's arena and digest table per configuration.
_WORKER_CACHE: dict[ConfigKey, tuple[AgreementAlgorithm, SharedDigestTable]] = {}


def setup(key: ConfigKey, counters: Counters) -> tuple[AgreementAlgorithm, SharedDigestTable]:
    """The arena and digest table for *key*, building both on first use;
    the lookup counts as a setup hit or miss into *counters*."""
    entry = _WORKER_CACHE.get(key)
    if entry is None:
        counters.setup_misses += 1
        entry = _WORKER_CACHE[key] = (build_arena(key), SharedDigestTable())
    else:
        counters.setup_hits += 1
    return entry


def reset_worker_cache() -> None:
    """Drop the process-local cache (tests; also frees arenas)."""
    _WORKER_CACHE.clear()
