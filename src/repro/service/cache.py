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

The cache is deliberately *process-local* (one module-level instance per
worker, reached through :func:`worker_cache`): digest tables are plain
dicts, and sharing them across processes would cost more in pickling
than it saves in hashing.  A scheduler's workers live as long as the
scheduler, so every cache — theirs, and the serving process's own, which
serves one-stripe waves — lasts the whole traffic run, and each process
misses a configuration at most once.  ``repro loadgen``'s hit and miss
counters sum over all of them.

:func:`build_arena` is the one place an arena is built: ``repro serve``
and ``repro loadgen`` call it once per configuration while parsing, so a
configuration its algorithm rejects fails there, not in a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.algorithms.registry import get
from repro.core.errors import ConfigurationError
from repro.core.protocol import AgreementAlgorithm
from repro.crypto.signatures import SharedDigestTable
from repro.service.request import RequestFormatError

__all__ = ["SetupCache", "build_arena", "worker_cache", "reset_worker_cache"]

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


@dataclass(slots=True)
class _Entry:
    algorithm: AgreementAlgorithm
    table: SharedDigestTable


class SetupCache:
    """Memoized ``config_key -> (arena, digest table)`` with hit counters."""

    def __init__(self) -> None:
        self._entries: dict[ConfigKey, _Entry] = {}
        self.hits = 0
        self.misses = 0

    def setup(self, key: ConfigKey) -> tuple[AgreementAlgorithm, SharedDigestTable]:
        """The arena and digest table for *key*, building both on first use."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = _Entry(algorithm=build_arena(key), table=SharedDigestTable())
            self._entries[key] = entry
        else:
            self.hits += 1
        return entry.algorithm, entry.table

    def __len__(self) -> int:
        return len(self._entries)


_WORKER_CACHE: SetupCache | None = None


def worker_cache() -> SetupCache:
    """This process's :class:`SetupCache` (created on first use)."""
    # Process-local by design: each pool worker memoises its own arenas
    # and never expects cross-worker visibility.
    global _WORKER_CACHE  # noqa: BA009
    if _WORKER_CACHE is None:
        _WORKER_CACHE = SetupCache()
    return _WORKER_CACHE


def reset_worker_cache() -> None:
    """Drop the process-local cache (tests; also frees arenas)."""
    global _WORKER_CACHE
    _WORKER_CACHE = None
