"""The one mergeable counter value, from the signature service up.

A :class:`Counters` is handed to whatever does countable work — a run's
signature service, a service stripe's setup cache — and that code adds to
its fields directly.  Values merge with ``+``: a run's counters sum into
its batch, a batch's into its stripe, stripes into a traffic run.  No
code reads a running total before and after a call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class Counters:
    """Work counts of a run, a :func:`~repro.core.batch.run_batch` call, a
    service stripe or a traffic run.

    One mergeable value: ``a + b`` adds every field, ``Counters()`` is the
    identity, so stripes sum into a run without naming a field.
    """

    #: Cases served (one per batch case or service request).
    runs: int = 0
    #: Distinct run classes actually executed (kernel or scalar).
    unique_runs: int = 0
    #: Outcomes replicated from an already-executed class mate.
    replicated_runs: int = 0
    #: Unique classes written down by a closed-form kernel.
    kernel_runs: int = 0
    #: Unique classes (plus non-dedupable cases) run through the runner.
    scalar_runs: int = 0
    #: Payload digests answered from a shared digest table (hits) or
    #: computed by the canonical walk plus hash (misses).
    digest_hits: int = 0
    digest_misses: int = 0
    #: Calls of the signature service's ``sign`` and ``verify`` (one link
    #: each), and of ``SignatureChain.verify`` (repeats answered from the
    #: service's per-run verdict memo included).
    sign_calls: int = 0
    verify_calls: int = 0
    chain_verify_calls: int = 0
    #: Service setup-cache lookups (arena and digest table per configuration).
    setup_hits: int = 0
    setup_misses: int = 0

    def counts(self) -> dict[str, int]:
        """Every counter by field name (a subclass's own fields excluded)."""
        return {f.name: getattr(self, f.name) for f in _FIELDS}

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in _FIELDS}
        )

    @property
    def digest_hit_rate(self) -> float | None:
        """Fraction of digest lookups served by the table (``None``: unused)."""
        total = self.digest_hits + self.digest_misses
        return (self.digest_hits / total) if total else None

    def to_json_dict(self) -> dict[str, Any]:
        """Flat JSON form: every field plus ``digest_hit_rate``."""
        rate = self.digest_hit_rate
        return {
            **self.counts(),
            "digest_hit_rate": round(rate, 4) if rate is not None else None,
        }


_FIELDS = dataclasses.fields(Counters)
