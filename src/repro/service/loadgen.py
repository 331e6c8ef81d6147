"""Seeded open-loop traffic generation for the agreement service.

The generator turns ``(requests, rate, seed, mix)`` into a deterministic
:class:`~repro.service.request.ScheduledRequest` list:

* **arrivals** are a Poisson process — exponential inter-arrival gaps at
  *rate* requests/sec, drawn from ``random.Random(seed)`` — the standard
  open-loop model: arrival times never depend on service progress, so
  overload shows up as queueing delay instead of silently throttled
  offered load;
* the **workload mix** is a weighted choice over
  :class:`MixItem` configurations, parsed from a compact spec string
  (see :func:`parse_mix`), with input values drawn 0/1 per request;
* an optional **fault rate** attaches a seeded benign
  :func:`~repro.transport.faults.random_plan` to that fraction of the
  *exact*-family requests (approx/randomized chaos has its own harness
  in :mod:`repro.fuzz`);
* **randomized** entries (``family == "randomized"``) get a per-request
  coin seed derived by hashing ``(seed, request id)``, so verdicts stay
  reproducible while coin streams stay independent.

Everything downstream — scheduler, verdicts, summary — is a pure
function of the generated schedule, which is why ``repro loadgen`` with
a fixed seed prints the same verdict multiset on every run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.algorithms.registry import get
from repro.service.cache import build_arena
from repro.service.request import AgreementRequest, ScheduledRequest

__all__ = [
    "MixItem",
    "MixSpecError",
    "DEFAULT_MIX",
    "parse_mix",
    "generate_schedule",
]

#: The default workload mix: two exact-BA configurations (one with a
#: batch kernel) plus an ε-agreement instance — enough to exercise the
#: batch, kernel and scalar service paths in one traffic run.
DEFAULT_MIX = (
    "algorithm-3:n=60,t=2:3; phase-king:n=24,t=2:2; midpoint-approx:n=8,t=2:1"
)


class MixSpecError(ValueError):
    """A ``--mix`` clause could not be parsed or names an unknown target."""


@dataclass(frozen=True, slots=True)
class MixItem:
    """One weighted configuration of the traffic mix."""

    algorithm: str
    n: int
    t: int
    params: tuple[tuple[str, Any], ...] = ()
    weight: float = 1.0

    @property
    def family(self) -> str:
        """The registry family (exact / approx / randomized)."""
        return get(self.algorithm).family


def _parse_param(key: str, text: str) -> Any:
    """Parse one ``key=value`` as int when possible, else float."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise MixSpecError(
                f"mix parameter {key}={text!r} is neither int nor float"
            ) from None


def parse_mix(spec: str) -> list[MixItem]:
    """Parse a mix spec: ``NAME:k=v,k=v[:WEIGHT]`` clauses joined by ``;``.

    Example::

        algorithm-3:n=60,t=2:3; phase-king:n=24,t=2:2; ben-or:n=11,t=2:1

    ``n`` and ``t`` are required in every clause; remaining pairs become
    constructor params (``s``, ``eps``, ``max_rounds`` …).  The trailing
    ``:WEIGHT`` defaults to 1.  Raises :class:`MixSpecError` on unknown
    algorithms, missing ``n``/``t``, or non-positive weights.
    """
    items: list[MixItem] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        pieces = clause.split(":")
        if len(pieces) not in (2, 3):
            raise MixSpecError(
                f"mix clause {clause!r} is not NAME:k=v,k=v[:WEIGHT]"
            )
        name = pieces[0].strip()
        try:
            info = get(name)
        except KeyError as error:
            raise MixSpecError(str(error)) from None
        pairs: dict[str, Any] = {}
        for pair in pieces[1].split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise MixSpecError(f"mix clause {clause!r}: {pair!r} is not k=v")
            pairs[key.strip()] = _parse_param(key.strip(), value.strip())
        if "n" not in pairs or "t" not in pairs:
            raise MixSpecError(f"mix clause {clause!r} must set n= and t=")
        weight = 1.0
        if len(pieces) == 3:
            try:
                weight = float(pieces[2])
            except ValueError:
                raise MixSpecError(
                    f"mix clause {clause!r}: weight {pieces[2]!r} is not a number"
                ) from None
        if weight <= 0:
            raise MixSpecError(f"mix clause {clause!r}: weight must be positive")
        n = int(pairs.pop("n"))
        t = int(pairs.pop("t"))
        items.append(
            MixItem(
                algorithm=info.name,
                n=n,
                t=t,
                params=tuple(sorted(pairs.items())),
                weight=weight,
            )
        )
    if not items:
        raise MixSpecError(f"mix spec {spec!r} contains no clauses")
    return items


def _derived_seed(seed: int, request_id: int, label: str) -> int:
    """A per-request 63-bit seed, stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{label}:{request_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def generate_schedule(
    *,
    requests: int,
    rate: float,
    seed: int,
    mix: Sequence[MixItem] | str = DEFAULT_MIX,
    fault_rate: float = 0.0,
) -> list[ScheduledRequest]:
    """The deterministic open-loop schedule for one traffic run.

    Args:
        requests: how many requests to generate.
        rate: mean offered load in requests/sec (Poisson arrivals).
        seed: master seed; every random draw derives from it.
        mix: a :func:`parse_mix` spec string or pre-parsed items.
        fault_rate: fraction of *exact*-family requests that carry a
            seeded benign fault plan (in ``[0, 1]``).

    Returns:
        ``ScheduledRequest`` list in arrival order, request ids ``0..N-1``
        in arrival order.

    Raises:
        ValueError: on a bad argument, including a mix configuration its
            algorithm rejects (:class:`~repro.service.request.RequestFormatError`).
    """
    if requests < 0:
        raise ValueError(f"requests must be >= 0, got {requests}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    items = parse_mix(mix) if isinstance(mix, str) else list(mix)
    if not items:
        raise MixSpecError("empty mix")
    weights = [item.weight for item in items]
    # Prototype instances answer num_phases() for fault-plan shaping —
    # built once per mix item, never run.  Building them also rejects a
    # configuration its algorithm rejects before any request is served.
    prototypes = {
        item: build_arena((item.algorithm, item.n, item.t, item.params))
        for item in items
    }
    rng = random.Random(seed)
    schedule: list[ScheduledRequest] = []
    arrival = 0.0
    for request_id in range(requests):
        arrival += rng.expovariate(rate)
        item = rng.choices(items, weights=weights)[0]
        prototype = prototypes[item]
        if prototype.value_domain is not None:
            value = rng.choice(sorted(prototype.value_domain, key=repr))
        else:
            value = rng.randint(0, 1)
        plan = None
        if (
            fault_rate > 0.0
            and item.family == "exact"
            and rng.random() < fault_rate
        ):
            from repro.transport.faults import random_plan

            plan = random_plan(
                _derived_seed(seed, request_id, "fault"),
                n=item.n,
                t=item.t,
                num_phases=prototype.num_phases(),
                rate=0.5,
            )
            if plan.is_empty:
                plan = None
        coin_seed = (
            _derived_seed(seed, request_id, "coin")
            if item.family == "randomized"
            else None
        )
        schedule.append(
            ScheduledRequest(
                arrival_s=arrival,
                request=AgreementRequest(
                    request_id=request_id,
                    algorithm=item.algorithm,
                    n=item.n,
                    t=item.t,
                    value=value,
                    params=item.params,
                    fault_plan=plan,
                    coin_seed=coin_seed,
                ),
            )
        )
    return schedule
