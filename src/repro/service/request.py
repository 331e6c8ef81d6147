"""The service layer's wire objects: requests, arrivals, outcomes.

An :class:`AgreementRequest` is one customer's ask: *run this agreement
instance and tell me what was decided*.  It is a frozen, picklable value
object — the scheduler ships stripes of them to worker processes — and it
round-trips through the schema-versioned ``repro-service/1`` JSON form
that ``repro serve`` reads and ``repro loadgen --emit`` writes.

A :class:`ScheduledRequest` pairs a request with its *arrival offset*
(seconds after traffic start).  The load generator produces these from a
seeded Poisson process; the scheduler replays them open-loop — arrivals
happen on schedule whether or not earlier requests have finished, which
is what makes the measured queue waits honest under overload.

A :class:`RequestOutcome` is the per-request completion record: the
verdict class and text, the cost counters, and the three timestamps
(arrival, dispatch, completion) every latency percentile in
:mod:`repro.service.stats` is derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.algorithms.registry import get
from repro.core.types import Value
from repro.transport.faults import FaultPlan

#: Schema tag carried by every serialized request line.
SERVICE_SCHEMA = "repro-service/1"

__all__ = [
    "SERVICE_SCHEMA",
    "AgreementRequest",
    "ScheduledRequest",
    "RequestOutcome",
    "RequestFormatError",
]


class RequestFormatError(ValueError):
    """A serialized request line is missing fields or malformed."""


@dataclass(frozen=True, slots=True)
class AgreementRequest:
    """One agreement instance to run, as submitted by a client.

    ``params`` are the extra constructor keywords (``s``, ``eps``,
    ``max_rounds`` …) as a sorted tuple of pairs so the request stays
    hashable and picklable.  ``fault_plan`` injects benign delivery
    faults into this instance only; ``coin_seed`` seeds a coin-flipping
    algorithm's coins (seed 0 when absent), and a deterministic algorithm
    ignores it.
    """

    request_id: int
    algorithm: str
    n: int
    t: int
    value: Value
    params: tuple[tuple[str, Any], ...] = ()
    fault_plan: FaultPlan | None = None
    coin_seed: int | None = None

    def config_key(self) -> tuple[str, int, int, tuple[tuple[str, Any], ...]]:
        """The setup-cache / sharding key: everything amortisable.

        Two requests with equal config keys can share one algorithm
        arena and one digest table; only ``value``, ``fault_plan`` and
        ``coin_seed`` vary within a shard.
        """
        return (self.algorithm, self.n, self.t, self.params)

    def to_json_dict(self) -> dict[str, Any]:
        """The ``repro-service/1`` JSON form (one JSONL line)."""
        data: dict[str, Any] = {
            "schema": SERVICE_SCHEMA,
            "request_id": self.request_id,
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "value": self.value,
        }
        if self.params:
            data["params"] = dict(self.params)
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            data["fault_plan"] = self.fault_plan.to_json_dict()
        if self.coin_seed is not None:
            data["coin_seed"] = self.coin_seed
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "AgreementRequest":
        """Parse one ``repro-service/1`` line; raise on malformed input
        (a fault plan that cannot act on ``n`` processors included)."""
        if not isinstance(data, Mapping):
            raise RequestFormatError(f"request line is not an object: {data!r}")
        schema = data.get("schema", SERVICE_SCHEMA)
        if schema != SERVICE_SCHEMA:
            raise RequestFormatError(
                f"unknown request schema {schema!r} (expected {SERVICE_SCHEMA!r})"
            )
        missing = [
            key
            for key in ("request_id", "algorithm", "n", "t", "value")
            if key not in data
        ]
        if missing:
            raise RequestFormatError(f"request line missing {missing}")
        algorithm = str(data["algorithm"])
        try:
            get(algorithm)
        except KeyError as error:
            raise RequestFormatError(error.args[0]) from None
        n = _integer(data, "n")
        plan = None
        if data.get("fault_plan") is not None:
            try:
                plan = FaultPlan.from_json_dict(data["fault_plan"])
                plan.check(n)
            except (TypeError, ValueError) as error:
                raise RequestFormatError(f"malformed fault_plan: {error}") from None
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise RequestFormatError(f"params must be an object, got {params!r}")
        coin_seed = data.get("coin_seed")
        return cls(
            request_id=_integer(data, "request_id"),
            algorithm=algorithm,
            n=n,
            t=_integer(data, "t"),
            value=data["value"],
            params=tuple(sorted(params.items())),
            fault_plan=plan,
            coin_seed=None if coin_seed is None else _integer(data, "coin_seed"),
        )


def _integer(data: Mapping[str, Any], key: str) -> int:
    """``data[key]``, which must be a JSON integer (not a bool, float or string)."""
    value = data[key]
    if type(value) is not int:
        raise RequestFormatError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class ScheduledRequest:
    """A request plus its open-loop arrival offset (seconds from start)."""

    arrival_s: float
    request: AgreementRequest


@dataclass(slots=True)
class RequestOutcome:
    """Completion record of one served request.

    Timing model (see ``docs/service.md`` for the methodology): the
    scheduler dispatches arrivals in waves, so ``start_s`` is the wave's
    dispatch time, and ``finish_s`` is when the serving process received
    the result of the request's own stripe — every percentile derived
    from them measures what a client would observe, including time spent
    queued behind an in-flight wave.
    """

    request_id: int
    algorithm: str
    ok: bool
    verdict: str
    #: The verdict class; ``ok`` is false exactly when it is a failing one.
    kind: str = ""
    decided: tuple[Any, ...] = ()
    messages: int = 0
    signatures: int = 0
    phases_used: int = 0
    replicated: bool = False
    kernel: bool = False
    arrival_s: float = 0.0
    start_s: float = 0.0
    finish_s: float = 0.0
    fault_events: int = 0
    excused: tuple[int, ...] = ()

    # Each stage clamps at zero with a comparison, not ``max()``: the
    # stats read every outcome's three stages, and a builtin call costs
    # more than the subtraction.

    @property
    def queue_wait_s(self) -> float:
        """Seconds between arrival and wave dispatch."""
        seconds = self.start_s - self.arrival_s
        return seconds if seconds > 0.0 else 0.0

    @property
    def service_s(self) -> float:
        """Seconds between wave dispatch and the harvest of the request's
        stripe."""
        seconds = self.finish_s - self.start_s
        return seconds if seconds > 0.0 else 0.0

    @property
    def latency_s(self) -> float:
        """End-to-end seconds between arrival and completion."""
        seconds = self.finish_s - self.arrival_s
        return seconds if seconds > 0.0 else 0.0

    def to_json_dict(self) -> dict[str, Any]:
        """The response JSONL line ``repro serve`` writes."""
        data: dict[str, Any] = {
            "schema": SERVICE_SCHEMA,
            "request_id": self.request_id,
            "algorithm": self.algorithm,
            "ok": self.ok,
            "kind": self.kind,
            "verdict": self.verdict,
            "decided": list(self.decided),
            "messages": self.messages,
            "signatures": self.signatures,
            "phases_used": self.phases_used,
            "latency_s": round(self.latency_s, 6),
            "queue_wait_s": round(self.queue_wait_s, 6),
        }
        if self.excused:
            data["excused"] = list(self.excused)
        return data
