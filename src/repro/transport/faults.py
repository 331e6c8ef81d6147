"""Fault plans: seeded, picklable descriptions of delivery faults.

A :class:`FaultPlan` is plain data — a tuple of fault records plus a seed
for the probabilistic ones — so it pickles across the sweep worker pool
and round-trips through JSON (schema ``repro-fault/1``) for the corpus
and the CLI.  The :class:`~repro.transport.faulty.FaultyTransport`
interprets the plan during delivery; nothing here touches the runner.

Every fault kind except ``delay`` is *Byzantine-expressible*: its visible
effect is confined to the messages of one processor, so a Byzantine
adversary corrupting that processor could have produced the same
histories.  That processor is the fault's :func:`excused <excused_processors>`
party, and the crash-tolerant oracle (:mod:`repro.fuzz.oracle`) demands
Byzantine Agreement among everyone else.  ``delay`` breaks lock-step
itself (a phase-``k`` envelope landing at ``k + 1 + d``) and therefore
excuses the receiver too; plans containing delays are outside the
benign-classification guarantee, which is why :func:`random_plan` never
generates them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Iterable, Mapping, Union

from repro.core.types import ProcessorId

#: Version tag carried by every serialised plan and every ``fault`` trace
#: event.  Bump on any field change; consumers must reject unknown majors.
FAULT_SCHEMA = "repro-fault/1"


def unit_coin(seed: int, *key: object) -> float:
    """A deterministic coin in ``[0, 1)`` keyed by *seed* and *key*.

    Unlike ``random.Random``, the value depends only on the arguments —
    not on how many coins were flipped before — so omission decisions are
    identical whatever order the transport inspects envelopes in.
    """
    text = ":".join(str(part) for part in (seed, *key)).encode("utf-8")
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


class _Window:
    """Mixin: a fault active on phases ``first <= phase <= last``."""

    first: int
    last: int | None

    def active(self, phase: int) -> bool:
        """Whether this fault applies to messages of *phase*."""
        if phase < self.first:
            return False
        return self.last is None or phase <= self.last


@dataclass(frozen=True)
class CrashFault(_Window):
    """Crash-stop of *pid*: from *phase* on it neither sends nor receives.

    With a *recovery_phase* the processor comes back (a crash-recovery
    fault): sends and receives resume at that phase.  The processor's
    protocol instance keeps running locally either way — the crash is a
    property of the network's view of it, which is exactly the
    omission-failure reading of a crash in a lock-step model.
    """

    kind: ClassVar[str] = "crash"
    pid: ProcessorId
    phase: int = 1
    recovery_phase: int | None = None

    @property
    def first(self) -> int:  # type: ignore[override]
        return self.phase

    @property
    def last(self) -> int | None:  # type: ignore[override]
        return None if self.recovery_phase is None else self.recovery_phase - 1


@dataclass(frozen=True)
class SendOmission(_Window):
    """Each message *pid* sends is dropped with probability *rate*."""

    kind: ClassVar[str] = "omission_send"
    pid: ProcessorId
    rate: float = 1.0
    first: int = 1
    last: int | None = None


@dataclass(frozen=True)
class ReceiveOmission(_Window):
    """Each message addressed to *pid* is dropped with probability *rate*."""

    kind: ClassVar[str] = "omission_recv"
    pid: ProcessorId
    rate: float = 1.0
    first: int = 1
    last: int | None = None


@dataclass(frozen=True)
class LinkDrop(_Window):
    """Every message on the directed link *src* → *dst* is dropped."""

    kind: ClassVar[str] = "drop"
    src: ProcessorId
    dst: ProcessorId
    first: int = 1
    last: int | None = None


@dataclass(frozen=True)
class Delay(_Window):
    """Messages on *src* → *dst* arrive *delay* phases late.

    A phase-``k`` send is delivered at ``k + 1 + delay`` instead of
    ``k + 1``; a message due past the final phase is lost (recorded as a
    ``lost`` fault event at the end of the run).
    """

    kind: ClassVar[str] = "delay"
    src: ProcessorId
    dst: ProcessorId
    delay: int = 1
    first: int = 1
    last: int | None = None


@dataclass(frozen=True)
class Duplicate(_Window):
    """Messages on *src* → *dst* are delivered *copies* times."""

    kind: ClassVar[str] = "duplicate"
    src: ProcessorId
    dst: ProcessorId
    copies: int = 2
    first: int = 1
    last: int | None = None


@dataclass(frozen=True)
class Partition(_Window):
    """A network partition: messages crossing the cut between *group* and
    its complement are dropped while the partition is active."""

    kind: ClassVar[str] = "partition"
    group: tuple[ProcessorId, ...]
    first: int = 1
    last: int | None = None

    def severs(self, src: ProcessorId, dst: ProcessorId) -> bool:
        """Whether the *src* → *dst* edge crosses the cut."""
        return (src in self.group) != (dst in self.group)


Fault = Union[
    CrashFault,
    SendOmission,
    ReceiveOmission,
    LinkDrop,
    Delay,
    Duplicate,
    Partition,
]

#: JSON ``kind`` → fault class, for :func:`fault_from_json`.
FAULT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        CrashFault,
        SendOmission,
        ReceiveOmission,
        LinkDrop,
        Delay,
        Duplicate,
        Partition,
    )
}


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fault_problem(fault: Fault, n: int) -> str | None:
    """Why *fault* cannot act on processors ``0 .. n-1``, or ``None``."""
    values = {field.name: getattr(fault, field.name) for field in fields(fault)}
    for name, value in values.items():
        if name == "rate":
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
                return f"rate must be a number in [0, 1], got {value!r}"
        elif name == "group":
            if not value or not all(_is_int(pid) and 0 <= pid < n for pid in value):
                return f"group must name pids in 0..{n - 1}, got {list(value)}"
        elif not _is_int(value) and not (value is None and name in ("last", "recovery_phase")):
            return f"{name} must be an integer, got {value!r}"
        elif name in ("pid", "src", "dst") and not 0 <= value < n:
            return f"{name} {value} is outside 0..{n - 1}"
    if "src" in values and values["src"] == values["dst"]:
        return "a link needs two processors"
    if fault.first < 1 or (fault.last is not None and fault.last < fault.first):
        return "the window holds no phase"
    if isinstance(fault, Delay) and fault.delay < 1:
        return "delay must be at least 1"
    if isinstance(fault, Duplicate) and fault.copies < 2:
        return "copies must be at least 2"
    return None


def _describe_fault(fault: Fault) -> str:
    """One fault as ``kind(field=value, ...)``, unset fields left out."""
    data = fault_to_json(fault)
    data.pop("kind")
    inner = ", ".join(f"{k}={v}" for k, v in data.items() if v is not None)
    return f"{fault.kind}({inner})"


def fault_to_json(fault: Fault) -> dict[str, Any]:
    """One fault as a flat JSON object tagged with its ``kind``."""
    data: dict[str, Any] = {"kind": fault.kind}
    for field in fields(fault):
        value = getattr(fault, field.name)
        data[field.name] = list(value) if isinstance(value, tuple) else value
    return data


def fault_from_json(data: Mapping[str, Any]) -> Fault:
    """Rebuild a fault from :func:`fault_to_json` output."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a fault must be an object, got {data!r}")
    kind = data.get("kind")
    cls = FAULT_KINDS.get(str(kind))
    if cls is None:
        raise ValueError(f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    if cls is Partition and "group" in kwargs:
        kwargs["group"] = tuple(kwargs["group"])
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ValueError(f"malformed {kind!r} fault: {error}") from error


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable set of delivery faults (plain picklable data)."""

    faults: tuple[Fault, ...] = ()
    #: Seed for the probabilistic faults' :func:`unit_coin` flips.
    seed: int = 0

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (behaviourally fault-free)."""
        return not self.faults

    def of_kind(self, kind: str) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind == kind)

    def describe(self) -> str:
        if self.is_empty:
            return "no faults"
        return ", ".join(_describe_fault(fault) for fault in self.faults)

    def check(self, n: int) -> None:
        """Raise :class:`ValueError` unless the seed is an ``int`` and
        every fault can act on processors ``0 .. n-1`` (the message then
        names the fault): ``int`` phase, pid, count and window fields (a
        ``bool`` is not one, as a seed or a field), pids in ``range(n)``, a
        ``rate`` in ``[0, 1]``, links between two processors, non-empty
        groups and windows (``1 <= first <= last``; a crash recovers after
        it crashed), ``delay >= 1`` and ``copies >= 2``.  A window may run
        past the last phase.  The constructors check nothing; the CLI and
        the service check the plans they are handed."""
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for fault in self.faults:
            problem = _fault_problem(fault, n)
            if problem is not None:
                raise ValueError(f"fault {_describe_fault(fault)}: {problem}")

    # ------------------------------------------------------------------ JSON

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": FAULT_SCHEMA,
            "seed": self.seed,
            "faults": [fault_to_json(f) for f in self.faults],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValueError(f"a fault plan must be an object, got {data!r}")
        schema = data.get("schema", FAULT_SCHEMA)
        if schema != FAULT_SCHEMA:
            raise ValueError(f"unsupported fault-plan schema {schema!r}")
        return cls(
            faults=tuple(fault_from_json(f) for f in data.get("faults", ())),
            seed=data.get("seed", 0),
        )


#: The fault kinds :func:`random_plan` draws from — the Byzantine-
#: expressible, omission-class kinds only (no delays, no duplicates), so
#: a generated plan is *benign*: the crash-tolerant oracle can soundly
#: demand agreement among the unexcused processors.
BENIGN_KINDS = ("crash", "omission_send", "omission_recv", "drop", "partition")


def random_plan(
    seed: int,
    *,
    n: int,
    t: int,
    num_phases: int,
    rate: float,
) -> FaultPlan:
    """A seeded benign fault plan for chaos campaigns.

    Deterministic in its arguments.  At most ``t`` processors carry
    faults, so the faulty-plus-excused budget of the crash-tolerant
    oracle is respected by construction: any disagreement among the
    *other* processors is a genuine safety finding, never an artifact of
    over-faulting.  *rate* scales both how many processors are faulted
    and the per-message omission probabilities.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be within [0, 1], got {rate}")
    rng = random.Random(seed)
    budget = max(1, min(t, round(t * rate))) if rate > 0 else 0
    pids = rng.sample(range(n), min(budget, n))
    faults: list[Fault] = []
    for pid in pids:
        kind = rng.choice(BENIGN_KINDS)
        first = rng.randint(1, max(1, num_phases))
        if kind == "crash":
            recovery = None
            if num_phases - first >= 2 and rng.random() < 0.3:
                recovery = rng.randint(first + 1, num_phases)
            faults.append(CrashFault(pid=pid, phase=first, recovery_phase=recovery))
        elif kind == "omission_send":
            faults.append(SendOmission(pid=pid, rate=min(1.0, rate * 2), first=first))
        elif kind == "omission_recv":
            faults.append(ReceiveOmission(pid=pid, rate=min(1.0, rate * 2), first=first))
        elif kind == "drop":
            dst = rng.choice([q for q in range(n) if q != pid])
            faults.append(LinkDrop(src=pid, dst=dst, first=first))
        else:  # partition
            # The faulted pid is alone on its side of the cut, so only its
            # links are severed — the excused budget stays at one pid.
            faults.append(
                Partition(group=(pid,), first=first, last=min(num_phases, first + 1))
            )
    return FaultPlan(faults=tuple(faults), seed=seed)


def excused_processors(fault_events: Iterable[Mapping[str, Any]]) -> frozenset[int]:
    """The processors a fault-aware oracle must excuse, from trace events.

    The mapping implements the Byzantine-projection argument from the
    module docstring: for every fault kind whose effect a Byzantine
    adversary could reproduce by corrupting one processor, that processor
    is excused; ``delay``/``lost`` events are not expressible and excuse
    both endpoints.  A ``partition`` event names its endpoint inside the
    cut group as ``pid``, and that endpoint is excused: a processor cut
    off while it only receives is the one whose view diverges.  Events
    without ``pid`` excuse the sender.
    """
    excused: set[int] = set()
    for event in fault_events:
        kind = event.get("kind")
        if kind == "crash" or (kind == "partition" and "pid" in event):
            excused.add(int(event["pid"]))
        elif kind in ("omission_send", "drop", "partition", "duplicate"):
            excused.add(int(event["src"]))
        elif kind == "omission_recv":
            excused.add(int(event["dst"]))
        elif kind in ("delay", "lost"):
            excused.add(int(event["src"]))
            excused.add(int(event["dst"]))
    return frozenset(excused)
