"""Parse ``repro run --faults`` / ``repro fuzz`` fault specs into plans.

The spec grammar (clauses separated by ``;``):

* ``crash:PID@PHASE`` or ``crash:PID@PHASE-RECOVERY`` — crash-stop at
  PHASE, optionally recovering at RECOVERY.
* ``omit-send:PID:RATE[@FIRST[-LAST]]`` — drop each of PID's sends with
  probability RATE during the window.
* ``omit-recv:PID:RATE[@FIRST[-LAST]]`` — drop each message to PID.
* ``drop:SRC->DST[@FIRST[-LAST]]`` — sever one directed link.
* ``delay:SRC->DST:K[@FIRST[-LAST]]`` — deliver K phases late.
* ``dup:SRC->DST[:COPIES][@FIRST[-LAST]]`` — duplicate deliveries.
* ``partition:P1,P2,...[@FIRST[-LAST]]`` — cut the listed group off from
  the rest of the network.
* ``random:SEED:RATE`` — a seeded benign plan from
  :func:`~repro.transport.faults.random_plan` (needs the system shape,
  which the CLI supplies from the algorithm under test).
* ``seed:N`` — the seed for the probabilistic clauses (default 0).

Example: ``--faults "crash:2@1;drop:0->4@2-3;omit-send:3:0.5"``.
"""

from __future__ import annotations

from repro.transport.faults import (
    CrashFault,
    Delay,
    Duplicate,
    Fault,
    FaultPlan,
    LinkDrop,
    Partition,
    ReceiveOmission,
    SendOmission,
    random_plan,
)


class FaultSpecError(ValueError):
    """The spec string does not parse; the message names the bad clause."""


def _window(text: str) -> tuple[str, int, int | None]:
    """Split a trailing ``@FIRST[-LAST]`` window off *text*."""
    body, sep, window = text.partition("@")
    if not sep:
        return text, 1, None
    first_text, dash, last_text = window.partition("-")
    try:
        first = int(first_text)
        last = int(last_text) if dash else None
    except ValueError as error:
        raise FaultSpecError(f"bad phase window {window!r}") from error
    return body, first, last


def _link(text: str, clause: str) -> tuple[int, int]:
    src_text, arrow, dst_text = text.partition("->")
    if not arrow:
        raise FaultSpecError(f"{clause!r}: expected SRC->DST, got {text!r}")
    try:
        return int(src_text), int(dst_text)
    except ValueError as error:
        raise FaultSpecError(f"{clause!r}: non-numeric link {text!r}") from error


def parse_fault_plan(
    spec: str, *, n: int, t: int, num_phases: int
) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI *spec* (see module docstring).

    *n*, *t* and *num_phases* describe the system under test; only the
    ``random:`` clause consumes them.

    Raises:
        FaultSpecError: on any clause that does not parse, and on a plan
            :meth:`FaultPlan.check` refuses for *n*.
    """
    faults: list[Fault] = []
    seed = 0
    for clause in (c.strip() for c in spec.split(";")):
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        try:
            if kind == "crash":
                body, first, last = _window(rest)
                if "@" in rest:
                    faults.append(
                        CrashFault(
                            pid=int(body),
                            phase=first,
                            recovery_phase=None if last is None else last + 1,
                        )
                    )
                else:
                    faults.append(CrashFault(pid=int(body)))
            elif kind in ("omit-send", "omit-recv"):
                body, first, last = _window(rest)
                pid_text, _, rate_text = body.partition(":")
                cls = SendOmission if kind == "omit-send" else ReceiveOmission
                faults.append(
                    cls(
                        pid=int(pid_text),
                        rate=float(rate_text) if rate_text else 1.0,
                        first=first,
                        last=last,
                    )
                )
            elif kind == "drop":
                body, first, last = _window(rest)
                src, dst = _link(body, clause)
                faults.append(LinkDrop(src=src, dst=dst, first=first, last=last))
            elif kind == "delay":
                body, first, last = _window(rest)
                link_text, _, delay_text = body.partition(":")
                src, dst = _link(link_text, clause)
                faults.append(
                    Delay(
                        src=src,
                        dst=dst,
                        delay=int(delay_text) if delay_text else 1,
                        first=first,
                        last=last,
                    )
                )
            elif kind == "dup":
                body, first, last = _window(rest)
                link_text, _, copies_text = body.partition(":")
                src, dst = _link(link_text, clause)
                faults.append(
                    Duplicate(
                        src=src,
                        dst=dst,
                        copies=int(copies_text) if copies_text else 2,
                        first=first,
                        last=last,
                    )
                )
            elif kind == "partition":
                body, first, last = _window(rest)
                group = tuple(int(p) for p in body.split(",") if p)
                faults.append(Partition(group=group, first=first, last=last))
            elif kind == "random":
                seed_text, _, rate_text = rest.partition(":")
                seed = int(seed_text)
                generated = random_plan(
                    seed,
                    n=n,
                    t=t,
                    num_phases=num_phases,
                    rate=float(rate_text) if rate_text else 0.2,
                )
                faults.extend(generated.faults)
            elif kind == "seed":
                seed = int(rest)
            else:
                raise FaultSpecError(
                    f"unknown fault clause {clause!r}; kinds: crash, omit-send, "
                    f"omit-recv, drop, delay, dup, partition, random, seed"
                )
        except FaultSpecError:
            raise
        except ValueError as error:
            raise FaultSpecError(f"bad fault clause {clause!r}: {error}") from error
    plan = FaultPlan(faults=tuple(faults), seed=seed)
    try:
        plan.check(n)
    except ValueError as error:
        raise FaultSpecError(str(error)) from None
    return plan
