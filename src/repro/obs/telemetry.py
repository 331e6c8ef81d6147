"""Run telemetry: phase timings and per-processor handler profiling.

The paper's bounds are counts over a history; this module adds the *time*
axis the counts lack.  When instrumentation is on (any sink attached, or
``collect_telemetry=True``), the runner records per-phase wall/CPU timings
and per-processor message-handling timings into a :class:`RunTelemetry`
attached to the :class:`~repro.core.runner.RunResult`.

All timestamps come from an injectable :class:`Clock`, so tests inject a
:class:`TickClock` and assert byte-identical traces; production uses
:data:`SYSTEM_CLOCK` (``time.perf_counter`` / ``time.process_time``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True, slots=True)
class Clock:
    """A pair of monotonic time sources: wall clock and process CPU time."""

    wall: Callable[[], float] = time.perf_counter
    cpu: Callable[[], float] = time.process_time


#: The production clock (perf_counter wall time, process_time CPU time).
SYSTEM_CLOCK = Clock()


class TickClock:
    """A deterministic fake clock: every reading advances by 1 ms.

    Both ``wall()`` and ``cpu()`` read the same counter, so any quantity
    derived from it is a pure function of *how many* readings were taken —
    which is itself deterministic for a seeded run.  Inject it to make
    traces and telemetry byte-reproducible.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def _tick(self) -> float:
        self._now += 0.001
        return self._now

    @property
    def wall(self) -> Callable[[], float]:
        """Wall-time reading (advances the shared counter)."""
        return self._tick

    @property
    def cpu(self) -> Callable[[], float]:
        """CPU-time reading (advances the shared counter)."""
        return self._tick


@dataclass(slots=True)
class PhaseTiming:
    """Wall/CPU seconds spent executing one phase of the lock-step loop."""

    phase: int
    wall_s: float
    cpu_s: float

    def to_json_dict(self) -> dict[str, Any]:
        """Flat JSON form (used inside the trace's ``run_end`` event)."""
        return {
            "phase": self.phase,
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
        }


@dataclass(slots=True)
class RunTelemetry:
    """Timing profile of one instrumented execution.

    ``handler_wall_s[pid]`` accumulates the wall time spent inside
    processor *pid*'s ``on_phase`` handler (its message-handling cost);
    ``per_phase`` holds one :class:`PhaseTiming` per executed phase;
    ``wall_s``/``cpu_s`` cover the whole run including routing and
    adversary turns.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    per_phase: list[PhaseTiming] = field(default_factory=list)
    handler_wall_s: dict[int, float] = field(default_factory=dict)
    handler_calls: dict[int, int] = field(default_factory=dict)
    events_emitted: int = 0

    def add_handler_time(self, pid: int, seconds: float) -> None:
        """Account one ``on_phase`` call of processor *pid*."""
        self.handler_wall_s[pid] = self.handler_wall_s.get(pid, 0.0) + seconds
        self.handler_calls[pid] = self.handler_calls.get(pid, 0) + 1

    def to_json_dict(self) -> dict[str, Any]:
        """Flat JSON form (the ``telemetry`` field of ``run_end``)."""
        return {
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "per_phase": [timing.to_json_dict() for timing in self.per_phase],
            "handler_wall_s": {
                str(pid): round(seconds, 9)
                for pid, seconds in sorted(self.handler_wall_s.items())
            },
            "handler_calls": {
                str(pid): calls
                for pid, calls in sorted(self.handler_calls.items())
            },
            "events_emitted": self.events_emitted,
        }
