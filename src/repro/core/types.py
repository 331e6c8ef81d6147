"""Fundamental types for the Byzantine Agreement reproduction.

The model follows Section 2 of Dolev & Reischuk, *Bounds on Information
Exchange for Byzantine Agreement*: a system of ``n`` processors, completely
interconnected, of which up to ``t`` may be faulty.  One distinguished
processor — the *transmitter* — receives a private value ``v`` on a special
phase-0 inedge and the correct processors must reach Byzantine Agreement on
that value.

Processors are identified by small integers ``0 .. n-1``.  By convention the
transmitter is processor ``0`` throughout the library (every published
algorithm in the paper is described with an arbitrary but fixed transmitter,
so fixing it costs no generality).
"""

from __future__ import annotations

from typing import Final, Hashable, TypeAlias

#: Identifier of a processor.  Always in ``range(n)`` for a system of size n.
ProcessorId: TypeAlias = int

#: A value the transmitter may send.  The paper's proofs use ``V = {0, 1}``;
#: the library accepts any hashable value.
Value: TypeAlias = Hashable

#: The distinguished transmitter processor.
TRANSMITTER: Final[ProcessorId] = 0

#: Pseudo-source of the phase-0 inedge carrying the transmitter's private
#: value (the single edge of the paper's "initial phase").
INPUT_SOURCE: Final[ProcessorId] = -1

#: Default binary value domain used by the paper's proofs and algorithms.
BINARY_VALUES: Final[tuple[Value, ...]] = (0, 1)


def check_population(n: int, t: int) -> None:
    """Validate a system size against a fault bound.

    Raises :class:`ValueError` unless ``n >= 1`` and ``0 <= t < n``.  The
    individual algorithms impose stronger requirements (e.g. ``n = 2t + 1``
    for Algorithm 1, ``n > 3t`` for oral messages); those are checked by the
    algorithm constructors, not here.
    """
    if n < 1:
        raise ValueError(f"need at least one processor, got n={n}")
    if t < 0:
        raise ValueError(f"fault bound must be non-negative, got t={t}")
    if t >= n:
        raise ValueError(f"fault bound t={t} must be smaller than n={n}")
