"""Shared pieces for the concrete agreement algorithms.

Every algorithm module defines:

* one or more payload dataclasses (frozen, so they canonicalise);
* a :class:`~repro.core.protocol.Processor` subclass per processor role;
* an :class:`~repro.core.protocol.AgreementAlgorithm` subclass exposing the
  paper's phase and message bounds.

The registry in :mod:`repro.algorithms.registry` lists them all.
"""

from __future__ import annotations

from typing import Final

from repro.core.message import Envelope
from repro.core.types import Value

__all__ = ["DEFAULT_VALUE", "input_value_from"]

#: The value correct processors fall back to when the transmitter is exposed
#: as faulty.  The paper's binary proofs use 0; any fixed element of V works.
DEFAULT_VALUE: Final[Value] = 0


def input_value_from(inbox: tuple[Envelope, ...] | list[Envelope]) -> Value | None:
    """Extract the transmitter's private value from a phase-1 inbox.

    Returns the label of the phase-0 inedge, or ``None`` if the inbox does
    not contain one (which for the transmitter's phase-1 inbox would mean a
    runner bug, but adversarial simulations may filter it away).
    """
    for envelope in inbox:
        if envelope.is_input_edge():
            return envelope.payload
    return None
