"""Seeded, replayable randomness for randomized consensus.

Protocol code is banned from ``random``/``time``/friends (lint rule
BA001): every run must be a pure function of its inputs so that fuzz
counterexamples replay and traces stay byte-stable.  Randomized
algorithms still need coins, so this module derives them the same way
the fuzz campaign derives its seeds — by hashing a run-scoped integer
seed with ``hashlib.sha256`` — which keeps BA001 happy and makes
``repro run --algorithm ben-or --seed N`` deterministic per seed.

A :class:`CoinSource` is threaded through :class:`repro.core.protocol.Context`
by the runner and recorded on :class:`repro.core.runner.RunResult` as
``coin_seed`` so that replay layers (fuzz corpus, conformance) can
rebuild the identical coin stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["CoinSource"]

_DENOM = 1 << 53


def _digest_value(seed: int, lane: int, round_index: int) -> int:
    """Map ``(seed, lane, round)`` to a 53-bit integer via sha256."""
    material = f"{seed}:{lane}:{round_index}".encode("ascii")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 11


@dataclass
class CoinSource:
    """Deterministic coin stream keyed by ``(seed, lane, round)``.

    ``scope`` selects the classic dichotomy of randomized BA:

    * ``"local"`` — each processor flips its own coin (Ben-Or's model):
      the lane is the caller's pid, so different processors see
      independent streams for the same round.
    * ``"common"`` — a shared coin (Rabin's model): the lane is pinned
      to 0 so every processor sees the same flip for a given round.

    ``bias`` is the probability of flipping 1.  Flips are counted (for
    reporting) but the *value* of a flip never depends on how many flips
    came before it — only on the key — so delivery order cannot perturb
    the stream.
    """

    seed: int
    bias: float = 0.5
    scope: str = "local"
    flips: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.scope not in ("local", "common"):
            raise ValueError(f"unknown coin scope: {self.scope!r}")
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError(f"coin bias must be in [0, 1], got {self.bias!r}")

    def uniform(self, lane: int, round_index: int) -> float:
        """Return the deterministic uniform draw in ``[0, 1)`` for a key."""
        key_lane = 0 if self.scope == "common" else lane
        return _digest_value(self.seed, key_lane, round_index) / _DENOM

    def flip(self, lane: int, round_index: int) -> int:
        """Flip the coin for ``(lane, round)``: 1 with probability ``bias``."""
        self.flips += 1
        return 1 if self.uniform(lane, round_index) < self.bias else 0

