"""Logical topologies used by the paper's algorithms.

The communication network is always the complete graph; these structures are
*logical* overlays the algorithms route along:

* Algorithm 1 relays "correct 1-messages" along the graph ``G`` formed by a
  complete bipartite graph on the two halves ``A``, ``B`` of the
  non-transmitter processors plus the transmitter connected to everyone —
  :class:`BipartiteRelayGraph`.
* Algorithm 4 arranges ``N = m²`` processors in an ``m × m`` grid and
  gossips along rows and columns — :class:`Grid`.
* Algorithm 5 partitions the passive processors into complete binary trees
  of size ``s = 2^λ − 1`` and activates subtrees top-down —
  :class:`BinaryTree` / :class:`TreeForest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.errors import ConfigurationError
from repro.core.types import ProcessorId


def smallest_square_above(x: int) -> int:
    """The smallest perfect square strictly greater than *x*.

    Algorithm 5 sets the number of active processors to ``α``, *"the
    smallest quadratic number bigger than 6t"*.
    """
    root = math.isqrt(x)
    candidate = root * root
    while candidate <= x:
        root += 1
        candidate = root * root
    return candidate


# --------------------------------------------------------------------------
# Algorithm 1's relay graph
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteRelayGraph:
    """The graph ``G`` of Algorithm 1 for ``n = 2t + 1`` processors.

    Nodes: the transmitter ``q = 0`` plus ``A = {1..t}`` and
    ``B = {t+1..2t}``.  Edges: the complete bipartite graph between ``A``
    and ``B``, plus an edge from ``q`` to every other node.  A *correct
    1-message* received by ``p`` at phase ``k`` must be signed by a sequence
    of processors that, together with ``p``, forms a simple path of length
    ``k`` from ``q`` to ``p`` in ``G``.
    """

    t: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigurationError("relay graph needs t >= 1")

    @property
    def n(self) -> int:
        return 2 * self.t + 1

    @property
    def side_a(self) -> range:
        """The first half of the non-transmitter processors."""
        return range(1, self.t + 1)

    @property
    def side_b(self) -> range:
        """The second half of the non-transmitter processors."""
        return range(self.t + 1, 2 * self.t + 1)

    def side_of(self, pid: ProcessorId) -> str:
        """``'A'`` or ``'B'`` for a non-transmitter processor."""
        if pid in self.side_a:
            return "A"
        if pid in self.side_b:
            return "B"
        raise ValueError(f"processor {pid} is the transmitter or out of range")

    def opposite_side(self, pid: ProcessorId) -> range:
        """The side a relay in *pid*'s position forwards to."""
        return self.side_b if self.side_of(pid) == "A" else self.side_a

    def has_edge(self, u: ProcessorId, v: ProcessorId) -> bool:
        """True iff ``{u, v}`` is an edge of ``G``."""
        if u == v:
            return False
        if u == 0 or v == 0:
            return 0 <= u < self.n and 0 <= v < self.n
        return self.side_of(u) != self.side_of(v)

    def is_simple_path_from_transmitter(self, path: Sequence[ProcessorId]) -> bool:
        """True iff *path* is a simple path in ``G`` starting at the transmitter.

        *path* includes the transmitter as its first element; a correct
        1-message received by ``p`` at phase ``k`` corresponds to the path
        ``(0, signer_1, ..., signer_k = previous hop, p)`` — callers append
        the receiver before calling.
        """
        if not path or path[0] != 0:
            return False
        if len(set(path)) != len(path):
            return False
        return all(self.has_edge(u, v) for u, v in zip(path, path[1:]))


# --------------------------------------------------------------------------
# Algorithm 4's grid
# --------------------------------------------------------------------------


class Grid:
    """An ``m × m`` arrangement of processor ids for Algorithm 4.

    The paper denotes processors ``p(i, j)`` with ``1 ≤ i, j ≤ m``; here
    rows and columns are 0-based and the grid maps coordinates onto an
    arbitrary id list (so the same code serves standalone Algorithm 4 runs
    and the active-processor gossip inside Algorithm 5).
    """

    def __init__(self, members: Sequence[ProcessorId]) -> None:
        m = math.isqrt(len(members))
        if m * m != len(members) or m < 1:
            raise ConfigurationError(
                f"grid needs a perfect-square member count, got {len(members)}"
            )
        self.m = m
        self.members = tuple(members)
        self._position = {pid: divmod(idx, m) for idx, pid in enumerate(members)}
        if len(self._position) != len(members):
            raise ConfigurationError("grid members must be distinct")

    @property
    def size(self) -> int:
        """Total number of processors ``N = m²``."""
        return self.m * self.m

    def at(self, row: int, col: int) -> ProcessorId:
        """The processor at 0-based ``(row, col)``."""
        return self.members[row * self.m + col]

    def position(self, pid: ProcessorId) -> tuple[int, int]:
        """0-based ``(row, col)`` of *pid*."""
        return self._position[pid]

    def row_of(self, pid: ProcessorId) -> list[ProcessorId]:
        """All members of *pid*'s row (including *pid*), column order."""
        row, _ = self._position[pid]
        return [self.at(row, col) for col in range(self.m)]

    def column_of(self, pid: ProcessorId) -> list[ProcessorId]:
        """All members of *pid*'s column (including *pid*), row order."""
        _, col = self._position[pid]
        return [self.at(row, col) for row in range(self.m)]

    def __contains__(self, pid: ProcessorId) -> bool:
        return pid in self._position


# --------------------------------------------------------------------------
# Algorithm 5's binary trees
# --------------------------------------------------------------------------


class BinaryTree:
    """A complete binary tree over a member list, heap-ordered.

    Nodes are addressed by 1-based heap indices (node ``i`` has children
    ``2i`` and ``2i + 1``); ``members[i - 1]`` is the processor at index
    ``i``.  A full tree has ``s = 2^λ − 1`` members (``λ`` levels).  A
    *truncated* tree (the remainder group of a forest) simply lacks trailing
    heap indices; all operations skip missing nodes — DESIGN.md §5.2
    documents this resolution of the paper's even-division assumption.

    A *depth-x subtree* is the subtree rooted at a node ``λ − x`` levels
    below the root: it contains every descendant down to the leaves of the
    original tree, matching the paper's restriction to *"subtrees whose
    leaves are the leaves of the original binary tree"*.
    """

    def __init__(self, members: Sequence[ProcessorId]) -> None:
        if not members:
            raise ConfigurationError("a tree needs at least one member")
        self.members = tuple(members)
        self.size = len(members)
        #: number of levels λ of the (possibly truncated) tree.
        self.levels = self.size.bit_length()

    @staticmethod
    def full_size(levels: int) -> int:
        """``l(x) = 2^x − 1``, the size of a full tree with *levels* levels."""
        return (1 << levels) - 1

    # ------------------------------------------------------------ structure

    def processor_at(self, index: int) -> ProcessorId:
        """Processor at heap index *index* (1-based)."""
        return self.members[index - 1]

    def index_of(self, pid: ProcessorId) -> int:
        """Heap index of *pid* within this tree."""
        return self.members.index(pid) + 1

    def exists(self, index: int) -> bool:
        """True iff heap index *index* is present (not truncated away)."""
        return 1 <= index <= self.size

    def level_of_index(self, index: int) -> int:
        """Level of a heap index (root = level 1)."""
        return index.bit_length()

    def children(self, index: int) -> list[int]:
        """Existing child indices of *index*."""
        return [c for c in (2 * index, 2 * index + 1) if self.exists(c)]

    def subtree_indices(self, index: int) -> list[int]:
        """Heap indices of the subtree rooted at *index*, BFS order."""
        if not self.exists(index):
            return []
        order: list[int] = []
        frontier = [index]
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            frontier.extend(self.children(node))
        return order

    def subtree_members(self, index: int) -> list[ProcessorId]:
        """Processors of the subtree rooted at *index*, BFS order (root first)."""
        return [self.processor_at(i) for i in self.subtree_indices(index)]

    def roots_at_depth(self, x: int) -> list[int]:
        """Heap indices of the nodes that root depth-*x* subtrees.

        For ``x = λ`` this is just the root; for smaller ``x`` it is every
        existing node at level ``λ − x + 1``.
        """
        level = self.levels - x + 1
        if level < 1:
            return []
        lo, hi = 1 << (level - 1), (1 << level) - 1
        return [i for i in range(lo, hi + 1) if self.exists(i)]

    def root(self) -> ProcessorId:
        """The processor at the root of the whole tree."""
        return self.processor_at(1)


class TreeForest:
    """Partition of the passive processors into binary trees of size *s*.

    The first ``⌊m / s⌋`` trees are full; a non-empty remainder forms one
    final truncated tree.
    """

    def __init__(self, passive: Sequence[ProcessorId], s: int) -> None:
        if s < 1:
            raise ConfigurationError(f"tree size must be positive, got s={s}")
        self.s = s
        self.trees = [
            BinaryTree(passive[start : start + s])
            for start in range(0, len(passive), s)
        ]

    def all_passive(self) -> Iterator[ProcessorId]:
        for tree in self.trees:
            yield from tree.members
