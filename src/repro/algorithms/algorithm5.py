"""Algorithm 5 of the paper: ``O(n + t²)`` messages for any ratio ``n : t``.

This is the algorithm that matches the Theorem 2 lower bound.  Structure:

* ``α`` — the smallest perfect square above ``6t`` — processors are
  *active*; the first ``2t + 1`` of them run Algorithm 2 (phases
  ``1 .. 3t+3``) and, at phase ``3t + 4``, the first ``t + 1`` send a
  *valid message* to the remaining ``α − 2t − 1`` actives.  A **valid
  message** is a value from ``W`` followed by at least ``t + 1`` signatures
  of active processors (and possibly some passive ones) — at least one
  correct processor vouches for its value.
* The ``m = n − α`` *passive* processors are partitioned into complete
  binary trees of size ``s`` (``λ = ⌈log₂(s+1)⌉`` levels; the remainder
  forms one truncated tree — DESIGN.md §5.2).
* Blocks ``x = λ .. 1`` activate subtrees top-down.  In block ``x`` every
  active ``p`` sends a valid message plus a *proof of work* to the root of
  each depth-``x`` subtree in its set ``C(p, x)``; an activated root
  sequentially visits its subtree members (each signs the valid message)
  and reports the accumulated message to all actives; the actives then run
  Algorithm 4 among themselves to exchange their *F-lists* — the passive
  processors whose signature is still missing — and from the gathered,
  signed lists compute ``B(p, x−1)`` (processors at least ``α − 2t``
  actives still consider unserved) and ``C(p, x−1)`` (the depth-``x−1``
  subtrees whose activation those lists justify).
* Block ``0`` is a single phase: every active sends the valid message
  directly to every processor still in ``B(p, 0)``.

A *proof of work* for a depth-``x`` subtree is empty for ``x = λ`` and
otherwise a set of signed F-list strings (index ``x``) establishing
``π(M, q, x) ≥ α − 2t`` either for the subtree's root or for one processor
in each of its two child subtrees.  Roots verify proofs before activating,
which is what bounds spurious activations (Lemma 4: at most ``2·b(C) + 1``
processors of a tree with ``b(C)`` faulty members are activated or faulty).

Lemma 5: with ``1 ≤ s ≤ t < n/6``, agreement in at most ``≈ 3t + 4s``
phases and ``O(t² + nt/s)`` messages; Theorem 7: ``s = t`` gives
``O(n + t²)``.

Block phase layout used here (lengths differ from the paper's sloppy
``2^{x+1}`` by a small constant; see DESIGN.md §5.2 — the asymptotics are
unchanged).  ``L = 2^x − 1`` is the full depth-``x`` subtree size:

====================  =====================================================
offset in block ``x``  action
====================  =====================================================
1                      actives send ``(valid message, proof)`` to roots
``2(j−1)``, j=2..L     root sends the accumulating message to ``c(j)``
``2(j−1)+1``           ``c(j)`` signs it and sends it back
``2L``                 root reports the accumulated message to all actives
``2L+1 .. 2L+3``       actives run Algorithm 4 on ``(x−1, F(p, x−1))``
====================  =====================================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.algorithms.algorithm2 import (
    Algorithm2,
    Algorithm2Processor,
    Algorithm2Transmitter,
)
from repro.algorithms.algorithm4 import GridExchange
from repro.algorithms.informed import is_proof_message
from repro.core.errors import ConfigurationError
from repro.core.message import Envelope, Outgoing
from repro.core.protocol import AgreementAlgorithm, Processor
from repro.core.types import ProcessorId, Value
from repro.crypto.chains import SignatureChain
from repro.network.topology import BinaryTree, Grid, TreeForest, smallest_square_above

#: Tag for the F-list strings exchanged through Algorithm 4.
FLIST_TAG = "flist"


def flist_string(index: int, members: Iterable[ProcessorId]) -> tuple:
    """The canonical F-list value: ``(tag, index, sorted member tuple)``."""
    return (FLIST_TAG, index, tuple(sorted(members)))


def parse_flist(value: object) -> tuple[int, frozenset[ProcessorId]] | None:
    """Parse a gathered exchange value back into ``(index, members)``."""
    if (
        isinstance(value, tuple)
        and len(value) == 3
        and value[0] == FLIST_TAG
        and isinstance(value[1], int)
        and isinstance(value[2], tuple)
        and all(isinstance(q, int) for q in value[2])
    ):
        return value[1], frozenset(value[2])
    return None


@dataclass(frozen=True)
class Activation:
    """What an active sends a subtree root: a valid message plus the signed
    F-list strings that prove the subtree needs activating."""

    message: SignatureChain
    proof: tuple[SignatureChain, ...]


@dataclass(frozen=True)
class SubtreeRef:
    """A subtree: tree number within the forest plus root heap index."""

    tree: int
    root_index: int


@dataclass(frozen=True)
class Block:
    """One activation block of the schedule."""

    x: int
    start: int  # first phase of the block
    full_size: int  # L = 2^x - 1

    @property
    def length(self) -> int:
        return 2 * self.full_size + 3

    def offset(self, phase: int) -> int:
        return phase - self.start + 1


class Algorithm5Schedule:
    """Maps global phases to (block, offset) and back."""

    def __init__(self, t: int, levels: int) -> None:
        self.t = t
        self.levels = levels
        self.spread_phase = 3 * t + 4
        self.blocks: list[Block] = []
        start = self.spread_phase + 1
        for x in range(levels, 0, -1):
            block = Block(x=x, start=start, full_size=(1 << x) - 1)
            self.blocks.append(block)
            start += block.length
        self.block0_phase = start
        self.num_phases = start

    def block_for(self, phase: int) -> Block | None:
        for block in self.blocks:
            if block.start <= phase < block.start + block.length:
                return block
        return None


def subtree_proven(
    tree: BinaryTree, root_index: int, qualifies: Callable[[ProcessorId], bool]
) -> bool:
    """The paper's proof-of-work condition for one subtree: its root
    qualifies, or both child subtrees hold a processor that does."""
    if qualifies(tree.processor_at(root_index)):
        return True
    children = tree.children(root_index)
    return len(children) == 2 and all(
        any(qualifies(q) for q in tree.subtree_members(child)) for child in children
    )


def pi_counts(
    flists: Mapping[ProcessorId, Iterable[frozenset[ProcessorId]]],
) -> Counter[ProcessorId]:
    """``π(M, q, index)`` for every ``q`` at once, from each active signer's
    parsed F-lists with that index in ``M``: the number of signers that
    list ``q`` in at least one of them.  A missing ``q`` counts 0."""
    counts: Counter[ProcessorId] = Counter()
    for _signer, members in sorted(flists.items()):
        counts.update(frozenset().union(*members))
    return counts


class Algorithm5Active(Processor):
    """An active processor (core Algorithm 2 participant or extra)."""

    def __init__(
        self,
        inner: Algorithm2Processor | Algorithm2Transmitter | None,
        schedule: Algorithm5Schedule,
        forest: TreeForest,
        alpha: int,
        grid: Grid,
    ) -> None:
        self.inner = inner
        self.schedule = schedule
        self.forest = forest
        self.alpha = alpha
        self.grid = grid
        self.valid_message: SignatureChain | None = None
        #: B(p, x) for the upcoming block; starts as all passive processors.
        self.b_set: frozenset[ProcessorId] = frozenset(forest.all_passive())
        #: C(p, x): subtrees to activate in the upcoming block.
        self.c_set: list[SubtreeRef] = [
            SubtreeRef(tree=i, root_index=1) for i in range(len(forest.trees))
        ]
        #: proofs backing each subtree in c_set (empty for block λ).
        self.proofs: dict[SubtreeRef, tuple[SignatureChain, ...]] = {}
        #: passive signatures seen in reports during the current block.
        self._signers_seen: set[ProcessorId] = set()
        #: roots contacted in the current block (excluded from F unconditionally).
        self._roots_contacted: set[ProcessorId] = set()
        self._exchange: GridExchange | None = None
        self._f_list: frozenset[ProcessorId] = frozenset()

    def on_bind(self) -> None:
        if self.inner is not None:
            self.inner.bind(replace(self.ctx, n=2 * self.ctx.t + 1))

    # --------------------------------------------------------------- helpers

    def _build_valid_message(self) -> SignatureChain | None:
        """Turn Algorithm 2's proof into a valid message (≥ t+1 active sigs)."""
        assert self.inner is not None
        proof = self.inner.best_proof
        if proof is None:
            return None
        if not proof.has_signed(self.ctx.pid):
            proof = proof.extend(self.ctx.key, self.ctx.service)
        if is_proof_message(proof, self.ctx.t, self.alpha, self.ctx):
            return proof
        return None

    def _adopt_valid_message(self, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            if self.valid_message is not None:
                return
            if is_proof_message(envelope.payload, self.ctx.t, self.alpha, self.ctx):
                self.valid_message = envelope.payload

    def _root_pid(self, ref: SubtreeRef) -> ProcessorId:
        return self.forest.trees[ref.tree].processor_at(ref.root_index)

    def _activations(self) -> list[Outgoing]:
        if self.valid_message is None:
            return []
        self._signers_seen = set()
        self._roots_contacted = set()
        sends: list[Outgoing] = []
        for ref in self.c_set:
            tree = self.forest.trees[ref.tree]
            if not tree.exists(ref.root_index):
                continue
            root = self._root_pid(ref)
            self._roots_contacted.add(root)
            payload = Activation(
                message=self.valid_message, proof=self.proofs.get(ref, ())
            )
            sends.append((root, payload))
        return sends

    def _collect_reports(self, inbox: Sequence[Envelope]) -> None:
        """Record passive signatures from valid messages roots send back."""
        for envelope in inbox:
            if envelope.src not in self._roots_contacted:
                continue
            if is_proof_message(envelope.payload, self.ctx.t, self.alpha, self.ctx):
                chain: SignatureChain = envelope.payload
                self._signers_seen.update(
                    s for s in chain.signers if s >= self.alpha
                )

    def _start_exchange(self, index: int) -> list[Outgoing]:
        self._f_list = frozenset(
            q
            for q in self.b_set
            if q not in self._signers_seen and q not in self._roots_contacted
        )
        value = flist_string(index, self._f_list)
        self._exchange = GridExchange(self.ctx, self.grid, value)
        return self._exchange.outgoing(1, ())

    def _finish_exchange(self, inbox: Sequence[Envelope], index: int) -> None:
        """Absorb the last exchange step; recompute B and C for index ``x-1``.

        Each gathered string is parsed once.  Those with the given index
        (F-list tuples, so they sort) are the proof sent with every
        activation, and give π for every processor in one pass.
        """
        assert self._exchange is not None
        self._exchange.absorb_final(inbox)
        chains: list[SignatureChain] = []
        flists: dict[ProcessorId, list[frozenset[ProcessorId]]] = {}
        for signer, per_signer in sorted(self._exchange.chains.items()):
            indexed: list[tuple[tuple, frozenset[ProcessorId]]] = []
            for value in per_signer:
                parsed = parse_flist(value)
                if parsed is not None and parsed[0] == index:
                    indexed.append((value, parsed[1]))
            for value, members in sorted(indexed):
                chains.append(per_signer[value])
                flists.setdefault(signer, []).append(members)
        proof = tuple(chains)
        pi = pi_counts(flists)
        threshold = self.alpha - 2 * self.ctx.t

        def qualifies(q: ProcessorId) -> bool:
            """Whether at least ``α − 2t`` actives still list *q*."""
            return pi[q] >= threshold

        self.b_set = frozenset(q for q in self._f_list if qualifies(q))

        new_c: list[SubtreeRef] = []
        new_proofs: dict[SubtreeRef, tuple[SignatureChain, ...]] = {}
        for tree_number, tree in enumerate(self.forest.trees):
            for root_index in tree.roots_at_depth(index):
                ref = SubtreeRef(tree=tree_number, root_index=root_index)
                if subtree_proven(tree, root_index, qualifies):
                    new_c.append(ref)
                    new_proofs[ref] = proof
        self.c_set = new_c
        self.proofs = new_proofs
        self._exchange = None

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        t = self.ctx.t
        if phase <= 3 * t + 3:
            if self.inner is not None:
                return self.inner.on_phase(phase, inbox)
            return []
        if phase == self.schedule.spread_phase:  # 3t + 4
            if self.inner is None:
                return []
            self.inner.on_final(inbox)
            self.valid_message = self._build_valid_message()
            if self.ctx.pid < t + 1 and self.valid_message is not None:
                extras = range(2 * t + 1, self.alpha)
                return [(q, self.valid_message) for q in extras]
            return []
        if phase == self.schedule.block0_phase:
            return self._block0(inbox)
        block = self.schedule.block_for(phase)
        if block is None:
            return []
        return self._block_phase(block, block.offset(phase), inbox)

    def _block_phase(
        self, block: Block, offset: int, inbox: Sequence[Envelope]
    ) -> list[Outgoing]:
        L = block.full_size
        if offset == 1:
            if block.x == self.schedule.levels:
                # extra actives adopt their valid message from phase 3t+4.
                self._adopt_valid_message(inbox)
            else:
                self._finish_exchange(inbox, index=block.x)
            return self._activations()
        if offset == 2 * L + 1:
            self._collect_reports(inbox)
            return self._start_exchange(index=block.x - 1)
        if offset == 2 * L + 2:
            assert self._exchange is not None
            return self._exchange.outgoing(2, inbox)
        if offset == 2 * L + 3:
            assert self._exchange is not None
            return self._exchange.outgoing(3, inbox)
        return []

    def _block0(self, inbox: Sequence[Envelope]) -> list[Outgoing]:
        if self.valid_message is None:
            # with no tree blocks (n == α) the spread-phase messages arrive
            # here; extras adopt their valid message now.
            self._adopt_valid_message(inbox)
        if self.schedule.blocks:
            self._finish_exchange(inbox, index=0)
        if self.valid_message is None:
            return []
        return [(q, self.valid_message) for q in sorted(self.b_set)]

    def decision(self) -> Value | None:
        if self.inner is not None:
            return self.inner.decision()
        if self.valid_message is not None:
            return self.valid_message.value
        return None


class Algorithm5Passive(Processor):
    """A passive processor: subtree member everywhere, root of exactly one
    subtree (the one hanging off its own node)."""

    def __init__(
        self,
        schedule: Algorithm5Schedule,
        forest: TreeForest,
        tree_number: int,
        alpha: int,
    ) -> None:
        self.schedule = schedule
        self.forest = forest
        self.tree_number = tree_number
        self.alpha = alpha
        self.first_valid: SignatureChain | None = None
        # Root-duty state.
        self.activated_block: int | None = None
        self._m: SignatureChain | None = None
        #: BFS order of our own subtree (filled when activated).
        self._visit_order: list[ProcessorId] = []
        #: Our heap index in our tree, and the block it makes us a root in
        #: (set once the context names our pid).
        self.heap_index = 0
        self.root_block = 0
        #: ``(x, slot)``: our :meth:`_slot_in_subtree` for block ``x``,
        #: computed once per block.
        self._slot: tuple[int, tuple[int, ProcessorId] | None] = (0, None)

    def on_bind(self) -> None:
        self.heap_index = self.tree.index_of(self.ctx.pid)
        level = self.tree.level_of_index(self.heap_index)
        self.root_block = self.schedule.levels - level + 1

    # --------------------------------------------------------------- helpers

    @property
    def tree(self) -> BinaryTree:
        return self.forest.trees[self.tree_number]

    def _slot_in_subtree(self, x: int) -> tuple[int, ProcessorId] | None:
        """Our 1-based BFS position ``j`` within the depth-``x`` subtree we
        belong to, and that subtree's root (``None`` if we sit above depth
        ``x``)."""
        if self._slot[0] == x:
            return self._slot[1]
        level = self.schedule.levels - x + 1
        my_level = self.tree.level_of_index(self.heap_index)
        slot = None
        if my_level >= level:
            root_index = self.heap_index >> (my_level - level)
            order = self.tree.subtree_indices(root_index)
            slot = (order.index(self.heap_index) + 1, self.tree.processor_at(root_index))
        self._slot = (x, slot)
        return slot

    def _note_valid(self, chain: SignatureChain) -> None:
        if self.first_valid is None:
            self.first_valid = chain

    def _is_valid(self, payload: object) -> bool:
        return is_proof_message(payload, self.ctx.t, self.alpha, self.ctx)

    # -------------------------------------------------------- proof checking

    def _verify_proof(self, proof: tuple, x: int) -> bool:
        """Verify a proof of work for our own depth-``x`` subtree."""
        if x == self.schedule.levels:
            return True
        if not isinstance(proof, tuple):
            return False
        # collect, per active signer, the F-lists with index x it signed.
        listed: dict[ProcessorId, set[frozenset[ProcessorId]]] = {}
        for chain in proof:
            if not isinstance(chain, SignatureChain) or len(chain) != 1:
                continue
            signer = chain.signatures[0].signer
            if not 0 <= signer < self.alpha:
                continue
            parsed = parse_flist(chain.value)
            if parsed is None or parsed[0] != x:
                continue
            if not chain.verify(self.ctx.service):
                continue
            listed.setdefault(signer, set()).add(parsed[1])

        pi = pi_counts(listed)
        threshold = self.alpha - 2 * self.ctx.t
        return subtree_proven(self.tree, self.heap_index, lambda q: pi[q] >= threshold)

    # ----------------------------------------------------------------- phases

    def on_phase(self, phase: int, inbox: Sequence[Envelope]) -> Iterable[Outgoing]:
        block = self.schedule.block_for(phase)
        if block is None:
            return []
        offset = block.offset(phase)
        sends: list[Outgoing] = []
        sends.extend(self._root_duty(block, offset, inbox))
        sends.extend(self._member_duty(block, offset, inbox))
        return sends

    def _root_duty(
        self, block: Block, offset: int, inbox: Sequence[Envelope]
    ) -> list[Outgoing]:
        """The root acts at even offsets ``2k``:

        * ``k = 1`` — the activations (sent at offset 1) arrive; on a valid
          one, adopt the message and send it to ``c(2)``;
        * ``k = 2 .. S`` — ``c(k)``'s signed response (sent at ``2k − 1``)
          arrives; absorb it and forward to ``c(k+1)``;
        * ``offset = 2L`` — report the accumulated message to every active
          (``S ≤ L``; a truncated subtree idles until the uniform report
          offset so the actives collect all reports in one phase).
        """
        if block.x != self.root_block:
            return []
        L = block.full_size
        if offset % 2 != 0 or offset > 2 * L:
            return []
        k = offset // 2
        sends: list[Outgoing] = []
        if k == 1:
            self._try_activate(block, inbox)
            if self._m is not None and len(self._visit_order) >= 2:
                sends.append((self._visit_order[1], self._m))
        elif self._m is not None and 2 <= k <= len(self._visit_order):
            self._absorb_response(inbox, k)
            if k < len(self._visit_order):
                sends.append((self._visit_order[k], self._m))
        if offset == 2 * L and self._m is not None:
            sends.extend((q, self._m) for q in range(self.alpha))
        return sends

    def _try_activate(self, block: Block, inbox: Sequence[Envelope]) -> None:
        for envelope in inbox:
            if not 0 <= envelope.src < self.alpha:
                continue
            payload = envelope.payload
            if not isinstance(payload, Activation):
                continue
            if not self._is_valid(payload.message):
                continue
            if not self._verify_proof(payload.proof, block.x):
                continue
            self.activated_block = block.x
            self._m = payload.message
            self._note_valid(payload.message)
            self._visit_order = self.tree.subtree_members(self.heap_index)
            return

    def _absorb_response(self, inbox: Sequence[Envelope], j: int) -> None:
        if j < 2 or j > len(self._visit_order) or self._m is None:
            return
        expected_member = self._visit_order[j - 1]
        for envelope in inbox:
            if envelope.src != expected_member:
                continue
            chain = envelope.payload
            if (
                isinstance(chain, SignatureChain)
                and chain.value == self._m.value
                and chain.signers == self._m.signers + (expected_member,)
                and chain.verify(self.ctx.service)
            ):
                self._m = chain
                return

    def _member_duty(
        self, block: Block, offset: int, inbox: Sequence[Envelope]
    ) -> list[Outgoing]:
        slot = self._slot_in_subtree(block.x)
        if slot is None or slot[0] < 2:
            return []
        j, root = slot
        # the root sends to c(j) at offset 2(j-1); we answer one phase later.
        if offset != 2 * (j - 1) + 1:
            return []
        from_root = [e for e in inbox if e.src == root]
        if len(from_root) != 1 or not self._is_valid(from_root[0].payload):
            return []
        chain: SignatureChain = from_root[0].payload
        self._note_valid(chain)
        signed = chain.extend(self.ctx.key, self.ctx.service)
        return [(root, signed)]

    def on_final(self, inbox: Sequence[Envelope]) -> None:
        # block 0: direct deliveries from the actives.
        for envelope in inbox:
            if 0 <= envelope.src < self.alpha and self._is_valid(envelope.payload):
                self._note_valid(envelope.payload)

    def decision(self) -> Value | None:
        return self.first_valid.value if self.first_valid is not None else None


class Algorithm5(AgreementAlgorithm):
    """Lemma 5 / Theorem 7: ``O(t² + nt/s)`` messages in ``≈ 3t + 4s``
    phases; ``s = t`` gives the optimal ``O(n + t²)``."""

    name = "algorithm-5"
    authenticated = True
    value_domain = frozenset({0, 1})
    #: the exact schedule never exceeds the library's closed-form phase
    #: count at tree size ``s`` (fewer levels only shorten it).
    phase_bound = "our_algorithm5_phase_bound(t, s)"
    #: the concrete instantiation of Lemma 5 depends on the schedule and
    #: forest shape — computed by ``upper_bound_messages``.
    message_bound = "derived"
    signature_bound = "unstated"

    def __init__(self, n: int, t: int, *, s: int | None = None) -> None:
        super().__init__(n, t)
        if t < 1:
            raise ConfigurationError("Algorithm 5 needs t >= 1")
        if s is None:
            s = t  # Theorem 7's choice
        if s < 1:
            raise ConfigurationError(f"tree size must be positive, got s={s}")
        self.alpha = smallest_square_above(6 * t)
        if n < self.alpha:
            raise ConfigurationError(
                f"Algorithm 5 needs n >= α = {self.alpha} (the smallest square "
                f"above 6t); for smaller n use Algorithm 2 or Algorithm 3"
            )
        self.s = s
        self.forest = TreeForest(tuple(range(self.alpha, n)), s)
        levels = max(
            (tree.levels for tree in self.forest.trees), default=0
        )
        self.schedule = Algorithm5Schedule(t, levels)
        self.grid = Grid(tuple(range(self.alpha)))
        self._core = Algorithm2(2 * t + 1, t)

    def num_phases(self) -> int:
        return self.schedule.num_phases

    def make_processor(self, pid: ProcessorId) -> Processor:
        if pid < 2 * self.t + 1:
            inner = self._core.make_processor(pid)
            return Algorithm5Active(
                inner, self.schedule, self.forest, self.alpha, self.grid
            )
        if pid < self.alpha:
            return Algorithm5Active(
                None, self.schedule, self.forest, self.alpha, self.grid
            )
        tree_number = next(
            i
            for i, tree in enumerate(self.forest.trees)
            if pid in tree.members
        )
        return Algorithm5Passive(self.schedule, self.forest, tree_number, self.alpha)

    def upper_bound_messages(self) -> int:
        """A concrete (generous) instantiation of Lemma 5's
        ``O(t² + nt/s)``: the Algorithm 2 core, the spread phase, the
        per-block Algorithm 4 gossip, and the tree traffic with the
        Lemma 4 activation bound."""
        t, n, s, alpha = self.t, self.n, self.s, self.alpha
        root_m = self.grid.m
        blocks = len(self.schedule.blocks) + 1
        core = 5 * t * t + 5 * t + (t + 1) * (alpha - 2 * t - 1)
        gossip = blocks * 3 * (root_m - 1) * alpha
        trees = len(self.forest.trees)
        # fault-free tree cost + worst-case faulty surcharge (Lemma 4):
        tree_traffic = trees * (2 * alpha + 2 * s) + t * (4 * alpha + 8 * s)
        return core + gossip + tree_traffic
