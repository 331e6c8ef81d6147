"""Message model: envelopes and canonical payload digests.

A *message* in the paper's model is a label on a directed edge of a phase
graph.  Here a sent message is an :class:`Envelope` — an immutable record of
``(src, dst, phase, payload)``.  The network stamps ``src`` and ``phase``;
protocols only choose ``(dst, payload)``.  This enforces the paper's
assumption that *"for each labeled edge, processor p knows the source of
that edge — no processor can send a message to p claiming to be somebody
else."*

Payloads must be canonicalisable: built from hashable immutables (ints,
strings, tuples, frozensets, frozen dataclasses).  :func:`payload_digest`
computes a deterministic digest used by the simulated signature scheme; it
is stable across processes (unlike :func:`hash`, which Python salts).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Callable, Iterator, Mapping

from repro.core.types import INPUT_SOURCE, ProcessorId


@dataclass(frozen=True, slots=True)
class Envelope:
    """One delivered message: an edge label of a phase graph.

    Attributes:
        src: true sender (stamped by the network, never spoofable); the
            special value :data:`~repro.core.types.INPUT_SOURCE` marks the
            phase-0 inedge that carries the transmitter's private value.
        dst: receiver.
        phase: the phase in which the message was *sent*; it is delivered to
            (and acted on by) the receiver at the beginning of ``phase + 1``.
        payload: arbitrary canonicalisable content.
    """

    src: ProcessorId
    dst: ProcessorId
    phase: int
    payload: Any

    def is_input_edge(self) -> bool:
        """True for the phase-0 inedge carrying the transmitter's value."""
        return self.src == INPUT_SOURCE and self.phase == 0


#: What a protocol returns from ``on_phase``: destination plus payload.
Outgoing = tuple[ProcessorId, Any]


class CanonicalisationError(TypeError):
    """Raised when a payload contains an object we cannot canonicalise."""


class UninternableError(TypeError):
    """Raised by :func:`intern_key` for payloads it cannot key by value."""


#: Scalar types that are their own canonical form.
_PRIMITIVES = (bool, int, float, str, bytes)

# ------------------------------------------------------------ shape table
#
# Every walk below dispatches on one per-class table, ``_SHAPES``, from a
# payload's exact type to its shape ``(kind, walk, fields, qualname)``:
#
# * ``kind`` — how :func:`canonical` and :func:`intern_key` treat the
#   type.  The kinds up to ``_BY_REPR`` are scalars, their own canonical
#   form, told apart only by the tag :func:`intern_key` gives them.
# * ``walk`` — how :func:`iter_payload_parts` and :func:`count_parts`
#   descend: into the items (``_TUPLE``, ``_LIST``, ``_SET``), the keys
#   and values (``_DICT``), the fields (``_DATACLASS``), or not at all
#   (``_OPAQUE``).
# * ``fields`` — for a dataclass, a function returning its field values.
# * ``qualname`` — the tag of enum members and dataclass instances.
#
# A type is resolved once, the first time a payload of that type is
# seen, by the ``isinstance`` order the walks have always used, so
# subclasses keep their forms: an ``IntEnum`` member is an ``int``, hence
# a scalar.  Every check in that order depends only on the type, which
# is what makes caching by type sound.  The table holds one entry per
# payload type and is empty at import.

(_NONE, _BOOL, _INT, _STR, _BYTES, _BY_REPR) = range(6)
(_ENUM, _TUPLE, _LIST, _SET, _DICT, _DATACLASS, _OPAQUE) = range(6, 13)

_Shape = tuple[int, int, "Callable[[Any], tuple] | None", str]

_SHAPES: dict[type, _Shape] = {}

#: The table's scalar and leaf rows as sets of types, so a whole tuple can
#: be classified with one C-level ``issuperset`` instead of one call per
#: item.  A type is added when it is resolved, so a type the table has not
#: met yet is in neither set.
_SCALAR_TYPES: set[type] = set()
_LEAF_TYPES: set[type] = set()

#: Scalar bases whose values are keyed by value (the rest by ``repr``).
_VALUE_KEYED = ((bool, _BOOL), (int, _INT), (str, _STR), (bytes, _BYTES))


def _fields_getter(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """A function returning the values of attributes *names* as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        getter = attrgetter(names[0])
        return lambda payload: (getter(payload),)
    return lambda payload: ()


def _scalar_kind(payload: Any) -> int:
    """The scalar kind of *payload*, a ``None`` or a primitive.

    ``bool``, ``int``, ``str`` and ``bytes`` values — subclasses included,
    unless they override ``__repr__`` — are keyed by value.  Floats and
    every subclass with its own ``__repr__`` (an ``IntEnum`` member, say)
    are keyed by ``repr``: the digest reads the ``repr``, and for these the
    ``repr`` is what tells apart values that compare equal.
    """
    if payload is None:
        return _NONE
    cls = type(payload)
    for base, kind in _VALUE_KEYED:
        if isinstance(payload, base):
            return kind if cls.__repr__ is base.__repr__ else _BY_REPR
    return _BY_REPR


def _shape_of(payload: Any) -> _Shape:
    """Resolve and record the shape of ``type(payload)``."""
    cls = type(payload)
    fields = None
    if isinstance(payload, tuple):
        walk = _TUPLE
    elif isinstance(payload, list):
        walk = _LIST
    elif isinstance(payload, (frozenset, set)):
        walk = _SET
    elif isinstance(payload, dict):
        walk = _DICT
    elif dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        walk = _DATACLASS
        fields = _fields_getter(tuple(f.name for f in dataclasses.fields(payload)))
    else:
        walk = _OPAQUE
    if payload is None or isinstance(payload, _PRIMITIVES):
        kind = _scalar_kind(payload)
        _SCALAR_TYPES.add(cls)
    elif isinstance(payload, Enum):
        kind = _ENUM
    else:
        kind = walk
    if walk == _OPAQUE:
        _LEAF_TYPES.add(cls)
    shape = (kind, walk, fields, cls.__qualname__)
    _SHAPES[cls] = shape
    return shape


# ----------------------------------------------------------------- walks


def canonical(payload: Any) -> Any:
    """Reduce *payload* to a canonical nested-tuple form.

    The canonical form is built only from ``None``, ``bool``, ``int``,
    ``float``, ``str``, ``bytes`` and tuples, with explicit type tags so
    that, e.g., ``(1, 2)`` and ``[1, 2]`` and ``frozenset({1, 2})`` cannot
    collide.  Frozen dataclasses are canonicalised field by field (tagged
    with their qualified class name), which covers every message type in
    this library.
    """
    shape = _SHAPES.get(type(payload)) or _shape_of(payload)
    kind = shape[0]
    if kind <= _BY_REPR:
        return payload
    if kind == _TUPLE:
        # Fast path: a tuple of scalars (the dominant payload shape on hot
        # sign/verify paths) is its own canonical form item by item.
        if _SCALAR_TYPES.issuperset(map(type, payload)):
            return ("tuple", *payload)
        return ("tuple", *map(canonical, payload))
    if kind == _DATACLASS:
        values = shape[2](payload)
        if _SCALAR_TYPES.issuperset(map(type, values)):
            return ("dc", shape[3], *values)
        return ("dc", shape[3], *map(canonical, values))
    if kind == _ENUM:
        return ("enum", shape[3], payload.name)
    if kind == _LIST:
        return ("list", *map(canonical, payload))
    if kind == _SET:
        return ("set", *sorted(map(repr, map(canonical, payload))))
    if kind == _DICT:
        items = sorted((repr(canonical(k)), canonical(v)) for k, v in payload.items())
        return ("dict", *items)
    raise CanonicalisationError(
        f"cannot canonicalise payload of type {type(payload).__qualname__}"
    )


def payload_digest(payload: Any) -> str:
    """Deterministic short digest of a payload's canonical form.

    Used as the "contents" a signature binds to.  Collision resistance at
    simulation scale is ample with 16 hex chars (64 bits); the scheme's
    unforgeability does **not** rest on the digest (it rests on the key
    registry), so the digest only needs to distinguish payloads honestly
    produced within one run.
    """
    text = repr(canonical(payload)).encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:16]


def intern_key(payload: Any) -> Any:
    """A hashable, type-tagged mirror of *payload*'s canonical form.

    Two payloads get equal keys **iff** their canonical forms (and hence
    their :func:`payload_digest`) are equal — unlike raw payloads used as
    dict keys, where Python's cross-type equalities (``1 == True``,
    ``1 == 1.0``) would conflate values whose digests differ.  The batch
    engine uses these keys for its shared digest table and for run-class
    deduplication.

    Floats, and scalar subclasses that override ``__repr__`` (such as
    ``IntEnum`` members), are keyed by ``repr`` — the digest is a function
    of the repr, so ``0.0`` and ``-0.0`` stay distinct, and so do an
    ``IntEnum`` member and the int it equals.  Mutable containers are keyed
    by their *current* contents — safe here because keys are recomputed on
    every lookup, never stored against the object.  Payload types outside
    the canonicalisable set raise :class:`UninternableError` (callers fall
    back to direct digest computation or skip deduplication).
    """
    shape = _SHAPES.get(type(payload)) or _shape_of(payload)
    kind = shape[0]
    if kind == _INT:
        return ("i", payload)
    if kind == _STR:
        return ("s", payload)
    if kind == _TUPLE:
        return ("t", *map(intern_key, payload))
    if kind == _DATACLASS:
        return ("d", shape[3], *map(intern_key, shape[2](payload)))
    if kind == _NONE:
        return None
    if kind == _BOOL:
        return ("b", payload)
    if kind == _BY_REPR:
        return ("r", repr(payload))
    if kind == _BYTES:
        return ("y", payload)
    if kind == _ENUM:
        return ("e", shape[3], payload.name)
    if kind == _LIST:
        return ("l", *map(intern_key, payload))
    if kind == _SET:
        # Sort by repr (not a frozenset of keys): a set can hold several
        # NaN objects, and multiplicity must survive into the key exactly
        # as it survives into the canonical form.
        return ("fs", *sorted(map(intern_key, payload), key=repr))
    if kind == _DICT:
        return (
            "m",
            *sorted(
                ((intern_key(k), intern_key(v)) for k, v in payload.items()),
                key=repr,
            ),
        )
    raise UninternableError(
        f"cannot intern payload of type {type(payload).__qualname__}"
    )


def iter_payload_parts(payload: Any) -> Iterator[Any]:
    """Depth-first iteration over a payload and its nested components.

    Descends into tuples, lists, sets, dicts (keys and values) and
    dataclass fields; anything else is a leaf.  Unlike :func:`canonical`
    it never raises, so it can inspect whatever a faulty processor sends.
    """
    yield payload
    shape = _SHAPES.get(type(payload)) or _shape_of(payload)
    walk = shape[1]
    if walk == _OPAQUE:
        return
    if walk == _DATACLASS:
        parts = shape[2](payload)
    elif walk == _DICT:
        parts = chain.from_iterable(payload.items())
    else:
        parts = payload
    for part in parts:
        yield from iter_payload_parts(part)


#: Per-type count hooks for :func:`count_parts`: a part of a listed type
#: is first offered to its hook, which returns the part's count or
#: ``None`` to have it walked.
CountHooks = Mapping[type, Callable[[Any], "int | None"]]


def count_parts(payload: Any, cls: type, hooks: CountHooks | None = None) -> int:
    """How many of the parts :func:`iter_payload_parts` yields are
    instances of the dataclass *cls*, as a plain recursive sum.

    The metrics ledger counts signatures with it; the caller names the
    class because this module sits below the crypto layer.  Only dataclass
    parts are tested, so *cls* must be a dataclass.  *hooks* let the
    caller answer for dataclass parts whose count it already knows (the
    ledger counts each unchangeable signature chain once per run).
    """
    shape = _SHAPES.get(type(payload)) or _shape_of(payload)
    walk = shape[1]
    if walk == _OPAQUE:
        return 0
    if walk == _DATACLASS:
        hook = hooks.get(type(payload)) if hooks is not None else None
        if hook is not None:
            known = hook(payload)
            if known is not None:
                return known
        own = 1 if isinstance(payload, cls) else 0
        parts = shape[2](payload)
        if _LEAF_TYPES.issuperset(map(type, parts)):
            return own
        return own + sum(map(count_parts, parts, repeat(cls), repeat(hooks)))
    if walk == _DICT:
        parts = chain.from_iterable(payload.items())
        return sum(map(count_parts, parts, repeat(cls), repeat(hooks)))
    if _LEAF_TYPES.issuperset(map(type, payload)):
        return 0
    return sum(map(count_parts, payload, repeat(cls), repeat(hooks)))
