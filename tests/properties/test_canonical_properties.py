"""Property-based tests for canonicalisation, interning and signature counting.

The payload walks dispatch on a per-class shape table; the references
below are the straightforward ``isinstance`` walks they replaced, kept
here as oracles.  The strategies draw every shape the table specialises:
frozen and slotted dataclasses, ``Enum`` and ``IntEnum`` members, and
``int``/``str`` subclasses (``bool`` cannot be subclassed).
"""

import copy
import dataclasses
from collections import Counter
from enum import Enum, IntEnum
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.message import (
    _PRIMITIVES,
    CANONICAL_STATS,
    CanonicalisationError,
    Envelope,
    UninternableError,
    canonical,
    intern_key,
    iter_payload_parts,
    payload_digest,
)
from repro.core.metrics import MetricsLedger, count_signatures
from repro.crypto.chains import SignatureChain
from repro.crypto.signatures import Signature, SignatureService


class Colour(Enum):
    RED = "red"
    BLUE = "blue"


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Tally(int):
    """An int subclass that keeps int's repr."""


class Label(str):
    """A str subclass that keeps str's repr."""


@dataclasses.dataclass(frozen=True)
class Bundle:
    """A frozen (not slotted) dataclass that nests another payload."""

    label: str
    body: Any


# payloads built only from canonicalisable pieces.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.integers(-5, 5).map(Tally),
    st.text(max_size=5).map(Label),
    st.sampled_from(Colour),
    st.sampled_from(Level),
)
signatures = st.builds(
    Signature,
    signer=st.integers(0, 9),
    digest=st.text("0123456789abcdef", min_size=1, max_size=4),
)
payloads = st.recursive(
    st.one_of(scalars, signatures),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.frozensets(scalars, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.builds(
            SignatureChain,
            value=inner,
            signatures=st.lists(signatures, max_size=3).map(tuple),
        ),
        st.builds(Bundle, label=st.text(max_size=5), body=inner),
    ),
    max_leaves=12,
)


class TestCanonicalProperties:
    @given(payloads)
    def test_idempotent_under_reconstruction(self, payload):
        """Structurally equal payloads canonicalise identically."""
        assert canonical(payload) == canonical(copy.deepcopy(payload))

    @given(payloads)
    @settings(max_examples=60)
    def test_digest_deterministic(self, payload):
        assert payload_digest(payload) == payload_digest(payload)

    @given(st.lists(payloads, min_size=2, max_size=6, unique_by=lambda p: repr(p)))
    @settings(max_examples=60)
    def test_distinct_reprs_rarely_collide(self, distinct):
        """Digests of structurally distinct payloads do not collide (at
        test scale a collision would mean a canonicalisation bug, since
        sha256 cannot realistically collide here)."""
        canonicals = {repr(canonical(p)) for p in distinct}
        digests = {payload_digest(p) for p in distinct}
        assert len(digests) == len(canonicals)

    @given(st.frozensets(st.integers(0, 100), max_size=8))
    def test_set_canonical_is_order_free(self, members):
        shuffled = frozenset(sorted(members, reverse=True))
        assert canonical(members) == canonical(shuffled)


def _canonical_reference(payload, stats=None):
    """``canonical()`` with no shortcuts: always recurses per item.

    The production function dispatches on a per-class table and
    short-circuits tuples of primitives (the hot sign/verify shape); this
    reference spells out the plain ``isinstance`` walk so the properties
    below can assert the optimisations are behaviourally invisible.  When
    *stats* is given it counts, like ``CANONICAL_STATS``, the tuples whose
    items are all primitives (``fast``) and the rest (``slow``).
    """
    if payload is None or isinstance(payload, _PRIMITIVES):
        return payload
    if isinstance(payload, Enum):
        return ("enum", type(payload).__qualname__, payload.name)
    if isinstance(payload, tuple):
        if stats is not None:
            fast = all(i is None or isinstance(i, _PRIMITIVES) for i in payload)
            stats["fast" if fast else "slow"] += 1
        return ("tuple", *(_canonical_reference(item, stats) for item in payload))
    if isinstance(payload, list):
        return ("list", *(_canonical_reference(item, stats) for item in payload))
    if isinstance(payload, (frozenset, set)):
        return ("set", *sorted(repr(_canonical_reference(i, stats)) for i in payload))
    if isinstance(payload, dict):
        items = sorted(
            (repr(_canonical_reference(k, stats)), _canonical_reference(v, stats))
            for k, v in payload.items()
        )
        return ("dict", *items)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        fields = tuple(
            _canonical_reference(getattr(payload, f.name), stats)
            for f in dataclasses.fields(payload)
        )
        return ("dc", type(payload).__qualname__, *fields)
    raise TypeError(f"reference cannot canonicalise {type(payload)!r}")


def _parts_reference(payload):
    """Depth-first parts of *payload* by the plain ``isinstance`` walk."""
    yield payload
    if isinstance(payload, (tuple, list, frozenset, set)):
        for item in payload:
            yield from _parts_reference(item)
    elif isinstance(payload, dict):
        for key, value in payload.items():
            yield from _parts_reference(key)
            yield from _parts_reference(value)
    elif dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        for field in dataclasses.fields(payload):
            yield from _parts_reference(getattr(payload, field.name))


def _count_reference(payload):
    """The generator pipeline ``count_signatures`` replaced."""
    return sum(1 for part in _parts_reference(payload) if isinstance(part, Signature))


# Tuples of primitives — exactly the shape the fast path accepts.
primitive_tuples = st.tuples(
    *[
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**40), 2**40),
            st.text(max_size=10),
            st.binary(max_size=10),
        )
    ]
    * 3
)


class TestFastPathEquivalence:
    """The primitive-tuple fast path and the identity-keyed digest memo are
    optimisations; on every payload they must agree with the slow path."""

    @given(payloads)
    @settings(max_examples=120)
    def test_canonical_matches_reference_on_arbitrary_payloads(self, payload):
        assert canonical(payload) == _canonical_reference(payload)

    @given(primitive_tuples)
    def test_canonical_matches_reference_on_fast_path_shape(self, payload):
        assert canonical(payload) == _canonical_reference(payload)

    @given(st.lists(payloads, min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_nested_tuple_payloads_agree(self, items):
        # mixed tuples: some trip the fast path, some recurse
        payload = tuple(items) + (("inner", 1), None)
        assert canonical(payload) == _canonical_reference(payload)

    @given(payloads)
    @settings(max_examples=80)
    def test_memoised_digest_matches_slow_path(self, payload):
        service = SignatureService()
        slow = payload_digest(payload)
        assert service._digest(payload) == slow
        # second call is the memo hit — must still agree
        assert service._digest(payload) == slow


class TestShapeTable:
    """Every walk on the shape table agrees with its reference walk."""

    @given(payloads)
    @settings(max_examples=120)
    def test_canonical_stats_move_as_the_reference_predicts(self, payload):
        predicted: Counter[str] = Counter()
        expected = _canonical_reference(payload, predicted)
        before = dict(CANONICAL_STATS)
        assert canonical(payload) == expected
        moved = {key: CANONICAL_STATS[key] - before[key] for key in before}
        assert moved == {"fast": predicted["fast"], "slow": predicted["slow"]}

    @given(payloads)
    @settings(max_examples=120)
    def test_count_signatures_matches_the_generator_reference(self, payload):
        assert count_signatures(payload) == _count_reference(payload)
        assert [id(p) for p in iter_payload_parts(payload)] == [
            id(p) for p in _parts_reference(payload)
        ]

    @pytest.mark.parametrize("cls", [Signature, SignatureChain, Bundle, Colour, Level, int])
    def test_class_objects_still_raise(self, cls):
        for payload in (cls, ("wrapped", cls), [cls], Bundle("x", cls)):
            with pytest.raises(CanonicalisationError):
                canonical(payload)
            with pytest.raises(UninternableError):
                intern_key(payload)
            assert count_signatures(payload) == _count_reference(payload) == 0


# A small pool of scalars that compare equal across types (1 == True ==
# 1.0 == Tally(1) == Level.LOW), so equal and unequal keys both occur.
tiny_scalars = st.sampled_from(
    [
        None, 0, 1, True, False, 0.0, -0.0, 1.0, "a", b"a",
        Tally(1), Label("a"), Level.LOW, Level.HIGH, Colour.RED,
    ]
)
tiny_payloads = st.recursive(
    st.one_of(tiny_scalars, st.builds(Signature, signer=tiny_scalars, digest=st.just("d"))),
    lambda inner: st.one_of(
        st.tuples(inner),
        st.lists(inner, max_size=2),
        st.frozensets(tiny_scalars, max_size=2),
        st.dictionaries(tiny_scalars, inner, max_size=2),
        st.builds(Bundle, label=st.just("x"), body=inner),
    ),
    max_leaves=4,
)


def _same_key_iff_same_canonical_repr(a, b):
    same_key = intern_key(a) == intern_key(b)
    assert same_key == (repr(canonical(a)) == repr(canonical(b)))


class TestInternKey:
    @given(tiny_scalars, tiny_scalars)
    @settings(max_examples=300)
    def test_scalar_keys_equal_exactly_when_canonical_reprs_are_equal(self, a, b):
        _same_key_iff_same_canonical_repr(a, b)

    @given(tiny_payloads, tiny_payloads)
    @settings(max_examples=300)
    @example((Level.LOW,), (1,))
    @example([Tally(1)], [1])
    @example(Bundle("x", Label("a")), Bundle("x", "a"))
    @example(frozenset({True}), frozenset({1}))
    @example({0.0: "a"}, {-0.0: "a"})
    def test_equal_keys_exactly_when_canonical_reprs_are_equal(self, a, b):
        _same_key_iff_same_canonical_repr(a, b)

    @given(payloads)
    def test_keys_survive_reconstruction(self, payload):
        assert intern_key(payload) == intern_key(copy.deepcopy(payload))


@st.composite
def phases_with_shared_payloads(draw):
    """Phases of sends over a small pool of payload objects, shared by
    several envelopes, as a broadcast shares one object."""
    pool = draw(st.lists(payloads, min_size=1, max_size=4))
    sends = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 9))
    phases = draw(st.lists(st.lists(sends, max_size=12), min_size=1, max_size=4))
    correct = draw(st.frozensets(st.integers(0, 5)))
    return pool, phases, correct


class TestLedgerCountsEachPayloadOncePerPhase:
    @given(phases_with_shared_payloads())
    @settings(max_examples=80)
    def test_same_ledger_as_counting_each_envelope(self, drawn):
        pool, phases, correct = drawn
        growing: list = []
        memoised, plain = MetricsLedger(), MetricsLedger()
        for phase, sends in enumerate(phases, start=1):
            # A list payload shared across phases and mutated between
            # them: a count from an earlier phase must not be reused.
            growing.append(Signature(signer=phase, digest="ab"))
            objects = [*pool, growing]
            sent = [
                Envelope(src, dst, phase, objects[pick % len(objects)])
                for src, dst, pick in sends
            ]
            counts = memoised.record_phase(sent, correct)
            for envelope in sent:
                plain.record_phase([envelope], correct)
            assert counts == [count_signatures(e.payload) for e in sent]
        assert memoised == plain
