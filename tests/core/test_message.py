"""Tests for repro.core.message: envelopes, canonical forms, digests."""

import hashlib
from dataclasses import dataclass
from enum import IntEnum

import pytest

from repro.algorithms.registry import get
from repro.core.message import (
    CanonicalisationError,
    Envelope,
    canonical,
    intern_key,
    iter_payload_parts,
    payload_digest,
)
from repro.core.metrics import count_signatures
from repro.core.runner import run
from repro.core.types import INPUT_SOURCE
from repro.transport.base import LockstepTransport


@dataclass(frozen=True)
class Sample:
    a: int
    b: tuple


class TestEnvelope:
    def test_fields(self):
        env = Envelope(src=1, dst=2, phase=3, payload="hello")
        assert (env.src, env.dst, env.phase, env.payload) == (1, 2, 3, "hello")

    def test_is_immutable(self):
        env = Envelope(src=1, dst=2, phase=3, payload="x")
        with pytest.raises(AttributeError):
            env.src = 9  # type: ignore[misc]

    def test_input_edge_detection(self):
        assert Envelope(INPUT_SOURCE, 0, 0, 1).is_input_edge()
        assert not Envelope(0, 1, 1, 1).is_input_edge()
        assert not Envelope(INPUT_SOURCE, 0, 2, 1).is_input_edge()


class TestCanonical:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s", b"b"):
            assert canonical(value) == value

    def test_tuple_and_list_do_not_collide(self):
        assert canonical((1, 2)) != canonical([1, 2])

    def test_set_order_is_irrelevant(self):
        assert canonical(frozenset({3, 1, 2})) == canonical(frozenset({2, 3, 1}))

    def test_set_and_tuple_do_not_collide(self):
        assert canonical(frozenset({1})) != canonical((1,))

    def test_dict_key_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_dataclasses_canonicalise_by_field(self):
        assert canonical(Sample(1, (2,))) == canonical(Sample(1, (2,)))
        assert canonical(Sample(1, (2,))) != canonical(Sample(1, (3,)))

    def test_dataclass_type_is_part_of_identity(self):
        @dataclass(frozen=True)
        class Other:
            a: int
            b: tuple

        assert canonical(Sample(1, ())) != canonical(Other(1, ()))

    def test_nested_structures(self):
        payload = ("tag", [1, {2: (3, 4)}], Sample(5, (6,)))
        assert canonical(payload) == canonical(("tag", [1, {2: (3, 4)}], Sample(5, (6,))))

    def test_uncanonicalisable_object_raises(self):
        with pytest.raises(CanonicalisationError):
            canonical(object())

    def test_primitive_tuple_fast_path_matches_general_form(self):
        """The fast path for tuples of primitives must produce exactly the
        form the general per-item recursion would."""
        payload = ("vote", 3, None, True, 2.5, b"sig", "p")
        assert canonical(payload) == ("tuple", *(canonical(item) for item in payload))
        assert canonical(payload) == ("tuple", *payload)

    def test_mixed_tuple_takes_general_path(self):
        payload = ("vote", (1, 2), [3])
        assert canonical(payload) == (
            "tuple",
            "vote",
            ("tuple", 1, 2),
            ("list", 3),
        )

    def test_fast_path_digest_stability(self):
        """Digests over primitive tuples are unchanged by the fast path —
        pinned value so a future refactor cannot silently re-key every
        signature registry."""
        assert payload_digest(("msg", 1, "x")) == "1c7c6b7a42a0fc9e"
        assert payload_digest(("msg", 1, "x")) != payload_digest(("msg", 1, "y"))

    def test_int_enum_member_keeps_its_scalar_form(self):
        """An ``IntEnum`` member is an ``int``: it passes through as a
        scalar (its repr, not the enum tag, reaches the digest)."""

        class Level(IntEnum):
            LOW = 1

        assert canonical(Level.LOW) is Level.LOW
        assert canonical((Level.LOW, 2)) == ("tuple", Level.LOW, 2)
        assert payload_digest(Level.LOW) != payload_digest(1)


class TestInternKey:
    def test_cross_type_equal_values_get_distinct_keys(self):
        class Level(IntEnum):
            LOW = 1

        keys = {intern_key(v) for v in (1, True, 1.0, Level.LOW)}
        assert len(keys) == 4


class _RecordingTransport(LockstepTransport):
    """The perfect network, keeping every envelope it routes."""

    def __init__(self):
        super().__init__()
        self.sends = []

    def deliver(self, phase, sent, correct_count):
        self.sends.extend(sent)
        return super().deliver(phase, sent, correct_count)


#: sha256 over ``"<payload_digest>:<count_signatures>\n"`` of every send of
#: one fault-free run on value 1.  The other tests compare walks with each
#: other; these pins catch a walk that changes every digest the same way.
GOLDEN_SENDS = {
    ("dolev-strong", 7, 2): "04a1b8c2402d434591b3fe77c7abf7cf458d91eaefc5df7b3012de3626e8fe2e",
    ("algorithm-1", 7, 3): "90b7df5aaed46bdc4584138cd1ca406c5edb8e4bd0e7601a586e820cc35c8150",
    ("algorithm-2", 7, 3): "16a00013e5f4b3d60e980bb20f3aa7e10073890d4384e74339377963362ec712",
    ("algorithm-3", 20, 2): "ddee63eedf9088c20af3a9828eac2b8f666e904df142e35474475ca36de96c38",
    ("algorithm-5", 40, 2): "80909fead817c898a41a9c4fc5b45831405a227924edd899d6cdd8e1d8e80d6d",
    ("active-set", 10, 2): "ed04f7fa4b8200d1a5a9ff99210a2b97ce89f74556e749453ed1355f4e47a8cf",
    ("informed-algorithm-2", 9, 2): "e8d0842218750550fc374609a6de186ec584e3a7cac508c2710d7b315a3ce252",
}


class TestGoldenSendDigests:
    @pytest.mark.parametrize("name,n,t", sorted(GOLDEN_SENDS))
    def test_digests_and_signature_counts_are_pinned(self, name, n, t):
        transport = _RecordingTransport()
        run(get(name)(n, t), 1, transport=transport)
        assert transport.sends
        digest = hashlib.sha256()
        for envelope in transport.sends:
            line = f"{payload_digest(envelope.payload)}:{count_signatures(envelope.payload)}\n"
            digest.update(line.encode())
        assert digest.hexdigest() == GOLDEN_SENDS[(name, n, t)]


class TestPayloadDigest:
    def test_deterministic(self):
        assert payload_digest((1, "a")) == payload_digest((1, "a"))

    def test_distinguishes_payloads(self):
        assert payload_digest((1, "a")) != payload_digest((1, "b"))

    def test_fixed_length_hex(self):
        digest = payload_digest("anything")
        assert len(digest) == 16
        int(digest, 16)  # parses as hex


class TestIterPayloadParts:
    def test_yields_self_first(self):
        assert next(iter_payload_parts(42)) == 42

    def test_walks_tuples_and_dicts(self):
        parts = list(iter_payload_parts(("a", {"k": "v"})))
        assert "a" in parts and "k" in parts and "v" in parts

    def test_walks_dataclasses(self):
        sample = Sample(7, (8, 9))
        parts = list(iter_payload_parts(sample))
        assert sample in parts and 7 in parts and 8 in parts and 9 in parts
