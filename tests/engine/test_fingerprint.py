"""Unit tests for canonical state fingerprinting."""

import enum
from dataclasses import dataclass

from repro.engine import (
    DIGEST_SIZE,
    Codec,
    MemoryStore,
    StoreConfig,
    canonical_bytes,
    fingerprint,
    shard_of,
)
from repro.protocols import delegation_consensus_system


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class TestCanonicalBytes:
    def test_scalars_distinct(self):
        values = [None, True, False, 0, 1, -1, 0.5, "a", "b", b"a", ()]
        encodings = [canonical_bytes(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_bool_not_int(self):
        # bool is an int subclass; the encoding must still tell them apart.
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_frozenset_order_independent(self):
        a = frozenset([("x", 1), ("y", 2), ("z", 3)])
        b = frozenset(reversed(sorted(a)))
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_tuple_order_matters(self):
        assert canonical_bytes((1, 2)) != canonical_bytes((2, 1))

    def test_nesting_is_unambiguous(self):
        assert canonical_bytes(((1,), 2)) != canonical_bytes((1, (2,)))

    def test_dataclass_and_enum(self):
        assert canonical_bytes(Point(1, 2)) == canonical_bytes(Point(1, 2))
        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Point(2, 1))
        assert canonical_bytes(Color.RED) != canonical_bytes(Color.BLUE)


class TestFingerprint:
    def test_stable_across_calls(self):
        value = (frozenset([1, 2, 3]), {"k": (4, 5)})
        assert fingerprint(value) == fingerprint(value)

    def test_digest_size(self):
        assert len(fingerprint("x")) == DIGEST_SIZE
        assert len(fingerprint("x", 8)) == 8

    def test_real_states_fingerprint_distinctly(self):
        system = delegation_consensus_system(2, resilience=0)
        a = system.initialization({0: 0, 1: 1}).final_state
        b = system.initialization({0: 1, 1: 0}).final_state
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(a)

    def test_shard_of_covers_range(self):
        shards = {shard_of(fingerprint(i), 4) for i in range(256)}
        assert shards == {0, 1, 2, 3}


class TestIndexes:
    def test_index_distinguishes_bool_int_states(self):
        """Regression: the codec's shared component cache conflated
        (True, ...) and (1, ...) into one digest whichever was encoded
        first, so a digest-keyed visited set merged the two states.
        Both orders, one warm cache."""
        for states in [((True, "x"), (1, "x")), ((1, "x"), (True, "x"))]:
            codec = Codec(DIGEST_SIZE)
            store = MemoryStore(StoreConfig())
            for state in states:
                packed, digest = codec.encode_digest(state)
                assert digest not in store
                store.add(digest, packed)
                assert digest == fingerprint(state, DIGEST_SIZE)
            assert len(store) == 2
