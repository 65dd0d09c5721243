"""The rng derivation rule is a stable contract; these tests pin it."""

import hashlib

import numpy as np
import pytest

from pdsr.seeding import rng_for, stable_key


def test_int_parts_are_masked_to_64_bits():
    assert stable_key(5) == 5
    assert stable_key(-1) == 2**64 - 1
    assert stable_key(2**64 + 3) == 3


def test_string_parts_hash_via_blake2s_big_endian():
    expected = int.from_bytes(
        hashlib.blake2s(b"tracklet-7", digest_size=8).digest(), "big"
    )
    assert stable_key("tracklet-7") == expected


def test_bool_and_other_types_rejected():
    with pytest.raises(TypeError):
        stable_key(True)
    with pytest.raises(TypeError):
        stable_key(1.5)


def test_same_key_same_stream():
    a = rng_for(3, "probe-draw", "id0001").integers(0, 1000, 10)
    b = rng_for(3, "probe-draw", "id0001").integers(0, 1000, 10)
    assert np.array_equal(a, b)


def test_different_parts_different_streams():
    a = rng_for(3, "probe-draw", "id0001").integers(0, 1000, 10)
    b = rng_for(3, "probe-draw", "id0002").integers(0, 1000, 10)
    c = rng_for(4, "probe-draw", "id0001").integers(0, 1000, 10)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_is_independent_of_call_order():
    first = rng_for(0, "a").normal(size=4)
    rng_for(0, "b").normal(size=100)  # unrelated draws in between
    second = rng_for(0, "a").normal(size=4)
    assert np.array_equal(first, second)
