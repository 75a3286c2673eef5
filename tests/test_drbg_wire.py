"""Deterministic byte stream and length-prefixed wire helpers."""

from __future__ import annotations

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from detmit.drbg import HashDrbg, derive_trial_seed
from detmit.wire import be32, be64, pack_fields, unpack_exact, unpack_fields


def test_drbg_reproducible():
    a = HashDrbg(1234)
    b = HashDrbg(1234)
    assert a.take(100) == b.take(100)
    assert a.u64() == b.u64()
    assert a.uniform() == b.uniform()


def test_drbg_seed_types_distinct():
    streams = {HashDrbg(s).take(16) for s in (0, 1, b"\x02" * 16, "0")}
    assert len(streams) == 4


def test_drbg_children_independent_of_parent_position():
    a = HashDrbg(9)
    a.take(1000)
    b = HashDrbg(9)
    assert a.child("x").take(32) == b.child("x").take(32)
    assert a.child("x").take(32) != a.child("y").take(32)


def test_drbg_uniform_and_bit_ranges():
    rng = HashDrbg(5)
    vals = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05
    bits = [rng.bit() for _ in range(2000)]
    assert set(bits) <= {0, 1}
    assert abs(sum(bits) / len(bits) - 0.5) < 0.05


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=99))
def test_drbg_randrange_bounds(n, salt):
    rng = HashDrbg(salt)
    assert 0 <= rng.randrange(n) < n


def _reference_stream(seed: bytes, n: int) -> bytes:
    """The first n bytes of HashDrbg(seed), built block by block from its spec."""
    key = hashlib.sha256(b"drbg-key:" + seed).digest()
    blocks = (n + 31) // 32
    return b"".join(hashlib.sha256(key + be64(i)).digest() for i in range(blocks))[:n]


@given(
    st.binary(max_size=8),
    st.lists(st.integers(min_value=-40, max_value=100), max_size=40),
)
def test_drbg_takes_are_slices_of_one_stream(seed, sizes):
    """Any run of take sizes reads the stream in order; sizes <= 0 read nothing."""
    rng = HashDrbg(seed)
    total = sum(n for n in sizes if n > 0)
    stream = _reference_stream(seed, total + 32)
    pos = 0
    for n in sizes:
        state = (rng._counter, rng._pos)
        want = stream[pos : pos + n] if n > 0 else b""
        assert rng.take(n) == want
        if n <= 0:
            assert (rng._counter, rng._pos) == state
        pos += len(want)
    assert rng.take(32) == stream[pos : pos + 32]


def test_trial_seed_derivation_stable():
    s0 = derive_trial_seed(42, 0)
    assert s0 == derive_trial_seed(42, 0)
    assert s0 != derive_trial_seed(42, 1)
    assert s0 != derive_trial_seed(43, 0)
    assert len(s0) == 32


def test_be_encodings():
    assert be32(1) == b"\x00\x00\x00\x01"
    assert be64(1 << 40) == bytes([0, 0, 1, 0, 0, 0, 0, 0])


@given(st.lists(st.binary(max_size=64), min_size=1, max_size=6))
def test_pack_unpack_roundtrip(fields):
    buf = pack_fields(*fields)
    assert unpack_exact(buf, len(fields)) == fields


@given(st.lists(st.binary(max_size=32), min_size=1, max_size=4), st.binary(max_size=8))
def test_unpack_fields_returns_rest(fields, rest):
    buf = pack_fields(*fields) + rest
    parsed = unpack_fields(buf, len(fields))
    assert parsed == (fields, rest)


def test_unpack_malformed_is_none():
    assert unpack_fields(b"\x00\x00\x00\x05ab", 1) is None  # truncated field
    assert unpack_fields(b"\x00\x00", 1) is None  # truncated prefix
    assert unpack_exact(pack_fields(b"a") + b"x", 1) is None  # trailing bytes
    assert unpack_exact(pack_fields(b"a", b"b"), 3) is None  # missing field
