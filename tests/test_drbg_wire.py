"""Deterministic byte stream and length-prefixed wire helpers."""

from __future__ import annotations

import hashlib
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmit import drbg
from detmit.drbg import Cursor, HashDrbg, derive_trial_seed
from detmit.wire import be32, be64, pack_fields
from testkit import CountingHashlib, uniform, unpack_exact, unpack_fields


def test_drbg_reproducible():
    a = HashDrbg(1234)
    b = HashDrbg(1234)
    assert a.take(100) == b.take(100)
    assert a.u64() == b.u64()
    assert uniform(a) == uniform(b)


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
    vals = [uniform(rng) for _ in range(2000)]
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
    st.lists(
        st.tuples(st.integers(min_value=-40, max_value=200), st.booleans(), st.booleans()),
        max_size=40,
    ),
)
@example(
    b"",
    [(5, False, False), (200, False, False), (3, True, False), (0, False, False),
     (129, True, False), (33, False, False)],
)
@example(b"", [(0, False, True), (-7, False, True), (5, False, False)])  # no-op skips
@example(b"", [(200, False, True), (1, False, False)])  # fresh skip over six whole blocks
@example(b"", [(64, False, True), (32, False, False), (32, False, True), (3, False, False)])
@example(
    b"s",
    [(5, False, False), (59, False, True), (40, False, False), (100, True, True),
     (100, False, True), (27, False, True), (1, True, False), (1, False, False)],
)
def test_drbg_takes_are_slices_of_one_stream(seed, ops):
    """Any run of takes and skips reads the stream in order.

    `(n, from_child, skip)` is `take(n)`, or `skip(n)` when `skip`; sizes
    <= 0 are no-ops.  A take of up to 200 bytes spans up to 8 blocks, and a
    skip of n drops exactly what `take(n)` would return.  Ops on a child
    stream, made partway through, are interleaved and move neither stream.
    Only the blocks some take reads from are hashed, each once (plus the
    child's key), so a block a skip passes over whole is never hashed.
    """
    rng = HashDrbg(seed)
    key = hashlib.sha256(b"drbg-key:" + seed).digest()
    total = sum(n for n, _, _ in ops if n > 0) + 32
    streams = {
        False: _reference_stream(seed, total),
        True: _reference_stream(key + b"/child/c", total),
    }
    pos = {False: 0, True: 0}
    read_blocks: set[tuple[bool, int]] = set()
    child, hashes = None, CountingHashlib()
    with patch.object(drbg, "sha256", hashes.sha256):
        for n, from_child, skip in ops:
            if from_child and child is None:
                child = rng.child("c")
            gen = child if from_child else rng
            state = (gen._counter, gen._buf, gen._pos)
            at = pos[from_child]
            if skip:
                assert gen.skip(n) is None
            elif n <= 0:
                assert gen.take(n) == b""
            else:
                assert gen.take(n) == streams[from_child][at : at + n]
                read_blocks.update((from_child, b) for b in range(at // 32, (at + n + 31) // 32))
            if n <= 0:
                assert (gen._counter, gen._buf, gen._pos) == state
            pos[from_child] += max(n, 0)
    assert hashes.blocks == len(read_blocks) + (child is not None)
    assert rng.take(32) == streams[False][pos[False] : pos[False] + 32]


def _inline_fill(cursor: Cursor, buf: bytes, pos: int, counter: int, n: int):
    """`cursor.fill(buf, pos, counter, n)` written out, each block made from `cursor.state`."""
    if pos > len(buf):
        counter += (pos - len(buf)) >> 5
        buf, pos = b"", (pos - len(buf)) & 31
    else:
        buf, pos = buf[pos:], 0
    while len(buf) < pos + n:
        block = cursor.state.copy()
        block.update(counter.to_bytes(8, "big"))
        buf += block.digest()
        counter += 1
    return buf, pos, counter


@given(
    st.binary(max_size=8),
    st.integers(min_value=0, max_value=100),
    st.lists(st.tuples(st.integers(min_value=1, max_value=120), st.booleans()), max_size=40),
    st.booleans(),
)
@example(b"", 0, [(1, False), (56, True), (17, False), (64, True), (1, False)], False)
@example(b"", 0, [(1, False), (56, True), (17, False), (64, True), (1, False)], True)
def test_a_cursor_reads_as_takes_and_skips_do(seed, start, ops, inline):
    """A loop over a cursor reads the bytes takes would, and hashes the same blocks.

    `(n, move)` reads n bytes in place, or moves past them when `move`, as
    `take(n)` and `skip(n)` would.  A skip of `start` bytes comes first, so
    the cursor may start past its buffer.  When `inline`, the loop makes its
    blocks itself from the cursor's key state and counter, as the ladder's
    token walk does.  After `close` the stream goes on where the takes and
    skips leave it.
    """
    rng, ref = HashDrbg(seed), HashDrbg(seed)
    rng.skip(start)
    ref.skip(start)
    hashes, ref_hashes = CountingHashlib(), CountingHashlib()
    read = []
    with patch.object(drbg, "sha256", hashes.sha256):
        cursor = Cursor(rng)
        fill = (lambda *args: _inline_fill(cursor, *args)) if inline else cursor.fill
        buf, pos, counter = cursor.buf, cursor.pos, cursor.counter
        for n, move in ops:
            if not move:
                if pos + n > len(buf):
                    buf, pos, counter = fill(buf, pos, counter, n)
                read.append(buf[pos : pos + n])
            pos += n
        cursor.close(buf, pos, counter)
    taken = []
    with patch.object(drbg, "sha256", ref_hashes.sha256):
        for n, move in ops:
            if move:
                ref.skip(n)
            else:
                taken.append(ref.take(n))
    assert read == taken
    assert hashes.blocks == ref_hashes.blocks
    assert rng.take(40) == ref.take(40)


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


def _reference_unpack(buf: bytes, count: int) -> tuple[list[bytes], bytes] | None:
    """Field by field, each bound checked on its own."""
    fields, pos = [], 0
    for _ in range(count):
        if pos + 4 > len(buf):
            return None
        n = int.from_bytes(buf[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(buf):
            return None
        fields.append(buf[pos : pos + n])
        pos += n
    return fields, buf[pos:]


def _framed(fields: list[bytes], cut: int, junk: bytes, extra: int) -> tuple[bytes, int]:
    """Framed fields, `cut` bytes short, then junk; a count near the field count."""
    buf = pack_fields(*fields)
    return buf[: max(0, len(buf) - cut)] + junk, min(5, max(0, len(fields) + extra))


@settings(max_examples=400)
@given(
    st.one_of(
        st.tuples(st.binary(max_size=64), st.integers(min_value=0, max_value=5)),
        st.builds(
            _framed,
            st.lists(st.binary(max_size=12), max_size=5),
            st.integers(min_value=0, max_value=4),
            st.binary(max_size=6),
            st.integers(min_value=-1, max_value=1),
        ),
    )
)
def test_unpack_fields_matches_a_reference_decoder(case):
    buf, count = case
    assert unpack_fields(buf, count) == _reference_unpack(buf, count)


def test_unpack_malformed_is_none():
    assert unpack_fields(b"\x00\x00\x00\x05ab", 1) is None  # truncated field
    assert unpack_fields(b"\x00\x00", 1) is None  # truncated prefix
    assert unpack_exact(pack_fields(b"a") + b"x", 1) is None  # trailing bytes
    assert unpack_exact(pack_fields(b"a", b"b"), 3) is None  # missing field
