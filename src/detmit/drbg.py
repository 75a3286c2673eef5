"""Deterministic byte generation.

Everything random in the simulator flows through :class:`HashDrbg`, a
counter-mode SHA-256 generator.  Python's stdlib RNGs would work, but a hash
DRBG gives bit-exact streams across platforms and interpreter versions, which
the transcript-determinism contract depends on.  A take past the buffered
block appends exactly the whole blocks it needs, in counter order, so how a
stream is cut into takes never changes its bytes.  A skip moves the position
only: the bytes it passes over are never made, and a block it passes over
whole is never hashed.  A :class:`Cursor` reads the buffered block in place,
for loops too hot for a call a read, and keeps both rules; it also hands
such a loop the stream's key state and block counter, so the loop can make
blocks itself.  Block i is ``sha256(key + be64(i))``, made from a copy of a
SHA-256 state of the key that the stream hashes once.

Every SHA-256 and SHA-512 object in the package is made by this module's
`sha256` and `sha512`: CPython's built-in SHA-2 where the interpreter has it,
since its objects are cheaper to make and copy than OpenSSL's and the inputs
hashed here are short, else hashlib's OpenSSL constructors.  The digests are
the same bytes either way.
"""

from __future__ import annotations

import hashlib


# An int seed is written as 16 big-endian two's-complement bytes, so it must
# lie in [SEED_MIN, SEED_MAX]; readers of outside input check it against these.
SEED_MIN, SEED_MAX = -(2**127), 2**127 - 1


# CPython's built-in SHA-2 objects, not hashlib's OpenSSL ones: the inputs
# hashed here are short (8 bytes past a kept state for a DRBG block), and on
# those the cost of allocating and copying an OpenSSL hash object is a large
# share of each digest; the built-in objects cost less.  An interpreter built
# without the built-in hashes has only hashlib's.
def _builtin_constructor(name: str):
    try:
        return hashlib.__get_builtin_constructor(name)
    except (AttributeError, ValueError):
        return getattr(hashlib, name)


sha256, sha512 = _builtin_constructor("sha256"), _builtin_constructor("sha512")


def _as_seed_bytes(seed: bytes | int | str) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, int):
        return seed.to_bytes(16, "big", signed=True)
    return seed.encode("utf-8")


class HashDrbg:
    """Counter-mode SHA-256 generator over a 32-byte internal key."""

    __slots__ = ("_key", "_state", "_counter", "_buf", "_pos")

    def __init__(self, seed: bytes | int | str):
        self._key = sha256(b"drbg-key:" + _as_seed_bytes(seed)).digest()
        self._state = None  # the key's SHA-256 state, made at the first block
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def take(self, n: int) -> bytes:
        """Return the next n bytes of the stream; ``b""`` when n <= 0."""
        pos = self._pos
        end = pos + n
        if pos < end <= len(self._buf):
            self._pos = end
            return self._buf[pos:end]
        if n <= 0:
            return b""
        buf, pos = self._fill(self._buf, pos, n)
        self._buf, self._pos = buf, pos + n
        return buf[pos : pos + n]

    def _fill(self, buf: bytes, pos: int, n: int) -> tuple[bytes, int]:
        """A buffer and position from which the n bytes at `pos` of `buf` read.

        `buf` ends where block `_counter` starts, and so does the buffer
        returned; `pos` may lie past its end after a skip.  Only the blocks
        that hold the n bytes are hashed, in counter order.
        """
        skipped = pos - len(buf)
        counter, state = self._counter, self._state
        if state is None:
            state = self._state = sha256(self._key)
        if skipped > 0:
            counter += skipped >> 5
            buf, pos = b"", skipped & 31
        else:
            buf, pos = buf[pos:], 0
        while len(buf) < pos + n:
            block = state.copy()
            block.update(counter.to_bytes(8, "big"))
            buf += block.digest()
            counter += 1
        self._counter = counter
        return buf, pos

    def skip(self, n: int) -> None:
        """Move past the next n bytes without making them; no-op when n <= 0.

        The next take starts where ``take(n)`` would have left it, so a
        skip equals a take whose bytes are dropped, but no block it passes
        over whole is hashed.
        """
        if n > 0:
            self._pos += n

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def bit(self) -> int:
        return self.take(1)[0] & 1

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        span = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.u64()
            if v < span:
                return v % n

    def child(self, label: bytes | int | str) -> "HashDrbg":
        """Derive an independent generator; used for per-party sub-streams."""
        return HashDrbg(self._key + b"/child/" + _as_seed_bytes(label))


class Cursor:
    """Reads a :class:`HashDrbg` stream in place, for loops too hot for a call a read.

    A loop copies ``buf``, ``pos`` and ``counter`` (`buf` ends where block
    `counter` starts) to locals.  It reads ``buf[pos:pos + n]`` (n >= 1) when
    ``pos + n <= len(buf)``, and calls ``buf, pos, counter =
    cursor.fill(buf, pos, counter, n)`` first when not; it moves past bytes
    with ``pos += n``, and hands back with ``cursor.close(buf, pos,
    counter)``.  The stream then stands where takes of what the loop read
    and skips of what it moved past leave it, and the same blocks are
    hashed: `fill` makes only the blocks that hold its n bytes, so a block
    the loop moves past whole is never hashed.  A loop may also fill as
    `fill` does, inline: drop the read part of `buf` (a `pos` d bytes past
    its end moves `counter` on ``d >> 5`` blocks and starts an empty `buf`
    at ``pos = d & 31``), then append ``state.copy()`` updated with
    ``counter.to_bytes(8, "big")`` and digested, adding 1 to `counter`.
    """

    __slots__ = ("_rng", "buf", "pos", "counter", "state")

    def __init__(self, rng: HashDrbg):
        if rng._state is None:
            rng._state = sha256(rng._key)
        self._rng, self.buf, self.pos = rng, rng._buf, rng._pos
        self.counter, self.state = rng._counter, rng._state

    def fill(self, buf: bytes, pos: int, counter: int, n: int) -> tuple[bytes, int, int]:
        rng = self._rng
        rng._counter = counter
        buf, pos = rng._fill(buf, pos, n)
        return buf, pos, rng._counter

    def close(self, buf: bytes, pos: int, counter: int) -> None:
        rng = self._rng
        rng._buf, rng._pos, rng._counter = buf, pos, counter


def derive_trial_seed(master_seed: int, trial_index: int) -> bytes:
    """Sub-seed for one trial: hash of (master seed, trial index)."""
    material = master_seed.to_bytes(16, "big", signed=True) + trial_index.to_bytes(
        8, "big"
    )
    return sha256(b"trial-seed:" + material).digest()
