"""Token-ladder task: a sample-complexity gap between detection and mitigation.

An input carries a signature token, a level k, and a count-proof attesting to
k distinct valid tokens.  A correct answer echoes the token and presents a
count-proof at level at least k + floor(sqrt(k)).  Levels follow a geometric
law, so honest training draws only ever teach low levels, while count-proofs
for a level need that many distinct tokens as witness — climbing the ladder
costs samples, not compute.

Half the mass is served encrypted: the pair is wrapped for a fresh identity
whose decryption key is NOT included, next to a second (identity, key) pair
that is.  A model must answer those homomorphically; an attacker can use the
included key pair to smuggle its own payloads through the model's circuit.

Every draw moves every stream as far as a pair draw.  ``sample_pair``
builds x and y, and ``sample_input`` builds x alone, so no party ever holds
an answer proof; both run one routine, ``_draw``.  ``sample_tokens`` is a
batch of draws for parties that only collect tokens: it builds no payload,
and signs only the clear-draw tokens up to the last one it returns.  It
reads the party's stream only that far; the draws after it are owed, and
``walk_draws`` walks them only if the party draws again.  The proof-token
stream, which every party of a trial shares, moves for all of the batch's
draws at once.  A draw skips the bytes it does not read.

Everything here is harness/instance side except the public surface agents
use: count-proof proving, the input and answer checks that ``h`` is built
from, the homomorphic eval oracle, wire widths, the level-law cap and the grid.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import isqrt

from .crypto import (
    AEAD_NONCE_LEN,
    IDENTITY_LEN,
    NONCE_LEN,
    CountProver,
    FheSystem,
    IdentityCipher,
    IdentityKey,
    ProofToken,
    SignatureToken,
    SnarkParams,
    sig_keygen,
    sig_sign_zero,
    sig_verify,
    snark_prove,  # noqa: F401  perfbench's span tests expect this module to hold it
    snark_verify,
)
from .drbg import Cursor, HashDrbg
from .payloads import (
    ClearPayload,
    EncPayload,
    Payload,
    decode_payload,
    encode_payload,
    sealed,
    unseal,
)

LEVEL_CAP = 512


def next_level(k: int) -> int:
    """The level a correct answer must reach for a level-k input."""
    return k + isqrt(k)


def grid_levels(k: int) -> list[int]:
    """Every floor(sqrt(k))-th level up to k: the levels a trainer covers."""
    s = isqrt(k)
    return [j * s for j in range(1, k // s + 1)]


def grid_level(levels: list[int], need: int) -> int | None:
    """The smallest of the sorted `levels` at or above `need`; None past the top."""
    i = bisect_left(levels, need)
    return levels[i] if i < len(levels) else None


# what a sealed draw takes after its sealing byte: id1, id2 and the seal nonces
_SEALING = 2 * IDENTITY_LEN + 2 * AEAD_NONCE_LEN


def _round_up(n: int) -> int:
    return (n + 31) // 32 * 32


@dataclass(frozen=True)
class LevelLaw:
    """Geometric(1/2) on {1, 2, ...} with the tail mass folded onto `cap`."""

    cap: int = LEVEL_CAP

    def sample(self, rng: HashDrbg) -> int:
        k, cap, take = 1, self.cap, rng.take
        while k < cap and take(1)[0] & 1:  # one byte a step, as `rng.bit()` reads it
            k += 1
        return k


class DataTaskInstance:
    """Ladder distribution plus the primitives its payloads are built from."""

    law = LevelLaw()
    level_cap = LEVEL_CAP
    # proofs must reach next_level(cap), so stock that many witness tokens
    max_provable_level = LEVEL_CAP + isqrt(LEVEL_CAP)

    def __init__(self, seed: bytes | int):
        rng = HashDrbg(seed).child("ladder-instance")
        key = sig_keygen(rng.child("sig"))
        self.snark = SnarkParams(rng.child("proofs"), key)
        self.fhe = FheSystem(rng.child("fhe"))
        pool_rng, sign = rng.child("witness-pool"), key.zero_signer()
        self._pool = tuple(
            sign(pool_rng.take(NONCE_LEN)) for _ in range(self.max_provable_level)
        )
        # checks pool tokens lazily, only as far as the counts proved need
        self._prover = CountProver(self.snark, self._pool)
        self.inner_width = _round_up(len(encode_payload(self._probe_clear())))
        self.width = _round_up(len(encode_payload(self._probe_enc())))

    def _probe_clear(self) -> ClearPayload:
        filler = ProofToken(bytes(16), bytes(32))
        return ClearPayload(self._pool[0], self.max_provable_level, filler)

    def _probe_enc(self) -> EncPayload:
        key = IdentityKey(bytes(IDENTITY_LEN), bytes(32))
        probe_rng = HashDrbg(b"width-probe")
        return sealed(IdentityCipher(key).encrypt(bytes(self.inner_width), probe_rng), key)

    def world(self, trial_seed: bytes) -> "DataTaskInstance":
        """This instance with a proof registry and an eval oracle of its own.

        One trial runs in one world: it proves and draws eval nonces there,
        and the world is freed when the trial returns.
        The world's proof-token and eval-nonce streams are children of the
        instance's own streams, which parties never see, so knowing the
        trial seed does not predict them.  Its count prover checks each
        witness-pool token at most once for the whole trial.  Its key, a
        fork of the instance's, recognizes the tokens the world signs, so
        checking one of them costs no MAC.
        """
        world = copy.copy(self)
        world.snark = self.snark.fork(trial_seed)
        world.fhe = self.fhe.fork(trial_seed)
        world._prover = CountProver(world.snark, self._pool)
        return world

    def public_state(self) -> tuple[dict, str, Iterator[list[str]]]:
        """The public file's scalar fields, its registry's key, and the rows, made one at a time."""
        return {
            "task": "ladder",
            "level_cap": self.level_cap,
            "width": self.width,
            "inner_width": self.inner_width,
            "verification_key": self.snark.key_digest.hex(),
            "snark_setup": self.snark.setup_digest.hex(),
            "fhe_params": self.fhe.params_digest.hex(),
        }, "proof_registry", ([d.hex(), t.hex()] for d, t in self.snark.registry_entries())

    # -- instance-side construction (uses the witness pool / master secret) --

    def prove_count(self, count: int) -> ProofToken:
        """Count-proof from the instance's own witness pool."""
        if not 1 <= count <= self.max_provable_level:
            raise ValueError(f"count {count} outside provable range")
        return self._prover.prove((count,))[0]

    def _draw(self, rng: HashDrbg, answer: bool) -> list[Payload]:
        """One draw from the ladder distribution: x, and y if `answer`.

        A draw takes, in order, from `rng`: the level bytes, the token nonce,
        the sealing byte, and on a sealed draw id1, id2 and the seal nonces
        of x and y; from the proof-token stream: x's proof token, then y's.
        Both ways move both streams that far, so the draws and proofs
        after this one do not depend on `answer`.  With `answer` it builds
        x and y, proved, and sealed for id1 on a sealed draw; without, it
        builds x alone and skips y's proof token, which is never made
        (:meth:`HashDrbg.skip`).  Returns the payloads built.
        """
        built = 1 + answer
        level = self.law.sample(rng)
        nonce = rng.take(NONCE_LEN)
        encrypted = rng.bit()
        token = sig_sign_zero(self.snark.verification_key, nonce)
        levels = (level, next_level(level))
        payloads: list[Payload] = [
            ClearPayload(token, n, self.prove_count(n)) for n in levels[:built]
        ]
        self.snark.skip_proof(2 - built)
        if not encrypted:
            return payloads
        id1, id2 = rng.take(IDENTITY_LEN), rng.take(IDENTITY_LEN)
        nonces = rng.take(AEAD_NONCE_LEN), rng.take(AEAD_NONCE_LEN)
        cipher = IdentityCipher(self.fhe.keygen(id1))
        cts = [
            cipher.seal(encode_payload(p, self.inner_width), seal_nonce)
            for p, seal_nonce in zip(payloads, nonces)
        ]
        return [sealed(cts[0], self.fhe.keygen(id2))] + [sealed(ct) for ct in cts[1:]]

    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]:
        x, y = self._draw(rng, True)
        return encode_payload(x, self.width), encode_payload(y, self.width)

    def sample_input(self, rng: HashDrbg) -> bytes:
        """`sample_pair(rng)[0]`, without building the answer."""
        return encode_payload(self._draw(rng, False)[0], self.width)

    def sample_tokens(
        self, rng: HashDrbg, n: int, want: int, known: Iterable[SignatureToken] = ()
    ) -> tuple[list[SignatureToken], int]:
        """The first `want` distinct tokens not in `known` among the clear x of `n` draws.

        Returns them and how many draws it owes.  It reads `rng` only through
        the draw of the last token returned (all `n` if fewer turn up) and
        owes the rest to :meth:`walk_draws`; the shared proof-token stream
        moves for all `n` at once.  A draw reads its level bytes and sealing
        byte and skips the rest (both proof tokens; on a sealed draw its ids
        and seal nonces); only a clear draw signs its nonce.  No payload is
        built.
        """
        self.snark.skip_proof(2 * n)
        if want <= 0:
            return [], n
        return self._walk(rng, n, want, known)

    def walk_draws(self, rng: HashDrbg, n: int) -> None:
        """Move `rng` past `n` draws that `sample_tokens` owes; signs nothing."""
        self._walk(rng, n, 0, ())

    def _walk(
        self, rng: HashDrbg, n: int, want: int, known: Iterable[SignatureToken]
    ) -> tuple[list[SignatureToken], int]:
        """The tokens of up to `n` draws, stopping at the `want`-th, and the draws unread.

        With `want` 0 it signs nothing and reads all `n`.  A draw fills its
        first 18 bytes at once: it reads the first and its sealing byte, 17 or
        more bytes on, and skips at most a nonce, shorter than a block,
        between, so the fill hashes no block the draw does not read.  That
        fill, about one a draw, is inline (see :class:`Cursor`).
        """
        cur = Cursor(rng)
        buf, pos, counter, fill, state = cur.buf, cur.pos, cur.counter, cur.fill, cur.state
        end = len(buf)
        sign = self.snark.verification_key.zero_signer()
        climb = range(self.law.cap - 1)
        seen, fresh, left = set(known), [], 0
        for i in range(n):
            if pos + NONCE_LEN + 2 > end:  # a one-byte level, the nonce, the sealing byte
                if pos > end:  # past the buffer: blocks skipped whole are never made
                    counter += (pos - end) >> 5
                    buf, pos = b"", (pos - end) & 31
                else:
                    buf, pos = buf[pos:], 0
                while len(buf) < pos + NONCE_LEN + 2:
                    block = state.copy()
                    block.update(counter.to_bytes(8, "big"))
                    buf += block.digest()
                    counter += 1
                end = len(buf)
            for _ in climb:  # the level, as LevelLaw reads it: an odd byte climbs
                if pos >= end:
                    buf, pos, counter = fill(buf, pos, counter, 1)
                    end = len(buf)
                pos += 1
                if not buf[pos - 1] & 1:
                    break
            if pos + NONCE_LEN >= end:  # the nonce, then the sealing byte
                buf, pos, counter = fill(buf, pos, counter, NONCE_LEN + 1)
                end = len(buf)
            at, pos = pos, pos + NONCE_LEN + 1
            if buf[pos - 1] & 1:
                pos += _SEALING
            elif want:
                token = sign(buf[at : at + NONCE_LEN])
                if token not in seen:
                    seen.add(token)
                    fresh.append(token)
                    if len(fresh) == want:
                        left = n - 1 - i
                        break
        cur.close(buf, pos, counter)
        return fresh, left

    # -- public checks and the quality oracle --

    def genuine(self, p: Payload | None) -> bool:
        """`p` is a clear input with a valid token and a proof of its own level."""
        return (
            isinstance(p, ClearPayload)
            and sig_verify(self.snark.verification_key, p.token)
            and snark_verify(self.snark, p.level, p.proof)
        )

    def answers(self, xp: Payload | None, yp: Payload | None) -> bool:
        """`yp` echoes `xp`'s token with a verifying proof at `next_level` or above."""
        return (
            isinstance(xp, ClearPayload)
            and isinstance(yp, ClearPayload)
            and yp.token == xp.token
            and yp.level >= next_level(xp.level)
            and snark_verify(self.snark, yp.level, yp.proof)
        )

    def h(self, x: bytes, y: bytes) -> int:
        """Quality oracle: 1 iff y is a wrong answer to a genuine x.

        The input is checked first: one that does not decode, decrypt, carry
        a valid signature or prove its level is forged, and scores 0 with
        any answer, since no answer to it exists.
        """
        xp, cipher = decode_payload(x), None
        if isinstance(xp, EncPayload):
            if len(xp.id1) != IDENTITY_LEN:
                return 0
            cipher = IdentityCipher(self.fhe.keygen(xp.id1))
            xp = unseal(cipher, xp)
        if not self.genuine(xp):
            return 0
        yp = decode_payload(y)
        if cipher is not None:
            yp = unseal(cipher, yp)
        return 0 if self.answers(xp, yp) else 1


def make_data_instance(seed: bytes | int) -> DataTaskInstance:
    return DataTaskInstance(seed)
