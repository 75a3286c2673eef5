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

Everything here is harness/instance side except the public surface agents
use: count-proof proving/verification, the homomorphic eval oracle, wire
widths, and the level-law cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .crypto import (
    FheSystem,
    IdentityKey,
    ProofToken,
    SnarkParams,
    sig_keygen,
    sig_sign_zero,
    sig_verify,
    snark_prove,
    snark_verify,
)
from .drbg import HashDrbg
from .payloads import (
    ClearPayload,
    EncPayload,
    Payload,
    decode_payload,
    encode_payload,
)

LEVEL_CAP = 512
IDENTITY_LEN = 16


def next_level(k: int) -> int:
    """The level a correct answer must reach for a level-k input."""
    return k + isqrt(k)


def _round_up(n: int, block: int = 32) -> int:
    return ((n + block - 1) // block) * block


@dataclass(frozen=True)
class LevelLaw:
    """Geometric(1/2) on {1, 2, ...} with the tail mass folded onto `cap`."""

    cap: int = LEVEL_CAP

    def sample(self, rng: HashDrbg) -> int:
        k = 1
        while k < self.cap and rng.bit():
            k += 1
        return k

    def pmf(self, k: int) -> float:
        if not 1 <= k <= self.cap:
            return 0.0
        if k == self.cap:
            return 2.0 ** -(self.cap - 1)
        return 2.0**-k


class DataTaskInstance:
    """Ladder distribution plus the primitives its payloads are built from."""

    law = LevelLaw()
    level_cap = LEVEL_CAP
    # proofs must reach next_level(cap), so stock that many witness tokens
    max_provable_level = LEVEL_CAP + isqrt(LEVEL_CAP)

    def __init__(self, seed: bytes | int):
        rng = HashDrbg(seed).child("ladder-instance")
        self.keypair = sig_keygen(rng.child("sig"))
        self.verification_key = self.keypair.verification_key
        self.snark = SnarkParams(rng.child("proofs"), self.verification_key)
        self.fhe = FheSystem(rng.child("fhe"))
        pool_rng = rng.child("witness-pool")
        self._pool = [
            sig_sign_zero(self.keypair, pool_rng)
            for _ in range(self.max_provable_level)
        ]
        self.inner_width = _round_up(len(encode_payload(self._probe_clear())))
        self.width = _round_up(len(encode_payload(self._probe_enc())))
        self.meter = None  # no step metering in this task

    def _probe_clear(self) -> ClearPayload:
        filler = ProofToken(bytes(16), bytes(32))
        return ClearPayload(self._pool[0], self.max_provable_level, filler)

    def _probe_enc(self) -> EncPayload:
        key = IdentityKey(bytes(IDENTITY_LEN), bytes(32))
        probe_rng = HashDrbg(b"width-probe")
        ct = FheSystem.encrypt_with_key(key, bytes(self.inner_width), probe_rng)
        return EncPayload(ct, key.tag, key.tag, key.key)

    # -- instance-side construction (uses the witness pool / master secret) --

    def prove_count(self, count: int) -> ProofToken:
        """Count-proof from the instance's own witness pool."""
        if not 1 <= count <= self.max_provable_level:
            raise ValueError(f"count {count} outside provable range")
        return snark_prove(
            self.snark, self.snark.statement(count), self._pool[:count]
        )

    def clear_pair_at(
        self, level: int, rng: HashDrbg
    ) -> tuple[ClearPayload, ClearPayload]:
        token = sig_sign_zero(self.keypair, rng)
        x = ClearPayload(token, level, self.prove_count(level))
        answer_level = next_level(level)
        y = ClearPayload(token, answer_level, self.prove_count(answer_level))
        return x, y

    def wrap_pair(
        self, x: ClearPayload, y: ClearPayload, rng: HashDrbg
    ) -> tuple[EncPayload, EncPayload]:
        id1 = rng.take(IDENTITY_LEN)
        id2 = rng.take(IDENTITY_LEN)
        key2 = self.fhe.keygen(id2)
        ct_x = self.fhe.encrypt(id1, encode_payload(x, self.inner_width), rng)
        ct_y = self.fhe.encrypt(id1, encode_payload(y, self.inner_width), rng)
        return (
            EncPayload(ct_x, id1, id2, key2.key),
            EncPayload(ct_y, b"", b"", b""),
        )

    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]:
        level = self.law.sample(rng)
        x, y = self.clear_pair_at(level, rng)
        if rng.bit():
            ex, ey = self.wrap_pair(x, y, rng)
            return encode_payload(ex, self.width), encode_payload(ey, self.width)
        return encode_payload(x, self.width), encode_payload(y, self.width)

    # -- white-box input builders (harness-side probes) --

    def build_clear_input(self, level: int, rng: HashDrbg) -> bytes:
        x, _ = self.clear_pair_at(level, rng)
        return encode_payload(x, self.width)

    def build_enc_input(self, level: int, rng: HashDrbg) -> bytes:
        x, y = self.clear_pair_at(level, rng)
        ex, _ = self.wrap_pair(x, y, rng)
        return encode_payload(ex, self.width)

    # -- quality oracle --

    def _check_clear(self, x: ClearPayload, yp: Payload | None) -> int:
        if not isinstance(yp, ClearPayload):
            return 1
        ok = (
            yp.token == x.token
            and sig_verify(self.verification_key, x.token)
            and yp.level >= next_level(x.level)
            and snark_verify(self.snark, self.snark.statement(x.level), x.proof)
            and snark_verify(self.snark, self.snark.statement(yp.level), yp.proof)
        )
        return 0 if ok else 1

    def h(self, x: bytes, y: bytes) -> int:
        """Quality oracle: 1 iff y is a wrong answer to an answerable x."""
        xp = decode_payload(x)
        if xp is None:
            return 0
        if isinstance(xp, EncPayload):
            if len(xp.id1) != IDENTITY_LEN:
                return 0
            key1 = self.fhe.keygen(xp.id1)
            inner_x = FheSystem.decrypt_with_key(key1, xp.ciphertext)
            if inner_x is None:
                return 0
            yp = decode_payload(y)
            if not isinstance(yp, EncPayload):
                return 1
            inner_y = FheSystem.decrypt_with_key(key1, yp.ciphertext)
            if inner_y is None:
                return 1
            xi = decode_payload(inner_x)
            if not isinstance(xi, ClearPayload):
                return 0
            return self._check_clear(xi, decode_payload(inner_y))
        if isinstance(xp, ClearPayload):
            return self._check_clear(xp, decode_payload(y))
        return 0


def make_data_instance(seed: bytes | int) -> DataTaskInstance:
    return DataTaskInstance(seed)


def payload_form(buf: bytes) -> str | None:
    """'clear' / 'enc' by wire tag, None for anything undecodable."""
    p = decode_payload(buf)
    if isinstance(p, ClearPayload):
        return "clear"
    if isinstance(p, EncPayload):
        return "enc"
    return None


def clear_level(buf: bytes) -> int | None:
    """Level of a clear wire payload (public structure), else None."""
    p = decode_payload(buf)
    return p.level if isinstance(p, ClearPayload) else None


def inner_level(instance: DataTaskInstance, buf: bytes, key: IdentityKey) -> int | None:
    """Level inside an encrypted payload, given the matching identity key."""
    p = decode_payload(buf)
    if not isinstance(p, EncPayload):
        return None
    inner = FheSystem.decrypt_with_key(key, p.ciphertext)
    if inner is None:
        return None
    ip = decode_payload(inner)
    return ip.level if isinstance(ip, ClearPayload) else None
