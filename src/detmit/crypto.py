"""Simulated cryptographic backends.

Five primitives, each behind a small, contract-shaped API:

* signature tokens  — Ed25519 over a fixed zero message plus a fresh 16-byte
  nonce; real unforgeability, deterministic verification.
* proof registry    — succinct proofs of "k pairwise-distinct valid signature
  tokens exist" are simulated by an oracle: proving validates the witness
  locally and registers a fresh uniform 16-byte token; verification is
  registry membership; extraction (test-only) returns the stored witness.
* identity FHE      — per-identity authenticated symmetric keys derived from a
  master secret, plus a public evaluation oracle that holds the master secret
  privately and applies registered byte-circuits under the encryption.
* step meter        — the sequential step function (one SHA-256 application,
  `npl_step`) behind an instrumented per-party counter with optional limits.
* chain proofs      — incrementally-verifiable computation simulated by a
  salted hash chain over (step index, state); update advances the step
  function itself (charging the caller's step meter) and registers the
  commitment; verification is a registry lookup, recomputing nothing.

Registries are shared mutable state and take a lock; everything random flows
from caller-supplied :class:`~detmit.drbg.HashDrbg` streams or a locked
instance stream, so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .drbg import HashDrbg
from .wire import be64, pack_fields, unpack_exact

NONCE_LEN = 16
TOKEN_LEN = 16
ZERO_MESSAGE = b"\x00"

# Plaintext returned by the evaluation oracle when the input ciphertext does
# not authenticate.  Starts with a reserved tag byte so it can never decode
# as a well-formed payload.
EVAL_FAILED = b"\x00eval-failed"


class WitnessError(Exception):
    """Proving was attempted with an insufficient or invalid witness."""


class ProofChainError(Exception):
    """A chain-proof update was attempted from an unverifiable proof."""


class StepsExhausted(Exception):
    """A party ran past its step allowance."""


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# signature tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigKeypair:
    signing_key: bytes
    verification_key: bytes


@dataclass(frozen=True)
class SignatureToken:
    nonce: bytes
    core: bytes

    def to_bytes(self) -> bytes:
        return pack_fields(self.nonce, self.core)

    @staticmethod
    def from_bytes(buf: bytes) -> "SignatureToken | None":
        fields = unpack_exact(buf, 2)
        if fields is None or len(fields[0]) != NONCE_LEN:
            return None
        return SignatureToken(fields[0], fields[1])


@lru_cache(maxsize=64)
def _private_key(sk: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(sk)


@lru_cache(maxsize=256)
def _public_key(vk: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(vk)


def sig_keygen(rng: HashDrbg) -> SigKeypair:
    sk = rng.take(32)
    priv = Ed25519PrivateKey.from_private_bytes(sk)
    vk = priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    return SigKeypair(signing_key=sk, verification_key=vk)


def sig_sign_zero(keypair: SigKeypair, rng: HashDrbg) -> SignatureToken:
    """Sign the fixed zero message bound to a fresh nonce."""
    nonce = rng.take(NONCE_LEN)
    core = _private_key(keypair.signing_key).sign(ZERO_MESSAGE + nonce)
    return SignatureToken(nonce=nonce, core=core)


@lru_cache(maxsize=1 << 15)
def _verify_cached(vk: bytes, nonce: bytes, core: bytes) -> bool:
    try:
        _public_key(vk).verify(core, ZERO_MESSAGE + nonce)
        return True
    except (InvalidSignature, ValueError):
        return False


def sig_verify(verification_key: bytes, token: SignatureToken) -> bool:
    if len(token.nonce) != NONCE_LEN:
        return False
    return _verify_cached(verification_key, token.nonce, token.core)


# ---------------------------------------------------------------------------
# proof registry (signature-count statements)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigCountStatement:
    """Statement: `count` pairwise-distinct valid tokens exist under the key."""

    count: int
    key_digest: bytes

    def digest(self) -> bytes:
        return sha256(b"sig-count:" + be64(self.count) + self.key_digest)


@dataclass(frozen=True)
class ProofToken:
    token: bytes
    statement_digest: bytes

    def to_bytes(self) -> bytes:
        return pack_fields(self.token, self.statement_digest)

    @staticmethod
    def from_bytes(buf: bytes) -> "ProofToken | None":
        fields = unpack_exact(buf, 2)
        if fields is None or len(fields[0]) != TOKEN_LEN or len(fields[1]) != 32:
            return None
        return ProofToken(fields[0], fields[1])


class SnarkParams:
    """Registry oracle for signature-count proofs.

    Proof tokens are fresh uniform 16-byte values drawn from a locked
    instance stream, so they carry no information about the witness.
    """

    def __init__(self, rng: HashDrbg, verification_key: bytes):
        self.verification_key = verification_key
        self.key_digest = sha256(verification_key)
        self.setup_digest = sha256(b"snark-setup:" + rng.take(32))
        self._drbg = rng.child("proof-tokens")
        self._lock = threading.Lock()
        # (statement digest, token) -> witness actually used
        self._registry: dict[tuple[bytes, bytes], tuple[SignatureToken, ...]] = {}

    def statement(self, count: int) -> SigCountStatement:
        return SigCountStatement(count=count, key_digest=self.key_digest)

    # serialization of the public verification state; witnesses stay in memory
    def registry_entries(self) -> list[tuple[bytes, bytes]]:
        with self._lock:
            return sorted(self._registry.keys())

    def restore_entries(self, entries: list[tuple[bytes, bytes]]) -> None:
        with self._lock:
            for key in entries:
                self._registry.setdefault(key, ())


def snark_prove(
    params: SnarkParams,
    statement: SigCountStatement,
    witness: list[SignatureToken] | tuple[SignatureToken, ...],
) -> ProofToken:
    """Validate the witness locally; on success register a fresh proof token.

    Raises :class:`WitnessError` when fewer than `statement.count`
    pairwise-distinct valid tokens are supplied.
    """
    if statement.key_digest != params.key_digest:
        raise WitnessError("statement bound to a different verification key")
    distinct: list[SignatureToken] = []
    seen: set[bytes] = set()
    for tok in witness:
        wire = tok.to_bytes()
        if wire in seen:
            continue
        seen.add(wire)
        if sig_verify(params.verification_key, tok):
            distinct.append(tok)
        if len(distinct) == statement.count:
            break
    if len(distinct) < statement.count:
        raise WitnessError(
            f"need {statement.count} distinct valid tokens, have {len(distinct)}"
        )
    digest = statement.digest()
    with params._lock:
        token = params._drbg.take(TOKEN_LEN)
        params._registry[(digest, token)] = tuple(distinct)
    return ProofToken(token=token, statement_digest=digest)


def snark_verify(
    params: SnarkParams, statement: SigCountStatement, proof: ProofToken
) -> bool:
    digest = statement.digest()
    if proof.statement_digest != digest:
        return False
    with params._lock:
        return (digest, proof.token) in params._registry


def snark_extract(
    params: SnarkParams, proof: ProofToken
) -> tuple[SignatureToken, ...] | None:
    """Test-only: recover the witness a registered proof was built from."""
    with params._lock:
        return params._registry.get((proof.statement_digest, proof.token))


# ---------------------------------------------------------------------------
# identity FHE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityKey:
    tag: bytes
    key: bytes


@dataclass(frozen=True)
class Ciphertext:
    identity_tag: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        return pack_fields(self.identity_tag, self.body)

    @staticmethod
    def from_bytes(buf: bytes) -> "Ciphertext | None":
        fields = unpack_exact(buf, 2)
        if fields is None or len(fields[0]) != NONCE_LEN:
            return None
        return Ciphertext(fields[0], fields[1])


class FheSystem:
    """Identity-keyed authenticated encryption plus a public eval oracle.

    The master secret stays on this object; parties only ever hold the
    identity keys that payloads hand them, the public `eval` entry point,
    and the ability to encrypt under keys they hold.
    """

    def __init__(self, rng: HashDrbg):
        self._msk = rng.take(32)
        self._drbg = rng.child("fhe-nonces")
        self._lock = threading.Lock()
        self._circuits: dict[str, Callable[[bytes], bytes]] = {}
        self._next_circuit = 0
        self.params_digest = sha256(b"fhe-params:" + self._msk)

    # --- keys ---------------------------------------------------------------

    def keygen(self, identity: bytes) -> IdentityKey:
        if len(identity) != NONCE_LEN:
            raise ValueError("identity tags are 16 bytes")
        return IdentityKey(tag=identity, key=sha256(b"fhe-id-key:" + self._msk + identity))

    # --- encryption ---------------------------------------------------------

    @staticmethod
    def encrypt_with_key(idkey: IdentityKey, plaintext: bytes, rng: HashDrbg) -> Ciphertext:
        nonce = rng.take(12)
        ct = AESGCM(idkey.key).encrypt(nonce, plaintext, idkey.tag)
        return Ciphertext(identity_tag=idkey.tag, body=nonce + ct)

    @staticmethod
    def decrypt_with_key(idkey: IdentityKey, ct: Ciphertext) -> bytes | None:
        if ct.identity_tag != idkey.tag or len(ct.body) < 12:
            return None
        try:
            return AESGCM(idkey.key).decrypt(ct.body[:12], ct.body[12:], idkey.tag)
        except InvalidTag:
            return None

    def encrypt(self, identity: bytes, plaintext: bytes, rng: HashDrbg) -> Ciphertext:
        return self.encrypt_with_key(self.keygen(identity), plaintext, rng)

    def decrypt(self, identity: bytes, ct: Ciphertext) -> bytes | None:
        return self.decrypt_with_key(self.keygen(identity), ct)

    # --- evaluation oracle ----------------------------------------------------

    def register_circuit(self, fn: Callable[[bytes], bytes]) -> str:
        with self._lock:
            handle = f"circuit-{self._next_circuit}"
            self._next_circuit += 1
            self._circuits[handle] = fn
        return handle

    def eval(self, handle: str, ct: Ciphertext) -> Ciphertext:
        """Apply a registered circuit under the encryption.

        Undecryptable input yields a fresh ciphertext of a failure marker
        under the claimed identity, so the oracle never leaks whether
        authentication succeeded through exceptions.
        """
        with self._lock:
            fn = self._circuits.get(handle)
        if fn is None:
            raise KeyError(f"unknown circuit handle {handle!r}")
        idkey = self.keygen(ct.identity_tag)
        plaintext = self.decrypt_with_key(idkey, ct)
        result = EVAL_FAILED if plaintext is None else fn(plaintext)
        with self._lock:
            nonce = self._drbg.take(12)
        body = nonce + AESGCM(idkey.key).encrypt(nonce, result, idkey.tag)
        return Ciphertext(identity_tag=ct.identity_tag, body=body)


# ---------------------------------------------------------------------------
# sequential step function with per-party metering
# ---------------------------------------------------------------------------


def npl_step(state: bytes) -> bytes:
    """One sequential step: a single SHA-256 application."""
    return sha256(b"npl-step:" + state)


class StepMeter:
    """Instrumented step counter.

    Every step execution goes through :meth:`step` and is attributed to
    exactly one party; optional per-party limits turn overruns into
    :class:`StepsExhausted`.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.limits: dict[str, int | None] = {}
        self._lock = threading.Lock()

    def set_limit(self, party: str, limit: int | None) -> None:
        with self._lock:
            self.limits[party] = limit

    def step(self, party: str, state: bytes) -> bytes:
        with self._lock:
            used = self.counts.get(party, 0)
            limit = self.limits.get(party)
            if limit is not None and used >= limit:
                raise StepsExhausted(f"{party} exceeded {limit} steps")
            self.counts[party] = used + 1
        return npl_step(state)

    def run(self, party: str, state: bytes, steps: int) -> bytes:
        for _ in range(steps):
            state = self.step(party, state)
        return state

    def total(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)


# ---------------------------------------------------------------------------
# chain proofs (simulated IVC)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IvcProof:
    steps: int
    commitment: bytes

    def to_bytes(self) -> bytes:
        return pack_fields(be64(self.steps), self.commitment)

    @staticmethod
    def from_bytes(buf: bytes) -> "IvcProof | None":
        fields = unpack_exact(buf, 2)
        if fields is None or len(fields[0]) != 8 or len(fields[1]) != 32:
            return None
        return IvcProof(int.from_bytes(fields[0], "big"), fields[1])


class IvcKeys:
    """Keys for one proof chain: a salted commitment chain plus its registry.

    The salt never leaves this object, and verification is pure registry
    lookup, so the only way to a verifying (t, state) pair is t genuine
    updates from the base state — which is exactly the sequentiality this
    simulation is meant to audit.
    """

    def __init__(self, rng: HashDrbg, meter: StepMeter, base_tag: bytes):
        self.meter = meter
        self.base_tag = base_tag
        self._salt = rng.take(32)
        self._lock = threading.Lock()
        self._registry: dict[tuple[int, bytes], bytes] = {}

    def _commit(self, prev: bytes, steps: int, state: bytes) -> bytes:
        return sha256(self._salt + prev + be64(steps) + state)

    def base_proof(self, start_state: bytes) -> IvcProof:
        commitment = self._commit(self.base_tag, 0, start_state)
        with self._lock:
            self._registry[(0, start_state)] = commitment
        return IvcProof(steps=0, commitment=commitment)

    def lookup(self, steps: int, state: bytes) -> bytes | None:
        with self._lock:
            return self._registry.get((steps, state))

    def registry_entries(self) -> list[tuple[int, bytes, bytes]]:
        with self._lock:
            return sorted((t, s, c) for (t, s), c in self._registry.items())

    def restore_entries(self, entries: list[tuple[int, bytes, bytes]]) -> None:
        with self._lock:
            for t, s, c in entries:
                self._registry[(t, s)] = c


def ivc_gen(rng: HashDrbg, meter: StepMeter, base_tag: bytes) -> IvcKeys:
    return IvcKeys(rng, meter, base_tag)


def ivc_update(
    keys: IvcKeys, state: bytes, proof: IvcProof, party: str
) -> tuple[bytes, IvcProof]:
    """Advance the chain one step and extend the proof.

    The step function application is charged to `party` on the meter the
    keys were generated with.  Raises :class:`ProofChainError` when the
    input proof does not verify, so forged chains cannot be extended.
    """
    if keys.lookup(proof.steps, state) != proof.commitment:
        raise ProofChainError(f"no verifiable chain at step {proof.steps}")
    new_state = keys.meter.step(party, state)
    commitment = keys._commit(proof.commitment, proof.steps + 1, new_state)
    with keys._lock:
        keys._registry[(proof.steps + 1, new_state)] = commitment
    return new_state, IvcProof(steps=proof.steps + 1, commitment=commitment)


def ivc_prove(
    keys: IvcKeys, t: int, start_state: bytes, party: str
) -> tuple[bytes, IvcProof]:
    """Prove t steps from the start state by t chained updates."""
    state = start_state
    proof = keys.base_proof(start_state)
    for _ in range(t):
        state, proof = ivc_update(keys, state, proof, party)
    return state, proof


def ivc_verify(keys: IvcKeys, steps: int, state: bytes, proof: IvcProof) -> bool:
    if proof.steps != steps:
        return False
    return keys.lookup(steps, state) == proof.commitment
