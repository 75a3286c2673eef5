"""Simulated cryptographic backends.

Five primitives, each behind a small, contract-shaped API:

* signature tokens  — simulated by a MAC oracle: a token's core is
  HMAC-SHA512 under a secret MAC key of a fixed zero message plus a fresh
  16-byte nonce.  One :class:`VerificationKey` holds the MAC key privately,
  signs and verifies in-process and shows only a digest, so a party without
  the key object must guess a 64-byte MAC.  Its
  HMAC pad states are hashed once per key, kept private and only copied.
  A trial's world holds a fork of the key that keeps the tokens signed
  through it and passes them without a MAC; a kept token's core *is* the
  key's MAC of its nonce, so every check answers as the MAC comparison does.
  :meth:`VerificationKey.zero_signer` is :func:`sig_sign_zero` bound to
  one key, its pad states' ``copy`` methods and set looked up once.
* proof registry    — succinct proofs of "k pairwise-distinct valid signature
  tokens exist" are simulated by an oracle: proving validates the witness
  locally and registers a fresh uniform 16-byte token; verification is
  registry membership; extraction (test-only) returns the witness used.
  A :class:`CountProver` is bound to one witness and checks each of its
  tokens at most once however many proofs it registers, so a ladder world
  proving every draw's counts from the instance's witness pool checks only
  the pool prefix its largest count needs.  :meth:`CountProver.extended`
  carries that checked prefix onto a longer witness.  The registry holds a
  witness by reference: the prover's append-only list of distinct valid
  tokens and the proof's count, the prefix extraction copies out.
* identity FHE      — per-identity authenticated symmetric keys derived from a
  master secret, plus a public evaluation oracle that holds the master secret
  privately and applies the byte-circuit it is handed under the encryption,
  as IB-FHE's public Eval does; it keeps no table of circuits.  Key
  derivation copies a private SHA-256 prefix state built once per system.
* step meter        — the sequential step function (one SHA-256 application,
  `npl_step`) behind one party move's step allowance.
* chain proofs      — incrementally-verifiable computation simulated by a
  salted hash chain over (step index, state) from one start state; an update
  advances the step function itself by a run of n steps (charging the
  caller's step meter) and can hand back the point at each of several stops
  on the way.  The keys store the chain once, as the list of each step's
  (state, commitment) out to the furthest step any update reached; a run
  reads its points at or below that tip back and hashes only the steps past
  it.  Verification is a lookup in that list, recomputing nothing.

Everything random flows from caller-supplied :class:`~detmit.drbg.HashDrbg`
streams or a stream the object owns, so runs are reproducible.  Every SHA-2
state here is made by :mod:`detmit.drbg`'s `sha256` and `sha512`, CPython's
built-in SHA-2 where the interpreter has it, whose objects are cheaper to
make and copy than OpenSSL's on the short messages hashed here (a MAC's 17
bytes past its kept pad state, a chain step's 41).

The records that payloads carry (tokens, ciphertexts, chain proofs, and the
identity keys beside them) are named tuples: immutable, equal by value, and
built and hashed by the tuple type.  A record also equals a plain tuple, or a
record of another type, with the same fields, so code compares a record only
with records of its own type.
"""

from __future__ import annotations

import copy
import hmac
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence, overload

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .drbg import HashDrbg, sha256 as _sha256, sha512 as _sha512
from .wire import be64

NONCE_LEN = 16
TOKEN_LEN = 16
IDENTITY_LEN = 16
AEAD_NONCE_LEN = 12
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
    return _sha256(data).digest()


# ---------------------------------------------------------------------------
# signature tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationKey:
    """Checks tokens under a MAC key it never shows; public only as `digest`.

    A key from :meth:`fork` also keeps the set of tokens signed through it,
    so it recognizes them without a MAC; the key it forks records nothing.
    """

    digest: bytes
    _mac_key: bytes = field(repr=False, compare=False)
    # the HMAC pads' SHA-512 states (drbg.sha512 objects), only copied
    _inner: Any = field(init=False, repr=False, compare=False)
    _outer: Any = field(init=False, repr=False, compare=False)
    _signed: set | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # RFC 2104: a key longer than the 128-byte block is hashed first
        key = self._mac_key
        key = (_sha512(key).digest() if len(key) > 128 else key).ljust(128, b"\x00")
        object.__setattr__(self, "_inner", _sha512(bytes(b ^ 0x36 for b in key)))
        object.__setattr__(self, "_outer", _sha512(bytes(b ^ 0x5C for b in key)))

    def _mac(self, message: bytes) -> bytes:
        inner, outer = self._inner.copy(), self._outer.copy()
        inner.update(message)
        outer.update(inner.digest())
        return outer.digest()

    def fork(self) -> "VerificationKey":
        """The same key, pad states and digest, with an empty set of signed tokens."""
        key = copy.copy(self)
        object.__setattr__(key, "_signed", set())
        return key

    def zero_signer(self) -> Callable[[bytes], SignatureToken]:
        """``sig_sign_zero`` bound to this key and to the pad states it holds now."""
        inner_copy, outer_copy, signed = self._inner.copy, self._outer.copy, self._signed
        new = tuple.__new__

        def sign(nonce: bytes) -> SignatureToken:
            inner, outer = inner_copy(), outer_copy()
            inner.update(ZERO_MESSAGE + nonce)
            outer.update(inner.digest())
            token = new(SignatureToken, (nonce, outer.digest()))
            if signed is not None:
                signed.add(token)
            return token

        return sign


class SignatureToken(NamedTuple):
    nonce: bytes
    core: bytes


def sig_keygen(rng: HashDrbg) -> VerificationKey:
    """A fresh key: it signs in-process and shows parties only its digest."""
    sk = rng.take(32)
    return VerificationKey(digest=sha256(b"sig-vk:" + sk), _mac_key=sk)


def sig_sign_zero(key: VerificationKey, nonce: bytes) -> SignatureToken:
    """Sign the fixed zero message bound to `nonce`, fresh from the caller's stream."""
    token = tuple.__new__(SignatureToken, (nonce, key._mac(ZERO_MESSAGE + nonce)))
    if key._signed is not None:
        key._signed.add(token)
    return token


def sig_verify(verification_key: VerificationKey, token: SignatureToken) -> bool:
    if len(token.nonce) != NONCE_LEN:
        return False
    signed = verification_key._signed
    if signed and token in signed:
        return True
    return hmac.compare_digest(token.core, verification_key._mac(ZERO_MESSAGE + token.nonce))


# ---------------------------------------------------------------------------
# proof registry (signature-count statements)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def statement_digest(count: int, key_digest: bytes) -> bytes:
    """The statement "`count` pairwise-distinct valid tokens exist under the key"."""
    return sha256(b"sig-count:" + be64(count) + key_digest)


class ProofToken(NamedTuple):
    token: bytes
    statement_digest: bytes


class SnarkParams:
    """Registry oracle for signature-count proofs.

    Proof tokens are fresh uniform 16-byte values drawn from the params' own
    stream, so they carry no information about the witness.  A trial gets its
    own from :meth:`fork`.
    """

    def __init__(self, rng: HashDrbg, verification_key: VerificationKey):
        self.verification_key = verification_key
        self.key_digest = verification_key.digest
        self.setup_digest = sha256(b"snark-setup:" + rng.take(32))
        self._drbg = rng.child("proof-tokens")
        # (statement digest, token) -> (a prover's distinct valid tokens, count):
        # the witness used is the list's first `count` tokens
        self._registry: dict[tuple[bytes, bytes], tuple[list[SignatureToken], int]] = {}

    def fork(self, label: bytes) -> "SnarkParams":
        """Same setup, a fork of the key, an empty registry, proof tokens from `child(label)`."""
        world = copy.copy(self)
        world.verification_key = self.verification_key.fork()
        world._drbg = self._drbg.child(label)
        world._registry = {}
        return world

    def skip_proof(self, proofs: int) -> None:
        """Skip the proof tokens the next `proofs` proofs would get.

        A draw that never builds a proof calls this in place of it, so every
        later proof gets the token it gets when the proof is built.  The
        skipped tokens are never made.
        """
        self._drbg.skip(TOKEN_LEN * proofs)

    # serialization of the public verification state; witnesses stay in memory
    def registry_entries(self) -> list[tuple[bytes, bytes]]:
        return sorted(self._registry.keys())


class CountProver:
    """Proves "count distinct valid tokens" statements from one fixed witness.

    Each witness token is checked (valid signature, not a repeat) at most
    once in the prover's life: the checked prefix grows only as far as the
    largest count asked for so far.  The proof for `count` is registered
    with the first `count` pairwise-distinct valid tokens of the witness and
    takes one token from the params' proof-token stream, so successive
    proofs equal successive :func:`snark_prove` calls.  The prover keeps
    its own tuple of the witness, so a later edit of the caller's sequence
    cannot leave a check standing for tokens it no longer holds.
    A proof registers the prover's list of distinct valid tokens, which
    only grows at its end, and its count, not a copy of the prefix.
    """

    def __init__(self, params: SnarkParams, witness: Sequence[SignatureToken]):
        self.params = params
        self._witness = tuple(witness)
        self._checked = 0  # witness[:_checked] has been checked
        self._seen: set[SignatureToken] = set()
        self._distinct: list[SignatureToken] = []

    def _extend(self, need: int) -> None:
        distinct, seen, vk = self._distinct, self._seen, self.params.verification_key
        i = self._checked
        for tok in self._witness[i:]:  # one pass over the unchecked witness
            if len(distinct) >= need:
                break
            i += 1
            if tok not in seen:
                seen.add(tok)
                if sig_verify(vk, tok):
                    distinct.append(tok)
        self._checked = i
        if len(distinct) < need:
            raise WitnessError(f"need {need} distinct valid tokens, have {len(distinct)}")

    def extended(self, more: Sequence[SignatureToken]) -> "CountProver":
        """A prover on the same params over this witness followed by `more`.

        It starts from what this prover has checked, so no token of the
        shared prefix is checked again, and proves what a fresh prover over
        the longer witness would.  This prover is left as it was.
        """
        prover = CountProver(self.params, self._witness + tuple(more))
        prover._checked = self._checked
        prover._seen = set(self._seen)
        prover._distinct = list(self._distinct)
        return prover

    def prove(self, counts: Sequence[int]) -> list[ProofToken]:
        """One proof per count, in the order given.

        Raises :class:`WitnessError`, registering nothing and taking no proof
        token, when the witness holds fewer than ``max(counts)`` distinct
        valid tokens.
        """
        need = max(counts, default=0)
        if need > len(self._distinct):
            self._extend(need)
        params = self.params
        proofs = []
        for count in counts:
            digest = statement_digest(count, params.key_digest)
            token = params._drbg.take(TOKEN_LEN)
            params._registry[(digest, token)] = (self._distinct, count)
            proofs.append(ProofToken(token=token, statement_digest=digest))
        return proofs


def snark_prove(
    params: SnarkParams,
    count: int,
    witness: list[SignatureToken] | tuple[SignatureToken, ...],
) -> ProofToken:
    """Validate the witness locally; on success register a fresh proof token.

    Raises :class:`WitnessError` when fewer than `count` pairwise-distinct
    valid tokens are supplied.
    """
    return CountProver(params, witness).prove([count])[0]


def snark_verify(params: SnarkParams, count: int, proof: ProofToken) -> bool:
    digest = statement_digest(count, params.key_digest)
    if proof.statement_digest != digest:
        return False
    return (digest, proof.token) in params._registry


def snark_extract(
    params: SnarkParams, proof: ProofToken
) -> tuple[SignatureToken, ...] | None:
    """Test-only: recover the witness a registered proof was built from."""
    entry = params._registry.get((proof.statement_digest, proof.token))
    if entry is None:
        return None
    distinct, count = entry
    return tuple(distinct[:count])


# ---------------------------------------------------------------------------
# identity FHE
# ---------------------------------------------------------------------------


class IdentityKey(NamedTuple):
    tag: bytes
    key: bytes


class Ciphertext(NamedTuple):
    identity_tag: bytes
    body: bytes


class IdentityCipher:
    """AES-GCM under one identity key, its cipher object built once.

    The identity tag is the associated data and each ciphertext body is an
    ``AEAD_NONCE_LEN``-byte nonce from the caller's stream followed by the
    sealed plaintext.
    """

    def __init__(self, idkey: IdentityKey):
        self.tag = idkey.tag
        self._aead = AESGCM(idkey.key)

    def encrypt(self, plaintext: bytes, rng: HashDrbg) -> Ciphertext:
        return self.seal(plaintext, rng.take(AEAD_NONCE_LEN))

    def seal(self, plaintext: bytes, nonce: bytes) -> Ciphertext:
        """`encrypt` with a nonce the caller has already taken."""
        body = nonce + self._aead.encrypt(nonce, plaintext, self.tag)
        return Ciphertext(identity_tag=self.tag, body=body)

    def decrypt(self, ct: Ciphertext) -> bytes | None:
        n = AEAD_NONCE_LEN
        if ct.identity_tag != self.tag or len(ct.body) < n:
            return None
        try:
            return self._aead.decrypt(ct.body[:n], ct.body[n:], self.tag)
        except InvalidTag:
            return None


class FheSystem:
    """Identity-keyed authenticated encryption plus a public eval oracle.

    The master secret stays on this object; parties only ever hold the
    identity keys that payloads hand them, the public `eval` entry point,
    which applies whatever byte-circuit it is handed, and the ability to
    encrypt under keys they hold.  A trial gets its own from :meth:`fork`,
    which holds only its eval-nonce stream and the cipher of each identity
    its `eval` has seen, a table the fork starts empty.
    """

    def __init__(self, rng: HashDrbg):
        self._msk = rng.take(32)
        self._drbg = rng.child("fhe-nonces")
        self.params_digest = sha256(b"fhe-params:" + self._msk)
        self._id_key_prefix = _sha256(b"fhe-id-key:" + self._msk)  # only copied
        self._ciphers: dict[bytes, IdentityCipher] = {}  # identity tag -> eval's cipher

    def fork(self, label: bytes) -> "FheSystem":
        """Same master secret, no ciphers, eval nonces from `child(label)`."""
        world = copy.copy(self)
        world._drbg = self._drbg.child(label)
        world._ciphers = {}
        return world

    # --- keys ---------------------------------------------------------------

    def keygen(self, identity: bytes) -> IdentityKey:
        if len(identity) != IDENTITY_LEN:
            raise ValueError(f"identity tags are {IDENTITY_LEN} bytes")
        h = self._id_key_prefix.copy()
        h.update(identity)
        return IdentityKey(tag=identity, key=h.digest())

    # --- evaluation oracle ----------------------------------------------------

    def register_circuit(
        self, fn: Callable[[bytes], bytes]
    ) -> Callable[[Ciphertext], Ciphertext]:
        """`fn` bound to this system's `eval`: the evaluator a model answers sealed inputs with."""
        return lambda ct: self.eval(fn, ct)

    def eval(self, fn: Callable[[bytes], bytes], ct: Ciphertext) -> Ciphertext:
        """Apply the byte-circuit `fn` under the encryption.

        Undecryptable input yields a fresh ciphertext of a failure marker
        under the claimed identity, so the oracle never leaks whether
        authentication succeeded through exceptions.
        """
        cipher = self._ciphers.get(ct.identity_tag)
        if cipher is None:
            cipher = self._ciphers[ct.identity_tag] = IdentityCipher(self.keygen(ct.identity_tag))
        plaintext = cipher.decrypt(ct)
        result = EVAL_FAILED if plaintext is None else fn(plaintext)
        return cipher.encrypt(result, self._drbg)


# ---------------------------------------------------------------------------
# sequential step function with per-move metering
# ---------------------------------------------------------------------------


def npl_step(state: bytes) -> bytes:
    """One sequential step: a single SHA-256 application."""
    return _sha256(b"npl-step:" + state).digest()


class StepMeter:
    """One party move's step allowance, as its sample budget is for draws.

    :meth:`charge` grants a run of steps up to the limit left; callers turn
    a short grant into :class:`StepsExhausted`.  A meter belongs to one move.
    """

    def __init__(self, limit: int | None = None) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, steps: int) -> int:
        """Charge up to `steps` steps; return how many the limit grants.

        A negative run raises ``ValueError``: a move cannot lower its ledger.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        limit = self.limit
        granted = steps if limit is None else max(0, min(steps, limit - self.used))
        self.used += granted
        return granted

    def exhausted(self) -> StepsExhausted:
        return StepsExhausted(f"step budget {self.limit} exhausted")

    def step(self, state: bytes) -> bytes:
        if not self.charge(1):
            raise self.exhausted()
        return npl_step(state)


# ---------------------------------------------------------------------------
# chain proofs (simulated IVC)
# ---------------------------------------------------------------------------


class IvcProof(NamedTuple):
    steps: int
    commitment: bytes


class IvcKeys:
    """Keys for one proof chain: the salted commitment chain from one start state.

    The salt never leaves this object, and the keys store the chain itself,
    the **known chain**: the (state, commitment) of each step t = 0, 1, 2, ...
    from `start_state`, in order.  Verification is a lookup in it, so the only
    way to a verifying (t, state) pair is t genuine steps of updates from the
    start state — which is exactly the sequentiality this simulation is meant
    to audit.  The chain is append-only: only the hashing loop of
    :func:`ivc_update` extends it, when a run passes its tip, and `steps_run`
    counts the steps that loop hashed.
    """

    def __init__(self, rng: HashDrbg, base_tag: bytes, start_state: bytes):
        self.base_tag = base_tag
        self.steps_run = 0  # steps every update so far has hashed past the tip
        self._salt = rng.take(32)
        # step t -> (state, commitment)
        self._known = [(start_state, self._commit(base_tag, 0, start_state))]

    def _commit(self, prev: bytes, steps: int, state: bytes) -> bytes:
        return sha256(self._salt + prev + be64(steps) + state)

    def __len__(self) -> int:
        """The number of known points: the chain's tip step count, plus one."""
        return len(self._known)

    def base_proof(self) -> IvcProof:
        """The step-0 proof for the start state."""
        return IvcProof(steps=0, commitment=self._known[0][1])

    def lookup(self, steps: int, state: bytes) -> bytes | None:
        """The commitment of `state` at step `steps`, or None off the known chain."""
        known = self._known
        return known[steps][1] if 0 <= steps < len(known) and known[steps][0] == state else None

    def known_point(self, t: int) -> tuple[bytes, bytes]:
        """(state, commitment) at step `t` of the known chain; IndexError past its tip."""
        if t < 0:
            raise IndexError(f"step count {t} < 0")
        return self._known[t]

    def registry_entries(self) -> list[tuple[int, bytes, bytes]]:
        """(step count, state, commitment) of every known point, by step count."""
        return [(t, s, c) for t, (s, c) in enumerate(self._known)]


ChainPoint = tuple[bytes, IvcProof]  # (state, proof) at one step of a chain


@overload
def ivc_update(
    keys: IvcKeys, state: bytes, proof: IvcProof, meter: StepMeter, steps: int = 1
) -> ChainPoint: ...


@overload
def ivc_update(
    keys: IvcKeys, state: bytes, proof: IvcProof, meter: StepMeter, steps: Sequence[int]
) -> list[ChainPoint]: ...


def ivc_update(keys, state, proof, meter, steps=1):
    """Advance the chain `steps` steps and extend the proof.

    `steps` may also be an ascending sequence of stops, each a step count
    past `proof`: the run goes to the last stop and returns the point at
    every stop, in order, as successive runs from stop to stop would.  An
    int is the one-stop run and returns its one point.

    The input proof is checked once, and a forged one raises
    :class:`ProofChainError` before anything is charged or hashed.  The run
    is charged to `meter` in one go.  When the meter grants fewer steps than
    the last stop, the granted steps stay on the chain and
    :class:`StepsExhausted` is raised: the state single-step updates leave.
    A run of 0 steps returns its input unchecked.

    A verifying proof lies on the keys' known chain, so the run reads its
    stops at or below the chain's tip from it in one pass and hashes only the
    granted steps past the tip, appending them and counting them in
    `keys.steps_run`; the charge and the returned proofs are those of hashing
    every step.
    """
    single = isinstance(steps, int)
    stops = (steps,) if single else tuple(steps)
    last = 0
    for stop in stops:
        if stop < last:
            raise ValueError(f"steps must be >= 0 and ascending, got {steps}")
        last = stop
    if last == 0:
        points = [(state, proof)] * len(stops)
        return points[0] if single else points
    if keys.lookup(proof.steps, state) != proof.commitment:
        raise ProofChainError(f"no verifiable chain at step {proof.steps}")
    granted = meter.charge(last)
    end = proof.steps + granted
    targets = [proof.steps + stop if stop <= granted else end for stop in stops]
    known, salt, new = keys._known, keys._salt, _sha256
    tip = t = len(known) - 1
    points = [(known[u][0], IvcProof(u, known[u][1])) for u in targets if u <= tip]
    state, commitment = known[tip]
    for target in targets[len(points):]:  # past the tip: t == len(known) - 1
        for t in range(t + 1, target + 1):
            state = npl_step(state)
            # the bytes of keys._commit(commitment, t, state)
            commitment = new(salt + commitment + t.to_bytes(8, "big") + state).digest()
            known.append((state, commitment))
        points.append((state, IvcProof(t, commitment)))
    keys.steps_run += t - tip
    if granted < last:
        raise meter.exhausted()
    return points[0] if single else points


def ivc_verify(keys: IvcKeys, steps: int, state: bytes, proof: IvcProof) -> bool:
    if proof.steps != steps:
        return False
    return keys.lookup(steps, state) == proof.commitment
