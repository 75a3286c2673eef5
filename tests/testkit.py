"""Helpers only the tests use, kept out of the `detmit` package."""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable

from detmit.cli import DEFENSES, ExperimentConfig
from detmit.core import ATTACKER, AbortTrial, RateEstimate, Transcript
from detmit.crypto import (
    AEAD_NONCE_LEN,
    IDENTITY_LEN,
    NONCE_LEN,
    TOKEN_LEN,
    Ciphertext,
    IdentityCipher,
    IdentityKey,
    IvcKeys,
    IvcProof,
    ProofToken,
    SignatureToken,
    StepMeter,
    ivc_update,
    sig_sign_zero,
    snark_prove,
)
from detmit.drbg import HashDrbg
from detmit.payloads import (
    IDENTITY_KEY_LEN,
    TAG_CLEAR,
    TAG_ENC,
    ClearPayload,
    EncPayload,
    decode_payload,
    encode_payload,
    sealed,
    unseal,
)
from detmit.sampletask import DataTaskInstance, next_level


# --- the nested wire parse, the reference the offset decoders are tested against ---


def unpack_fields(buf: bytes, count: int) -> tuple[list[bytes], bytes] | None:
    """Read exactly `count` length-prefixed fields; returns (fields, rest)."""
    fields: list[bytes] = []
    end, size = 0, len(buf)
    for _ in range(count):
        start = end + 4
        # a short length prefix leaves start > size, so one check covers both
        end = start + int.from_bytes(buf[end:start], "big")
        if end > size:
            return None
        fields.append(buf[start:end])
    return fields, buf[end:]


def unpack_exact(buf: bytes, count: int) -> list[bytes] | None:
    """Like unpack_fields but requires the buffer to be fully consumed."""
    parsed = unpack_fields(buf, count)
    if parsed is None or parsed[1] != b"":
        return None
    return parsed[0]


def signature_token_from_bytes(buf: bytes) -> SignatureToken | None:
    fields = unpack_exact(buf, 2)
    if fields is None or len(fields[0]) != NONCE_LEN:
        return None
    return SignatureToken(fields[0], fields[1])


def proof_token_from_bytes(buf: bytes) -> ProofToken | None:
    fields = unpack_exact(buf, 2)
    if fields is None or len(fields[0]) != TOKEN_LEN or len(fields[1]) != 32:
        return None
    return ProofToken(fields[0], fields[1])


def ciphertext_from_bytes(buf: bytes) -> Ciphertext | None:
    fields = unpack_exact(buf, 2)
    if fields is None or len(fields[0]) != IDENTITY_LEN:
        return None
    return Ciphertext(fields[0], fields[1])


def reference_ladder_decode(buf: bytes) -> ClearPayload | EncPayload | None:
    """A clear or encrypted ladder payload read as three nested `unpack_fields` passes."""
    if buf[:1] == bytes([TAG_CLEAR]):
        parsed = unpack_fields(buf[1:], 3)
        if parsed is None:
            return None
        (token_b, level_b, proof_b), rest = parsed
        if rest.count(0) != len(rest) or len(level_b) != 8:
            return None
        token = signature_token_from_bytes(token_b)
        proof = proof_token_from_bytes(proof_b)
        level = int.from_bytes(level_b, "big")
        if token is None or proof is None or level < 1:
            return None
        return ClearPayload(token=token, level=level, proof=proof)
    if buf[:1] == bytes([TAG_ENC]):
        parsed = unpack_fields(buf[1:], 4)
        if parsed is None:
            return None
        (ct_b, id1, id2, key2), rest = parsed
        if rest.count(0) != len(rest):
            return None
        if len(id1) not in (0, IDENTITY_LEN) or len(id2) not in (0, IDENTITY_LEN):
            return None
        if len(key2) not in (0, IDENTITY_KEY_LEN):
            return None
        ct = ciphertext_from_bytes(ct_b)
        if ct is None:
            return None
        return EncPayload(ciphertext=ct, id1=id1, id2=id2, key2=key2)
    return None


def toy_label(salt: bytes, x: bytes) -> bytes:
    """The toy task's label written out: low bit of ``sha256(b"toy-label:" + salt + x)``."""
    return bytes([hashlib.sha256(b"toy-label:" + salt + x).digest()[0] & 1])


def uniform(rng: HashDrbg) -> float:
    """Float in [0, 1) with 53 bits of precision, from one `u64` draw."""
    return (rng.u64() >> 11) * (2.0**-53)


def meter_run(meter: StepMeter, state: bytes, steps: int) -> bytes:
    """`steps` metered step-function applications, one `StepMeter.step` each."""
    for _ in range(steps):
        state = meter.step(state)
    return state


def ivc_prove(keys: IvcKeys, t: int, meter: StepMeter | None = None) -> tuple[bytes, IvcProof]:
    """Prove t steps from the keys' start state in one run of updates."""
    meter = StepMeter() if meter is None else meter
    return ivc_update(keys, keys.known_point(0)[0], keys.base_proof(), meter, t)


def inner_level(buf: bytes, key: IdentityKey) -> int | None:
    """Level inside an encrypted ladder payload, given the matching identity key."""
    p = decode_payload(buf)
    if not isinstance(p, EncPayload):
        return None
    inner = IdentityCipher(key).decrypt(p.ciphertext)
    if inner is None:
        return None
    ip = decode_payload(inner)
    return ip.level if isinstance(ip, ClearPayload) else None


def clear_pair_at(
    instance: DataTaskInstance, level: int, rng: HashDrbg, answer: bool = True
) -> tuple[ClearPayload, ClearPayload | None]:
    """The clear input at `level` and, if `answer`, its answer, as a draw builds them.

    Takes the token nonce from `rng`, then x's proof token and y's from the
    instance's proof-token stream; without `answer`, y's is skipped.
    """
    token = sig_sign_zero(instance.snark.verification_key, rng.take(NONCE_LEN))
    x = ClearPayload(token, level, instance.prove_count(level))
    if not answer:
        instance.snark.skip_proof(1)
        return x, None
    up = next_level(level)
    return x, ClearPayload(token, up, instance.prove_count(up))


def build_clear_input(instance: DataTaskInstance, level: int, rng: HashDrbg) -> bytes:
    """The wire bytes of `clear_pair_at`'s input alone."""
    return encode_payload(clear_pair_at(instance, level, rng, answer=False)[0], instance.width)


def build_enc_input(instance: DataTaskInstance, level: int, rng: HashDrbg) -> bytes:
    """The wire bytes of a sealed input at `level`, as a sealed draw builds it.

    Takes what `clear_pair_at` takes without the answer, then id1, id2 and
    both seal nonces from `rng`; y's nonce is skipped, since y is not built.
    """
    x, _ = clear_pair_at(instance, level, rng, answer=False)
    id1, id2 = rng.take(IDENTITY_LEN), rng.take(IDENTITY_LEN)
    cipher = IdentityCipher(instance.fhe.keygen(id1))
    ct = cipher.encrypt(encode_payload(x, instance.inner_width), rng)
    rng.skip(AEAD_NONCE_LEN)
    return encode_payload(EncPayload(ct, id1, id2, instance.fhe.keygen(id2).key), instance.width)


def seal_pair(
    instance: DataTaskInstance, x: ClearPayload, y: ClearPayload, rng: HashDrbg
) -> tuple[EncPayload, EncPayload]:
    """`x` and `y` sealed as a sealed draw seals them, written out apart from it.

    Takes id1, id2 and the two seal nonces from `rng` in the draw's order.
    """
    id1, id2 = rng.take(IDENTITY_LEN), rng.take(IDENTITY_LEN)
    cipher = IdentityCipher(instance.fhe.keygen(id1))
    ct_x = cipher.encrypt(encode_payload(x, instance.inner_width), rng)
    ct_y = cipher.encrypt(encode_payload(y, instance.inner_width), rng)
    key2 = instance.fhe.keygen(id2).key
    return EncPayload(ct_x, id1, id2, key2), EncPayload(ct_y, b"", b"", b"")


def level_bits(cap: int, rng: HashDrbg) -> int:
    """`LevelLaw(cap).sample`, written out a one-byte take per level bit."""
    k = 1
    while k < cap and rng.bit():
        k += 1
    return k


def token_draws(
    instance: DataTaskInstance,
    rng: HashDrbg,
    n: int,
    want: int,
    known: Iterable[SignatureToken] = (),
) -> list[SignatureToken]:
    """`DataTaskInstance.sample_tokens`, written out draw by draw with takes and skips.

    A draw takes its level bytes (`level_bits`) and its sealing bit, takes
    its nonce while tokens are still wanted and skips it after, and skips
    both proof tokens and, on a sealed draw, its ids and seal nonces.
    """
    seen, fresh = set(known), []
    for _ in range(n):
        level_bits(instance.law.cap, rng)
        wanted = len(fresh) < want
        if wanted:
            nonce = rng.take(NONCE_LEN)
        else:
            rng.skip(NONCE_LEN)
        sealed = rng.bit()
        instance.snark.skip_proof(2)
        if sealed:
            rng.skip(2 * IDENTITY_LEN + 2 * AEAD_NONCE_LEN)
        elif wanted:
            token = sig_sign_zero(instance.snark.verification_key, nonce)
            if token not in seen:
                seen.add(token)
                fresh.append(token)
    return fresh


def estimate_model_err(
    instance: Any, model: Callable[[bytes], bytes], draws: int, seed: bytes | int = 0
) -> RateEstimate:
    """The model's error rate over `draws` fresh pairs, drawn outside any party's budget."""
    rng = HashDrbg(seed).child("err-estimate")
    bad = 0
    for _ in range(draws):
        x, _ = instance.sample_pair(rng)
        bad += instance.h(x, model(x))
    return RateEstimate.from_counts(bad, draws)


def implication_premise(t: Transcript, epsilon: float) -> bool:
    """True when `implication_holds` is non-vacuous for this trial."""
    return t.aborted is None and t.flag == 0 and t.err_fx is not None and t.err_fx > 7 * epsilon


def implication_holds(t: Transcript, epsilon: float) -> bool:
    """Audit one derived-detector trial.

    Whenever the model's own batch error exceeds 7eps and the derived flag
    stayed down, the wrapped mitigator must itself have been in violation:
    answer error above 3eps with its flag down.  Follows pointwise from
    err(x, f(x)) <= err(x, y) + [y != f(x)] and the 4eps drift threshold;
    vacuously true when the premise fails or the trial aborted.
    """
    if not implication_premise(t, epsilon):
        return True
    return t.inner_flag == 0 and t.err_y is not None and t.err_y > 3 * epsilon


class CountingHashlib:
    """Its `sha256` stands in for `detmit.drbg.sha256` and counts the blocks hashed.

    A block is a digest: `sha256()` returns a state that counts its digests,
    and so do its copies, so a stream's key derivation counts one and so does
    each block made from a copy of its kept key state.
    """

    def __init__(self):
        self.blocks = 0

    def sha256(self, data: bytes = b""):
        return _CountedSha256(self, hashlib.sha256(data))


class _CountedSha256:
    """A SHA-256 state that adds one to its `CountingHashlib` per digest."""

    def __init__(self, counter: CountingHashlib, state: Any):
        self.counter, self.state = counter, state

    def update(self, data: bytes) -> None:
        self.state.update(data)

    def copy(self) -> "_CountedSha256":
        return _CountedSha256(self.counter, self.state.copy())

    def digest(self) -> bytes:
        self.counter.blocks += 1
        return self.state.digest()


class CraftedDrbg(HashDrbg):
    """`HashDrbg(seed)` whose stream starts with the chosen bytes `prefix`.

    The blocks `prefix` reaches hold it, and the rest of their bytes and every
    later block are the real stream's.  The kept key state is swapped for one
    whose copies make these blocks, so the class's own `_fill` serves them;
    `hashes.blocks` counts the blocks it has made.
    """

    def __init__(self, seed: bytes | int | str, prefix: bytes):
        super().__init__(seed)
        head = HashDrbg(seed).take((len(prefix) + 31) // 32 * 32)
        head = prefix + head[len(prefix) :]
        blocks = {i: head[32 * i : 32 * i + 32] for i in range(len(head) // 32)}
        self.hashes = CountingHashlib()
        self._state = _ChosenBlocks(self.hashes, hashlib.sha256(self._key), blocks)


class _ChosenBlocks(_CountedSha256):
    """A counted DRBG key state whose copy, fed counter i, digests to chosen block i if any."""

    def __init__(self, counter: CountingHashlib, state: Any, blocks: dict[int, bytes]):
        super().__init__(counter, state)
        self.blocks, self.at = blocks, -1

    def copy(self) -> "_ChosenBlocks":
        return _ChosenBlocks(self.counter, self.state.copy(), self.blocks)

    def update(self, data: bytes) -> None:
        super().update(data)
        self.at = int.from_bytes(data, "big")

    def digest(self) -> bytes:
        return self.blocks.get(self.at, super().digest())


class FixedChallenger:
    """An attacker with no sample budget that plays `xs`, as given.

    It hands over even a malformed batch unchanged, so tests of the harness
    can feed it one.
    """

    origin = ATTACKER
    sample_budget = 0

    def __init__(self, xs: Any):
        self.xs = xs

    def challenge(self, ctx: Any, model: Any) -> Any:
        return self.xs


class ReadEveryDrawAttacker:
    """`SelfIterationAttacker` with every draw of its budget read as an input draw.

    It builds and decodes all `sample_budget` inputs, then climbs from the
    first clear draw with the first two shipped keys.  `draws` keeps the
    inputs of its last move, so a test can tell which draw met its needs.
    """

    origin = ATTACKER

    def __init__(self, sample_budget: int = 8):
        self.sample_budget = sample_budget
        self.draws: list[bytes] = []

    def challenge(self, ctx: Any, model: Callable[[bytes], bytes]) -> list[bytes]:
        inst = ctx.task
        ctx.notes["queries"] = 0
        self.draws = [ctx.oracle.draw_input() for _ in range(self.sample_budget)]
        payloads = [(x, decode_payload(x)) for x in self.draws]
        clear_draws = [(x, p) for x, p in payloads if isinstance(p, ClearPayload)]
        shipped_keys = [
            IdentityKey(p.id2, p.key2)
            for _, p in payloads
            if isinstance(p, EncPayload) and len(p.id2) == IDENTITY_LEN
        ]
        if not clear_draws or len(shipped_keys) < 2:
            raise AbortTrial(ATTACKER, "unlucky draw mix")

        tunnel, dress = IdentityCipher(shipped_keys[0]), shipped_keys[1]
        replay_x, seed_payload = clear_draws[0]
        token = seed_payload.token
        cur = ClearPayload(token, 1, snark_prove(inst.snark, 1, [token]))

        def wrap(p: ClearPayload) -> bytes:
            ct = tunnel.encrypt(encode_payload(p, inst.inner_width), ctx.rng)
            return encode_payload(sealed(ct, dress), inst.width)

        while True:
            y = model(wrap(cur))
            ctx.notes["queries"] += 1
            cand = unseal(tunnel, decode_payload(y))
            if not inst.answers(cur, cand):
                break
            cur = cand

        ctx.notes["level"] = cur.level
        ctx.notes["output_encrypted"] = encrypted = bool(ctx.rng.bit())
        out = wrap(cur) if encrypted else replay_x
        return [out] * ctx.params.q


def needs_met_at(draws: list[bytes]) -> int | None:
    """The 1-based index of the draw that gives the ladder attacker a clear draw and
    a second shipped key; None if no draw does."""
    clear, keys = False, 0
    for i, x in enumerate(draws, 1):
        p = decode_payload(x)
        clear = clear or isinstance(p, ClearPayload)
        keys += isinstance(p, EncPayload) and len(p.id2) == IDENTITY_LEN
        if clear and keys >= 2:
            return i
    return None


class KeepTrained:
    """A trainer that keeps what its last `train` returned.

    Transcripts do not hold the model or the private state, so tests that
    read them after a trial wrap the trainer in this.
    """

    def __init__(self, trainer: Any):
        self.trainer = trainer
        self.sample_budget = trainer.sample_budget
        self.step_budget = getattr(trainer, "step_budget", None)
        self.model: Any = None
        self.priv: Any = None

    def train(self, ctx: Any) -> tuple[Any, Any]:
        self.model = self.priv = None
        self.model, self.priv = self.trainer.train(ctx)
        return self.model, self.priv


def ladder_detectors() -> dict[str, Any]:
    """The ladder detectors by name, each built as `detmit run` builds it."""
    return {
        name: make(ExperimentConfig(detector=name))
        for name, make in DEFENSES["ladder", "detect"].items()
    }


def evaluate_rates(
    run_trial: Callable[[int], Transcript],
    trials: int,
    predicate: Callable[[Transcript], bool],
) -> RateEstimate:
    """Monte-Carlo rate of a transcript predicate over `trials` trials."""
    if trials < 30:
        raise ValueError(f"need at least 30 trials for a rate estimate, got {trials}")
    successes = sum(bool(predicate(run_trial(i))) for i in range(trials))
    return RateEstimate.from_counts(successes, trials)
