"""Agents for the token-ladder task.

The trainer memorizes tokens from its draws and publishes count-proofs on a
sparse grid of levels; the model answers with the smallest grid proof that
clears the required level and echoes the input's token.  The attacker climbs
that grid from level 1 by feeding its own payloads through the model's
encrypted path, using the (identity, key) pair that ships inside encrypted
nature draws.  The mitigator spends ~2*sqrt(K) extra draws to push exact
proofs one strip past the trainer's grid, which is enough to answer
everything the bounded attacker can reach.

All agents touch only the instance's public surface: proof proving and
verification, the homomorphic eval oracle, and wire widths.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import isqrt, sqrt
from typing import Any, Callable

from .core import ATTACKER, AbortTrial, TrialCtx
from .crypto import (
    FheSystem,
    IdentityKey,
    ProofToken,
    SignatureToken,
    sig_verify,
    snark_prove,
    snark_verify,
)
from .payloads import (
    ClearPayload,
    EncPayload,
    bottom,
    decode_payload,
    encode_payload,
)
from .sampletask import (
    IDENTITY_LEN,
    DataTaskInstance,
    clear_level,
    next_level,
    payload_form,
)


@dataclass
class LadderPriv:
    """Trainer private state: its distinct tokens and published proof grid."""

    tokens: list[SignatureToken] = field(default_factory=list)
    table: dict[int, ProofToken] = field(default_factory=dict)
    is_dummy: bool = False


def _fresh_tokens(
    ctx: TrialCtx, draws: int, known: list[SignatureToken]
) -> list[SignatureToken]:
    """The distinct clear-draw tokens, not in `known`, among `draws` draws."""
    seen = {t.to_bytes() for t in known}
    fresh: list[SignatureToken] = []
    for _ in range(draws):
        x, _ = ctx.oracle.draw_pair()
        p = decode_payload(x)
        if isinstance(p, ClearPayload) and p.token.to_bytes() not in seen:
            seen.add(p.token.to_bytes())
            fresh.append(p.token)
    return fresh


class DataModel:
    """Answers ladder inputs from a fixed proof grid; BOTTOM past its cap."""

    def __init__(self, instance: DataTaskInstance, priv: LadderPriv):
        self.instance = instance
        self.table = dict(priv.table)
        self.levels = sorted(self.table)
        self.cap = self.levels[-1] if self.levels else 0
        self.is_dummy = priv.is_dummy or not self.levels
        self.circuit_handle = (
            None if self.is_dummy else instance.fhe.register_circuit(self._inner)
        )

    def grid_answer(self, p: ClearPayload) -> ClearPayload | None:
        need = next_level(p.level)
        if self.is_dummy or need > self.cap:
            return None
        lvl = self.levels[bisect_left(self.levels, need)]
        return ClearPayload(p.token, lvl, self.table[lvl])

    def _inner(self, plaintext: bytes) -> bytes:
        p = decode_payload(plaintext)
        ans = self.grid_answer(p) if isinstance(p, ClearPayload) else None
        if ans is None:
            return bottom(self.instance.inner_width)
        return encode_payload(ans, self.instance.inner_width)

    def __call__(self, x: bytes) -> bytes:
        w = self.instance.width
        p = decode_payload(x)
        if isinstance(p, ClearPayload):
            ans = self.grid_answer(p)
            return bottom(w) if ans is None else encode_payload(ans, w)
        if isinstance(p, EncPayload) and self.circuit_handle is not None:
            out = self.instance.fhe.eval(self.circuit_handle, p.ciphertext)
            return encode_payload(EncPayload(out, b"", b"", b""), w)
        return bottom(w)


class LadderTrainer:
    """Draws 4K pairs, keeps K distinct tokens, proves a sqrt(K)-spaced grid."""

    def __init__(self, instance: DataTaskInstance, level_target: int, draw_factor: int = 4):
        if level_target < 1:
            raise ValueError("level_target must be >= 1")
        self.instance = instance
        self.level_target = level_target
        self.sample_budget = draw_factor * level_target

    def grid_levels(self) -> list[int]:
        k = self.level_target
        s = isqrt(k)
        return [j * s for j in range(1, k // s + 1)]

    def train(self, ctx: TrialCtx) -> tuple[DataModel, LadderPriv]:
        inst = self.instance
        tokens = _fresh_tokens(ctx, self.sample_budget, [])
        if len(tokens) < self.level_target:
            priv = LadderPriv(tokens=tokens, is_dummy=True)
            return DataModel(inst, priv), priv
        tokens = tokens[: self.level_target]
        table = {
            lvl: snark_prove(inst.snark, inst.snark.statement(lvl), tokens[:lvl])
            for lvl in self.grid_levels()
        }
        priv = LadderPriv(tokens=tokens, table=table)
        return DataModel(inst, priv), priv


class SelfIterationAttacker:
    """Climbs the model's proof grid by re-encrypting its own payloads.

    Needs one clear draw (a seed token) and two encrypted draws (the shipped
    identity/key pairs: one to tunnel queries, one to dress the final
    output).  Iterates x -> decrypt(f(encrypt(x))) while the answer's level
    keeps growing, then emits the frontier payload re-encrypted — or, half
    the time, replays the clear draw to blend with nature's clear half.
    """

    origin = ATTACKER

    def __init__(
        self,
        instance: DataTaskInstance,
        sample_budget: int = 8,
        draws: int | None = None,
    ):
        if draws is not None and draws > sample_budget:
            raise ValueError("draws cannot exceed the sample budget")
        self.instance = instance
        self.sample_budget = sample_budget
        self.draws = sample_budget if draws is None else draws
        self.last_query_count = 0
        self.last_level = 0
        self.last_output_encrypted: bool | None = None

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        inst = self.instance
        self.last_query_count = 0
        self.last_level = 0
        self.last_output_encrypted = None

        clear_draws: list[tuple[bytes, ClearPayload]] = []
        shipped_keys: list[IdentityKey] = []
        for _ in range(self.draws):
            x, _ = ctx.oracle.draw_pair()
            p = decode_payload(x)
            if isinstance(p, ClearPayload):
                clear_draws.append((x, p))
            elif isinstance(p, EncPayload) and len(p.id2) == IDENTITY_LEN:
                shipped_keys.append(IdentityKey(p.id2, p.key2))
        if not clear_draws or len(shipped_keys) < 2:
            raise AbortTrial(ATTACKER, "unlucky draw mix")

        tunnel, dress = shipped_keys[0], shipped_keys[1]
        replay_x, seed_payload = clear_draws[0]
        token = seed_payload.token
        proof1 = snark_prove(inst.snark, inst.snark.statement(1), [token])
        cur = ClearPayload(token, 1, proof1)

        def wrap(p: ClearPayload) -> bytes:
            inner = encode_payload(p, inst.inner_width)
            ct = FheSystem.encrypt_with_key(tunnel, inner, ctx.rng)
            return encode_payload(
                EncPayload(ct, tunnel.tag, dress.tag, dress.key), inst.width
            )

        while True:
            y = model(wrap(cur))
            self.last_query_count += 1
            yp = decode_payload(y)
            if not isinstance(yp, EncPayload):
                break
            inner = FheSystem.decrypt_with_key(tunnel, yp.ciphertext)
            if inner is None:
                break
            cand = decode_payload(inner)
            if (
                not isinstance(cand, ClearPayload)
                or cand.token != token
                or cand.level < next_level(cur.level)
                or not snark_verify(
                    inst.snark, inst.snark.statement(cand.level), cand.proof
                )
            ):
                break
            cur = cand

        self.last_level = cur.level
        if ctx.rng.bit():
            self.last_output_encrypted = True
            out = wrap(cur)
        else:
            self.last_output_encrypted = False
            out = replay_x
        return [out] * ctx.params.q


class ProofExtendingMitigator:
    """Answers one strip past the trainer's grid through a wider DataModel.

    Spends 4*floor(2*sqrt(K)) fresh draws to collect floor(2*sqrt(K)) new
    tokens, proves every level in (K, K + floor(2*sqrt(K))] exactly, and
    answers with a DataModel over the grid and the strip together: the
    smallest proved level that clears the required one, BOTTOM beyond the
    strip.  Never flags.
    """

    def __init__(self, instance: DataTaskInstance, level_target: int):
        self.instance = instance
        self.level_target = level_target
        self.strip = 2 * isqrt(level_target)
        self.sample_budget = 4 * self.strip

    def mitigate(
        self,
        ctx: TrialCtx,
        model: Callable[[bytes], bytes],
        priv: LadderPriv,
        xs: list[bytes],
    ) -> tuple[list[bytes], int]:
        inst = self.instance
        if priv.is_dummy:
            raise AbortTrial("mitigator", "trainer produced a dummy model")
        fresh = _fresh_tokens(ctx, self.sample_budget, priv.tokens)
        if len(fresh) < self.strip:
            raise AbortTrial("mitigator", "too few fresh tokens for the strip")

        witness = priv.tokens + fresh[: self.strip]
        k = self.level_target
        table = dict(priv.table)
        for lvl in range(k + 1, k + self.strip + 1):
            table[lvl] = snark_prove(inst.snark, inst.snark.statement(lvl), witness[:lvl])
        answer = DataModel(inst, LadderPriv(table=table))
        return [answer(x) for x in xs], 0


# --- baseline detectors --------------------------------------------------------


class NeverFlagDetector:
    """Degenerate baseline: trusts everything."""

    def detect(self, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> int:
        return 0


class LevelThresholdDetector:
    """Flags clear inputs whose level exceeds what the trainer could cover."""

    def detect(self, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> int:
        cap = getattr(model, "cap", 0)
        for x in xs:
            lvl = clear_level(x)
            if lvl is not None and lvl > cap:
                return 1
        return 0


class FrequencyDetector:
    """Flags when the clear/encrypted split drifts from the 1/2 law.

    Uses a 3-sigma margin 3 / (2*sqrt(q)); with q=1 the margin exceeds 1/2,
    so single-input batches are never flagged.
    """

    def detect(self, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> int:
        enc = sum(payload_form(x) == "enc" for x in xs) / len(xs)
        return 1 if abs(enc - 0.5) > 3 / (2 * sqrt(len(xs))) else 0


class WellFormedDetector:
    """Flags undecodable inputs and clear inputs with broken proofs."""

    def __init__(self, instance: DataTaskInstance):
        self.instance = instance

    def detect(self, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> int:
        inst = self.instance
        for x in xs:
            p = decode_payload(x)
            if p is None:
                return 1
            if isinstance(p, ClearPayload):
                ok = sig_verify(inst.verification_key, p.token) and snark_verify(
                    inst.snark, inst.snark.statement(p.level), p.proof
                )
                if not ok:
                    return 1
        return 0


def baseline_detectors(instance: DataTaskInstance) -> dict[str, Any]:
    return {
        "never_flag": NeverFlagDetector(),
        "level_threshold": LevelThresholdDetector(),
        "frequency": FrequencyDetector(),
        "well_formed": WellFormedDetector(instance),
    }
