"""Agents for the token-ladder task.

The trainer memorizes tokens from its draws and publishes count-proofs on a
sparse grid of levels; the model answers with the smallest grid proof that
clears the required level and echoes the input's token.  The attacker climbs
that grid from level 1 (``sampletask.climb``), sealing each answer's own
plaintext back through the model's encrypted path under the (identity, key)
pair that ships inside encrypted nature draws.  It reads its draws only
until it holds a clear one and two shipped pairs, and charges the rest of
its budget unread, so it still spends all of it.  The mitigator spends
~2*sqrt(K) extra draws to push exact proofs one strip past the trainer's
grid, which is enough to answer everything the bounded attacker can reach.

All agents reach the instance only through ``ctx.task`` and touch only its
public surface: proof proving, the input and answer checks that the quality
oracle uses, the homomorphic eval oracle, and wire widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, sqrt
from typing import Any, Callable

from .core import ATTACKER, AbortTrial, TrialCtx
from .crypto import (
    IDENTITY_LEN,
    CountProver,
    IdentityCipher,
    IdentityKey,
    ProofToken,
    SignatureToken,
    snark_prove,
)
from .payloads import (
    ClearPayload,
    EncPayload,
    Payload,
    bottom,
    decode_payload,
    encode_payload,
    sealed,
)
from .sampletask import DataTaskInstance, climb, grid_level, grid_levels, next_level


@dataclass
class LadderPriv:
    """Trainer private state: its distinct tokens and published proof grid.

    `prover` is the count prover the grid was proved with, over `tokens`, or
    None if the trainer drew too few tokens and proved nothing (a dummy); a
    mitigator extends it rather than checking those tokens again.
    """

    tokens: list[SignatureToken]
    table: dict[int, ProofToken] = field(default_factory=dict)
    prover: CountProver | None = None


def _grid_answer(
    levels: list[int], table: dict[int, ProofToken], p: Payload | None, width: int
) -> bytes:
    """`p`'s token with the smallest grid proof that clears its required level.

    BOTTOM for any other payload and past the grid; `width` pads the answer.
    """
    if isinstance(p, ClearPayload):
        lvl = grid_level(levels, next_level(p.level))
        if lvl is not None:
            return encode_payload(ClearPayload(p.token, lvl, table[lvl]), width)
    return bottom(width)


class DataModel:
    """Answers ladder inputs from a fixed proof grid; BOTTOM past its cap."""

    def __init__(self, instance: DataTaskInstance, table: dict[int, ProofToken]):
        self.instance = instance
        self.table = dict(table)
        self.levels = sorted(self.table)
        self.cap = self.levels[-1] if self.levels else 0
        # The circuit holds the grid and the inner width, never the model:
        # the model holds the circuit, so a circuit that held the model would
        # be a cycle, and a world must be freed by reference counting as soon
        # as its trial returns.
        levels, table, inner_width = self.levels, self.table, instance.inner_width
        self.circuit = None if not levels else instance.fhe.register_circuit(
            lambda pt: _grid_answer(levels, table, decode_payload(pt), inner_width)
        )

    def __call__(self, x: bytes) -> bytes:
        if not isinstance(x, bytes):
            raise TypeError(f"a model query is bytes, not {type(x).__name__}")
        w = self.instance.width
        p = decode_payload(x)
        if isinstance(p, EncPayload) and self.circuit is not None:
            return encode_payload(sealed(self.circuit(p.ciphertext)), w)
        return _grid_answer(self.levels, self.table, p, w)


class LadderTrainer:
    """Draws 4K inputs, keeps K distinct tokens, proves a sqrt(K)-spaced grid."""

    def __init__(self, level_target: int):
        if level_target < 1:
            raise ValueError("level_target must be >= 1")
        self.level_target = level_target
        self.sample_budget = 4 * level_target

    def train(self, ctx: TrialCtx) -> tuple[DataModel, LadderPriv]:
        inst = ctx.task
        tokens = ctx.oracle.draw_tokens(self.sample_budget, self.level_target)
        if len(tokens) < self.level_target:
            return DataModel(inst, {}), LadderPriv(tokens)
        levels = grid_levels(self.level_target)
        prover = CountProver(inst.snark, tokens)
        table = dict(zip(levels, prover.prove(levels)))
        return DataModel(inst, table), LadderPriv(tokens, table, prover)


class SelfIterationAttacker:
    """Climbs the model's proof grid by re-encrypting its own payloads.

    Needs one clear draw (a seed token) and two encrypted draws (the shipped
    identity/key pairs: one to tunnel queries, one to dress the final
    output).  It reads input draws only until it holds them, then charges
    the rest of its budget unread, as one token batch that keeps no token:
    its ledger spends the whole budget, the world's streams move as far as
    the same input draws would move them, and its own stream is never read
    again.  If the budget runs out first, it aborts on an unlucky draw mix.
    Climbs x -> decrypt(f(encrypt(x))) on each answer's own plaintext while
    its level keeps growing (`climb`), then seals the frontier's plaintext —
    or, half the time, replays the clear draw to blend with nature's clear
    half.  Notes its `queries`, the frontier `level` and whether the output
    is encrypted (`output_encrypted`).
    """

    origin = ATTACKER

    def __init__(self, sample_budget: int = 8):
        self.sample_budget = sample_budget

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        inst = ctx.task
        ctx.notes["queries"] = 0

        clear: tuple[bytes, SignatureToken] | None = None  # a clear draw and its token
        shipped_keys: list[IdentityKey] = []
        for used in range(1, self.sample_budget + 1):
            x = ctx.oracle.draw_input()
            p = decode_payload(x)
            if isinstance(p, ClearPayload):
                if clear is None:
                    clear = x, p.token
            elif isinstance(p, EncPayload) and len(p.id2) == IDENTITY_LEN:
                if len(shipped_keys) < 2:
                    shipped_keys.append(IdentityKey(p.id2, p.key2))
            if clear is not None and len(shipped_keys) == 2:
                break
        else:
            raise AbortTrial(ATTACKER, "unlucky draw mix")
        # the draws it would not use: charged, and no payload built
        ctx.oracle.draw_tokens(self.sample_budget - used, 0)

        tunnel, dress = IdentityCipher(shipped_keys[0]), shipped_keys[1]
        replay_x, token = clear
        cur = ClearPayload(token, 1, snark_prove(inst.snark, 1, [token]))

        def seal(pt: bytes) -> bytes:
            return encode_payload(sealed(tunnel.encrypt(pt, ctx.rng), dress), inst.width)

        def ask(pt: bytes) -> bytes:  # the plaintext the answer seals; b"" if it opens none
            p = decode_payload(model(seal(pt)))
            return (isinstance(p, EncPayload) and tunnel.decrypt(p.ciphertext)) or b""

        cur, pt = climb(ctx, ask, inst.answers, cur, encode_payload(cur, inst.inner_width))
        ctx.notes["level"] = cur.level
        # the bit comes first: seal's nonce is drawn from the same stream
        ctx.notes["output_encrypted"] = encrypted = bool(ctx.rng.bit())
        out = seal(pt) if encrypted else replay_x
        return [out] * ctx.params.q


class ProofExtendingMitigator:
    """Answers one strip past the trainer's grid through a wider DataModel.

    Spends 4*floor(2*sqrt(K)) fresh draws to collect floor(2*sqrt(K)) new
    tokens, proves every level in (K, K + floor(2*sqrt(K))] exactly, and
    answers with a DataModel over the grid and the strip together: the
    smallest proved level that clears the required one, BOTTOM beyond the
    strip.  The strip is proved on the trainer's count prover extended by
    the fresh tokens, in the trial's world both parties share, so the
    trainer's tokens are not checked again.  Never flags.
    """

    def __init__(self, level_target: int):
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
        if priv.prover is None:
            raise AbortTrial("mitigator", "trainer produced a dummy model")
        fresh = ctx.oracle.draw_tokens(self.sample_budget, self.strip, priv.tokens)
        if len(fresh) < self.strip:
            raise AbortTrial("mitigator", "too few fresh tokens for the strip")

        k = self.level_target
        levels = range(k + 1, k + self.strip + 1)
        table = dict(priv.table)
        table.update(zip(levels, priv.prover.extended(fresh).prove(levels)))
        answer = DataModel(ctx.task, table)
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
            p = decode_payload(x)
            if isinstance(p, ClearPayload) and p.level > cap:
                return 1
        return 0


class FrequencyDetector:
    """Flags when the clear/encrypted split drifts from the 1/2 law.

    Uses a 3-sigma margin 3 / (2*sqrt(q)); with q=1 the margin exceeds 1/2,
    so single-input batches are never flagged.
    """

    def detect(self, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> int:
        enc = sum(isinstance(decode_payload(x), EncPayload) for x in xs) / len(xs)
        return 1 if abs(enc - 0.5) > 3 / (2 * sqrt(len(xs))) else 0


class WellFormedDetector:
    """Flags undecodable inputs and clear inputs with broken proofs."""

    def detect(self, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> int:
        inst = ctx.task
        for x in xs:
            p = decode_payload(x)
            if p is None or (isinstance(p, ClearPayload) and not inst.genuine(p)):
                return 1
        return 0
