"""Hash-chain task: a time-complexity gap between detection and mitigation.

An input carries a step count t, the chain configuration after t sequential
steps from a public start state, and a chain proof.  A correct answer
presents a verified configuration at step t + floor(sqrt(t)) or later.  The
chain step is a single hash application routed through a per-party meter, so
"work" is countable and attributable; chain proofs make every claimed
configuration checkable in O(1) without re-running the chain.

The trainer pays T steps once and snapshots a sqrt(T)-spaced grid; answering
from the grid is then free.  A mitigator instead extends each input's own
chain, paying exactly floor(sqrt(t)) per input.  The attacker never pays for
the ladder: it builds a step-1 payload (one metered step) and climbs the
trainer's grid by repeated queries, reaching the grid's frontier with
O(sqrt(T)) queries and O(sqrt(T)) of its own steps.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import Any, Callable

from .core import ATTACKER, TrialCtx
from .crypto import (
    IvcProof,
    ProofChainError,
    StepMeter,
    ivc_gen,
    ivc_update,
    ivc_verify,
    npl_step,
    sha256,
)
from .drbg import HashDrbg
from .payloads import TimePayload, bottom, decode_payload, encode_payload
from .sampletask import LevelLaw, next_level, _round_up

HORIZON = 256
INSTANCE_PARTY = "instance"

# step count -> (chain state, chain proof): the trainer's snapshots
Grid = dict[int, tuple[bytes, IvcProof]]


class TimeTaskInstance:
    """Chain distribution: geometric step counts on a precomputed chain."""

    def __init__(self, seed: bytes | int, horizon: int = HORIZON):
        rng = HashDrbg(seed).child("chain-instance")
        self.horizon = horizon
        self.law = LevelLaw(horizon)
        # answers to cap-level inputs sit one strip past the horizon
        self.reach = horizon + isqrt(horizon)
        self.meter = StepMeter()
        self.start_state = sha256(b"chain-start:" + rng.take(32))
        self.ivc = ivc_gen(rng.child("chain-proofs"), self.meter, rng.take(32))
        states = [self.start_state]
        proofs = [self.ivc.base_proof(self.start_state)]
        for _ in range(self.reach):
            s, p = ivc_update(self.ivc, states[-1], proofs[-1], INSTANCE_PARTY)
            states.append(s)
            proofs.append(p)
        self._states = states
        self._proofs = proofs
        probe = TimePayload(self.reach, states[-1], proofs[-1])
        self.width = _round_up(len(encode_payload(probe)))

    def payload_at(self, t: int) -> TimePayload:
        if not 0 <= t <= self.reach:
            raise ValueError(f"step count {t} outside precomputed chain")
        return TimePayload(t, self._states[t], self._proofs[t])

    def build_input(self, t: int) -> bytes:
        return encode_payload(self.payload_at(t), self.width)

    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]:
        t = self.law.sample(rng)
        return self.build_input(t), self.build_input(next_level(t))

    def h(self, x: bytes, y: bytes) -> int:
        """1 iff y fails to verifiably extend an answerable chain input x."""
        xp = decode_payload(x)
        if not isinstance(xp, TimePayload):
            return 0
        if not ivc_verify(self.ivc, xp.steps, xp.config, xp.proof):
            return 0
        yp = decode_payload(y)
        if not isinstance(yp, TimePayload):
            return 1
        ok = yp.steps >= next_level(xp.steps) and ivc_verify(
            self.ivc, yp.steps, yp.config, yp.proof
        )
        return 0 if ok else 1

    def instance_steps(self) -> int:
        return self.meter.snapshot().get(INSTANCE_PARTY, 0)


def make_time_instance(seed: bytes | int, horizon: int = HORIZON) -> TimeTaskInstance:
    return TimeTaskInstance(seed, horizon)


class TimeModel:
    """Answers from a snapshot grid; free at query time, BOTTOM past the grid."""

    def __init__(self, instance: TimeTaskInstance, table: Grid):
        self.instance = instance
        self.table = dict(table)
        self.levels = sorted(self.table)
        self.cap = self.levels[-1] if self.levels else 0

    def __call__(self, x: bytes) -> bytes:
        inst = self.instance
        p = decode_payload(x)
        if not isinstance(p, TimePayload):
            return bottom(inst.width)
        if not ivc_verify(inst.ivc, p.steps, p.config, p.proof):
            return bottom(inst.width)
        need = next_level(p.steps)
        if need > self.cap:
            return bottom(inst.width)
        lvl = self.levels[bisect_left(self.levels, need)]
        state, proof = self.table[lvl]
        return encode_payload(TimePayload(lvl, state, proof), inst.width)


class TimeTrainer:
    """Runs the chain for `horizon` metered steps, snapshotting every sqrt."""

    sample_budget = 0

    def __init__(self, instance: TimeTaskInstance):
        self.instance = instance
        self.step_budget = instance.horizon

    def train(self, ctx: TrialCtx) -> tuple[TimeModel, Grid]:
        inst = self.instance
        party = ctx.step_party or "trainer"
        stride = isqrt(inst.horizon)
        state = inst.start_state
        proof = inst.ivc.base_proof(state)
        table: Grid = {}
        for t in range(1, inst.horizon + 1):
            state, proof = ivc_update(inst.ivc, state, proof, party)
            if t % stride == 0:
                table[t] = (state, proof)
        return TimeModel(inst, table), table


class ChainExtendingMitigator:
    """Extends each input's own chain by exactly floor(sqrt(t)) metered steps."""

    sample_budget = 0
    step_budget: int | None = None

    def __init__(self, instance: TimeTaskInstance):
        self.instance = instance

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]:
        inst = self.instance
        party = ctx.step_party or "mitigator"
        ys: list[bytes] = []
        for x in xs:
            p = decode_payload(x)
            if not isinstance(p, TimePayload):
                ys.append(bottom(inst.width))
                continue
            target = next_level(p.steps)
            state, proof = p.config, p.proof
            try:
                for _ in range(target - p.steps):
                    state, proof = ivc_update(inst.ivc, state, proof, party)
            except ProofChainError:
                ys.append(bottom(inst.width))
                continue
            ys.append(encode_payload(TimePayload(target, state, proof), inst.width))
        return ys, 0


class ChainClimbingAttacker:
    """Builds a step-1 payload, then rides the model's grid to its frontier."""

    origin = ATTACKER
    sample_budget = 0

    def __init__(self, instance: TimeTaskInstance, step_budget: int | None = None):
        self.instance = instance
        self.step_budget = (
            2 * isqrt(instance.horizon) if step_budget is None else step_budget
        )
        self.last_query_count = 0
        self.last_level = 0

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        inst = self.instance
        party = ctx.step_party or ATTACKER
        self.last_query_count = 0
        base = inst.ivc.base_proof(inst.start_state)
        state, proof = ivc_update(inst.ivc, inst.start_state, base, party)
        cur = TimePayload(1, state, proof)
        while True:
            y = model(encode_payload(cur, inst.width))
            self.last_query_count += 1
            yp = decode_payload(y)
            if (
                not isinstance(yp, TimePayload)
                or yp.steps < next_level(cur.steps)
                or not ivc_verify(inst.ivc, yp.steps, yp.config, yp.proof)
            ):
                break
            cur = yp
        self.last_level = cur.steps
        return [encode_payload(cur, inst.width)] * ctx.params.q


# --- ledger audits ---------------------------------------------------------------


def audit_conservation(instance: TimeTaskInstance) -> bool:
    """No chain state exists without a metered step behind it.

    Distinct registered chain points (beyond the base) can never exceed the
    meter's total, because registration only happens inside an update that
    just charged a step.
    """
    entries = instance.ivc.registry_entries()
    beyond_base = sum(t > 0 for t, _, _ in entries)
    return beyond_base <= instance.meter.total()


def audit_sequential_reach(instance: TimeTaskInstance) -> bool:
    """Every registered chain point lies on the canonical chain.

    Recomputes the chain (harness-side, unmetered) out to the largest
    registered step count and checks each (t, state) pair against it — a
    verifying payload at step t really is t sequential steps of work.
    """
    entries = instance.ivc.registry_entries()
    if not entries:
        return True
    max_t = max(t for t, _, _ in entries)
    chain = [instance.start_state]
    for _ in range(max_t):
        chain.append(npl_step(chain[-1]))
    return all(t <= max_t and chain[t] == s for t, s, _ in entries)
