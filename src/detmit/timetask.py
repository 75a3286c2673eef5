"""Hash-chain task: a time-complexity gap between detection and mitigation.

An input carries a step count t, the chain configuration after t sequential
steps from a public start state, and a chain proof.  A correct answer
presents a verified configuration at step t + floor(sqrt(t)) or later.  The
chain step is a single hash application charged to the step meter of the
party move that runs it, so "work" is countable and attributable; chain
proofs make every claimed configuration checkable in O(1) without re-running
the chain.

The trainer pays T steps once, in one run that stops every floor(sqrt(T))
steps, and snapshots the chain at each stop; answering from that grid is then
free.  A mitigator instead extends each input's own chain by one run of
exactly floor(sqrt(t)) steps.  A run is one `ivc_update` call: one proof
check and one meter charge for all its steps and stops.
The attacker never pays for the ladder: it builds a step-1 payload (one
metered step) and climbs the trainer's grid by repeated queries, reaching
the grid's frontier with O(sqrt(T)) queries and O(sqrt(T)) of its own steps.
Each query after the first is the bytes of the model's previous answer, and
the model keeps the bytes of every non-BOTTOM answer it gave with its step
count, so it reads such a query without decoding or checking it again.
That is exact: an answer is a grid point on the known chain, and the known
chain never drops one.

The instance builds its chain, out to `reach`, with one run from the start
state into the chain keys' known chain (see :class:`~detmit.crypto.IvcKeys`),
the keys' only store; `payload_at` reads from it.  Every honest run in a
trial ends on that chain at or below its tip, so `ivc_update` serves it from the
known points: the same proof check, meter charge and returned proofs as
hashing each step, with nothing hashed, appended or added to `steps_run`.
Neither audit trusts the known chain: `audit_sequential_reach` recomputes
its states with `npl_step`, and `audit_conservation` holds its length to
the steps the keys hashed.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt
from typing import Any, Callable

from .core import ATTACKER, TrialCtx
from .crypto import (
    ChainPoint,
    IvcKeys,
    IvcProof,
    StepMeter,
    ivc_update,
    ivc_verify,
    npl_step,
    sha256,
)
from .drbg import HashDrbg
from .payloads import Payload, TimePayload, bottom, decode_payload, encode_payload
from .sampletask import LevelLaw, _round_up, grid_level, grid_levels, next_level

HORIZON = 256

# step count -> (chain state, chain proof): the trainer's snapshots
Grid = dict[int, ChainPoint]


class TimeTaskInstance:
    """Chain distribution: geometric step counts on a precomputed chain."""

    def __init__(self, seed: bytes | int, horizon: int = HORIZON):
        rng = HashDrbg(seed).child("chain-instance")
        self.horizon = horizon
        self.law = LevelLaw(horizon)
        # answers to cap-level inputs sit one strip past the horizon
        self.reach = horizon + isqrt(horizon)
        self.start_state = sha256(b"chain-start:" + rng.take(32))
        self.ivc = IvcKeys(rng.child("chain-proofs"), rng.take(32), self.start_state)
        ivc_update(self.ivc, self.start_state, self.ivc.base_proof(), StepMeter(), self.reach)
        self.width = _round_up(len(encode_payload(self.payload_at(self.reach))))

    def world(self, trial_seed: bytes) -> "TimeTaskInstance":
        """The instance itself: every trial of a batch shares its chain keys.

        An honest trial writes nothing to them: its runs end at or below the
        known chain's tip.  A run past the tip appends to the shared chain and
        `steps_run`, and the audits read both after the batch.
        """
        return self

    def public_state(self) -> tuple[dict, str, Iterator[list]]:
        """The public file's scalar fields, its registry's key, and the rows, made one at a time."""
        points = map(self.ivc.known_point, range(len(self.ivc)))
        return {
            "task": "chain",
            "horizon": self.horizon,
            "width": self.width,
            "start_state": self.start_state.hex(),
        }, "chain_registry", ([t, s.hex(), c.hex()] for t, (s, c) in enumerate(points))

    def payload_at(self, t: int) -> TimePayload:
        if not 0 <= t <= self.reach:
            raise ValueError(f"step count {t} outside precomputed chain")
        state, commitment = self.ivc.known_point(t)
        return TimePayload(t, state, IvcProof(t, commitment))

    def build_input(self, t: int) -> bytes:
        return encode_payload(self.payload_at(t), self.width)

    def sample_input(self, rng: HashDrbg) -> bytes:
        return self.build_input(self.law.sample(rng))

    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]:
        t = self.law.sample(rng)
        return self.build_input(t), self.build_input(next_level(t))

    def genuine(self, p: Payload | None) -> bool:
        """`p` is a chain input whose proof verifies at its own step count."""
        return isinstance(p, TimePayload) and ivc_verify(self.ivc, p.steps, p.config, p.proof)

    def answers(self, xp: Payload | None, yp: Payload | None) -> bool:
        """`yp` is a verifying chain payload at `next_level(xp.steps)` or later."""
        return (
            isinstance(xp, TimePayload)
            and isinstance(yp, TimePayload)
            and yp.steps >= next_level(xp.steps)
            and ivc_verify(self.ivc, yp.steps, yp.config, yp.proof)
        )

    def h(self, x: bytes, y: bytes) -> int:
        """1 iff y fails to verifiably extend an answerable chain input x."""
        xp = decode_payload(x)
        if not self.genuine(xp):
            return 0
        return 0 if self.answers(xp, decode_payload(y)) else 1


def make_time_instance(seed: bytes | int, horizon: int = HORIZON) -> TimeTaskInstance:
    return TimeTaskInstance(seed, horizon)


class TimeModel:
    """Answers from a snapshot grid; free at query time, BOTTOM past the grid.

    The model keeps the bytes of every non-BOTTOM answer it returned, with
    that answer's step count, and answers a query equal to a kept answer
    without `decode_payload` or `genuine`.  That is exact: the bytes decode
    to a grid point on the known chain, and the chain never drops a point,
    so the query is genuine at the kept step count.  BOTTOM is never
    kept, since it answers many queries and decodes to nothing.
    """

    def __init__(self, instance: TimeTaskInstance, table: Grid):
        self.instance = instance
        self.table = dict(table)
        self.levels = sorted(self.table)
        self.cap = self.levels[-1] if self.levels else 0
        self._answered: dict[bytes, int] = {}  # answer bytes -> its step count

    def __call__(self, x: bytes) -> bytes:
        if not isinstance(x, bytes):
            raise TypeError(f"a model query is bytes, not {type(x).__name__}")
        inst = self.instance
        steps = self._answered.get(x)
        if steps is None:
            p = decode_payload(x)
            steps = p.steps if inst.genuine(p) else None
        lvl = None if steps is None else grid_level(self.levels, next_level(steps))
        if lvl is None:
            return bottom(inst.width)
        state, proof = self.table[lvl]
        y = encode_payload(TimePayload(lvl, state, proof), inst.width)
        self._answered[y] = lvl
        return y


class TimeTrainer:
    """Runs the chain for `horizon` metered steps in one run, snapshotting every sqrt."""

    sample_budget = 0

    def __init__(self, horizon: int):
        self.step_budget = horizon

    def train(self, ctx: TrialCtx) -> tuple[TimeModel, Grid]:
        inst = ctx.task
        levels = grid_levels(inst.horizon)
        base = inst.ivc.base_proof()
        points = ivc_update(inst.ivc, inst.start_state, base, ctx.meter, [*levels, inst.horizon])
        table: Grid = dict(zip(levels, points))
        return TimeModel(inst, table), table


class ChainExtendingMitigator:
    """Extends each input's own chain by exactly floor(sqrt(t)) metered steps.

    An input whose proof is not for its own step count, or does not verify,
    gets BOTTOM at no step cost.
    """

    sample_budget = 0
    step_budget: int | None = None

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]:
        inst = ctx.task
        ys: list[bytes] = []
        for x in xs:
            p = decode_payload(x)
            if not inst.genuine(p):
                ys.append(bottom(inst.width))
                continue
            target = next_level(p.steps)
            state, proof = ivc_update(inst.ivc, p.config, p.proof, ctx.meter, target - p.steps)
            ys.append(encode_payload(TimePayload(target, state, proof), inst.width))
        return ys, 0


class ChainClimbingAttacker:
    """Builds a step-1 payload, then rides the model's grid to its frontier.

    Notes its `queries` and the frontier `level`.
    """

    origin = ATTACKER
    sample_budget = 0

    def __init__(self, horizon: int):
        self.step_budget = 2 * isqrt(horizon)

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        inst = ctx.task
        ctx.notes["queries"] = 0
        base = inst.ivc.base_proof()
        state, proof = ivc_update(inst.ivc, inst.start_state, base, ctx.meter)
        cur = TimePayload(1, state, proof)
        x = encode_payload(cur, inst.width)
        while True:  # each accepted answer's own bytes are the next query
            y = model(x)
            ctx.notes["queries"] += 1
            yp = decode_payload(y)
            if not inst.answers(cur, yp):
                break
            cur, x = yp, y
        ctx.notes["level"] = cur.steps
        # the model encodes at inst.width and decoding is canonical, so x encodes cur
        return [x] * ctx.params.q


# --- ledger audits ---------------------------------------------------------------


def audit_conservation(instance: TimeTaskInstance) -> bool:
    """No chain state exists without a hashed step behind it.

    Chain points beyond the base can never outnumber the steps the chain's
    updates hashed, because a point is only appended inside an update, for
    a step it just hashed.  Honest runs hash exactly the points they append,
    so the two counts are equal and one point added with no work fails.
    """
    return len(instance.ivc) - 1 <= instance.ivc.steps_run


def audit_sequential_reach(instance: TimeTaskInstance) -> bool:
    """Every chain point lies on the canonical chain.

    Walks the known chain beside its recomputation (harness-side,
    unmetered), one state at a time out to the largest step count, and
    checks each point's state against it — a verifying payload at step t
    really is t sequential steps of work.
    """
    keys, state = instance.ivc, instance.start_state
    for t in range(len(keys)):
        if t:
            state = npl_step(state)
        if keys.known_point(t)[0] != state:
            return False
    return True
