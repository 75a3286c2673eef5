"""Detection <-> mitigation bridges, exercised on a toy classification task.

The two wrappers are generic: they turn any detector into a mitigator (answer
with the model, forward the flag) and any mitigator into a detector (flag when
the mitigator flags, or when its answers drift far from the model's).  The
second direction loses constant factors — thresholds 4eps for drift, and the
pointwise bound err(x, f(x)) <= err(x, y) + [y != f(x)] gives the trial-level
implication checked by `implication_holds`.

The toy task is label memorization: inputs are 4-byte indices, the correct
label is a salted hash bit, nature draws from a fixed pool, and an attacker
can aim outside the pool where the trained table has no entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .core import (
    ATTACKER,
    Transcript,
    TrialCtx,
    hamming,
)
from .crypto import sha256
from .drbg import HashDrbg
from .wire import be32

DEFAULT_LABEL = b"\x00"
NATURE_POOL = 16
ATTACK_POOL = 1 << 16
DRIFT_THRESHOLD_MULT = 4.0
MODEL_ERR_MARGIN_MULT = 7.0
ANSWER_ERR_MARGIN_MULT = 3.0


def toy_label(salt: bytes, x: bytes) -> bytes:
    """Ground-truth label: low bit of a salted hash of the input."""
    return bytes([sha256(b"toy-label:" + salt + x)[0] & 1])


@dataclass
class ToyClassificationInstance:
    """Binary labels over 4-byte indices; nature uses indices [0, NATURE_POOL)."""

    salt: bytes

    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]:
        x = be32(rng.randrange(NATURE_POOL))
        return x, toy_label(self.salt, x)

    def outsider_input(self, rng: HashDrbg) -> bytes:
        """A valid input outside the nature pool (support layout is public)."""
        return be32(NATURE_POOL + rng.randrange(ATTACK_POOL))

    def h(self, x: bytes, y: bytes) -> int:
        if len(x) != 4:
            return 1
        return 0 if y == toy_label(self.salt, x) else 1


def make_toy_instance(seed: bytes | int) -> ToyClassificationInstance:
    rng = HashDrbg(seed).child("toy-instance")
    return ToyClassificationInstance(salt=rng.take(16))


@dataclass
class MemorizedTable:
    """Trainer private state: the (input -> label) pairs it saw."""

    answers: dict[bytes, bytes] = field(default_factory=dict)


class ToyTrainer:
    """Memorizes training draws; the model answers DEFAULT_LABEL elsewhere."""

    sample_budget = 96

    def train(self, ctx: TrialCtx) -> tuple[Callable[[bytes], bytes], MemorizedTable]:
        table: dict[bytes, bytes] = {}
        for _ in range(self.sample_budget):
            x, y = ctx.oracle.draw_pair()
            table[x] = y
        answers = dict(table)
        model = lambda x: answers.get(x, DEFAULT_LABEL)  # noqa: E731
        return model, MemorizedTable(answers)


class ToyDetector:
    """Flags a batch when more than 4eps of its inputs fall outside the table."""

    def detect(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> int:
        outsiders = sum(x not in priv.answers for x in xs) / len(xs)
        return 1 if outsiders > DRIFT_THRESHOLD_MULT * ctx.params.epsilon else 0


class ToyMitigator:
    """Extends the table with 64 fresh draws, answers from it, flags past 2eps drift."""

    sample_budget = 64

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]:
        extended = dict(priv.answers)
        for _ in range(self.sample_budget):
            x, y = ctx.oracle.draw_pair()
            extended[x] = y
        ys = [extended.get(x, model(x)) for x in xs]
        outsiders = sum(x not in extended for x in xs) / len(xs)
        flag = 1 if outsiders > 2.0 * ctx.params.epsilon else 0
        return ys, flag


class LazyMitigator:
    """Answers with the bare model and never flags.

    Deliberately unsound; used to exercise the non-vacuous branch of the
    mitigation->detection implication audit.
    """

    sample_budget = 0

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]:
        return [model(x) for x in xs], 0


class ToyAttacker:
    """Crafts a batch of out-of-pool inputs; draws nothing from nature."""

    origin = ATTACKER
    sample_budget = 16

    def __init__(self, instance: ToyClassificationInstance):
        self.instance = instance

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        return [self.instance.outsider_input(ctx.rng) for _ in range(ctx.params.q)]


# --- the two reductions -------------------------------------------------------


class MitigatorFromDetector:
    """Mitigation from detection: answer with the model, keep the flag.

    Flags are forwarded bit-for-bit, so completeness and soundness transfer
    unchanged (the answers scored are exactly the model's own).
    """

    def __init__(self, detector: Any):
        self.detector = detector
        self.sample_budget: int | None = getattr(detector, "sample_budget", None)

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]:
        flag = self.detector.detect(ctx, model, priv, xs)
        return [model(x) for x in xs], flag


class DetectorFromMitigator:
    """Detection from mitigation: flag on the inner flag or on answer drift.

    Raises the flag when the wrapped mitigator does, or when its answers
    disagree with the model's on more than a 4eps fraction of the batch.
    Stashes the inner answers and flag so the harness can score err_y and
    audit the implication below.
    """

    def __init__(self, mitigator: Any):
        self.mitigator = mitigator
        self.sample_budget: int | None = getattr(mitigator, "sample_budget", None)
        self.last_response: list[bytes] | None = None
        self.last_inner_flag: int | None = None

    def detect(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> int:
        ys, inner = self.mitigator.mitigate(ctx, model, priv, xs)
        drift = hamming(ys, [model(x) for x in xs])
        self.last_response = ys
        self.last_inner_flag = inner
        return derived_flag(inner, drift, ctx.params.epsilon)


def derived_flag(inner_flag: int, drift: float, epsilon: float) -> int:
    """The derived detector's rule: the inner flag, or drift above 4eps."""
    return 1 if inner_flag == 1 or drift > DRIFT_THRESHOLD_MULT * epsilon else 0


def implication_premise(t: Transcript, epsilon: float) -> bool:
    """True when the audit below is non-vacuous for this trial."""
    return (
        t.aborted is None
        and t.flag == 0
        and t.err_fx is not None
        and t.err_fx > MODEL_ERR_MARGIN_MULT * epsilon
    )


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
    return (
        t.inner_flag == 0
        and t.err_y is not None
        and t.err_y > ANSWER_ERR_MARGIN_MULT * epsilon
    )
