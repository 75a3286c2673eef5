"""Detection <-> mitigation bridges, exercised on a toy classification task.

The two wrappers are generic: they turn any detector into a mitigator (answer
with the model, forward the flag) and any mitigator into a detector (flag when
the mitigator flags, or when its answers drift far from the model's).  The
second direction loses constant factors — thresholds 4eps for drift, and the
pointwise bound err(x, f(x)) <= err(x, y) + [y != f(x)] gives a trial-level
implication: a model error above 7eps with the derived flag down means the
wrapped mitigator answered with error above 3eps and its own flag down.

The toy task is label memorization: inputs are 4-byte indices, the correct
label is a salted hash bit, nature draws from a fixed pool, and an attacker
can aim outside the pool where the trained table has no entries.

An instance keeps the SHA-256 state of ``b"toy-label:" + salt``, and its
``label`` copies that state and hashes the input alone.  The nature pool is
small, so an instance labels it once, when it is built: its nature table
holds the NATURE_POOL (x, label) pairs in index order, and a nature draw
reads the 8 bytes ``randrange(NATURE_POOL)`` would read and serves the table
entry at that index.  Only ``h`` labels per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .core import ATTACKER, TrialCtx, hamming
from .drbg import HashDrbg, sha256
from .wire import be32

DEFAULT_LABEL = b"\x00"
NATURE_POOL = 16
# A nature draw's index is the low bits of the last of the 8 bytes that
# `HashDrbg.randrange(NATURE_POOL)` reads: a power of two divides 2**64, so
# randrange rejects no draw, and one at most 256 lies wholly in that byte.
assert NATURE_POOL & (NATURE_POOL - 1) == 0 and NATURE_POOL <= 256
ATTACK_POOL = 1 << 16
DRIFT_THRESHOLD_MULT = 4.0
LABELS = (b"\x00", b"\x01")


@dataclass
class ToyClassificationInstance:
    """Binary labels over 4-byte indices; nature uses indices [0, NATURE_POOL).

    `nature` is the labelled pool, ``(be32(i), label(be32(i)))`` at index i,
    built from `salt`.
    """

    salt: bytes
    nature: tuple[tuple[bytes, bytes], ...] = field(init=False, repr=False, compare=False)
    # the SHA-256 state of the label prefix (a drbg.sha256 object), only copied
    _label_prefix: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._label_prefix = sha256(b"toy-label:" + self.salt)
        self.nature = tuple((x, self.label(x)) for x in map(be32, range(NATURE_POOL)))

    def world(self, trial_seed: bytes) -> "ToyClassificationInstance":
        """The instance itself: a toy trial changes nothing in its task."""
        return self

    def label(self, x: bytes) -> bytes:
        """Ground-truth label: low bit of ``sha256(b"toy-label:" + salt + x)``."""
        h = self._label_prefix.copy()
        h.update(x)
        return LABELS[h.digest()[0] & 1]

    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]:
        """``(x, label(x))`` for ``x = be32(rng.randrange(NATURE_POOL))``."""
        return self.nature[rng.take(8)[7] % NATURE_POOL]

    def sample_input(self, rng: HashDrbg) -> bytes:
        return self.nature[rng.take(8)[7] % NATURE_POOL][0]

    def outsider_input(self, rng: HashDrbg) -> bytes:
        """A valid input outside the nature pool (support layout is public)."""
        return be32(NATURE_POOL + rng.randrange(ATTACK_POOL))

    def h(self, x: bytes, y: bytes) -> int:
        if len(x) != 4:
            return 1
        return 0 if y == self.label(x) else 1


def make_toy_instance(seed: bytes | int) -> ToyClassificationInstance:
    rng = HashDrbg(seed).child("toy-instance")
    return ToyClassificationInstance(salt=rng.take(16))


class ToyTrainer:
    """Memorizes its draws in a dict, its private state; the model says DEFAULT_LABEL elsewhere."""

    sample_budget = 96

    def train(self, ctx: TrialCtx) -> tuple[Callable[[bytes], bytes], dict[bytes, bytes]]:
        table: dict[bytes, bytes] = {}
        for _ in range(self.sample_budget):
            x, y = ctx.oracle.draw_pair()
            table[x] = y

        def model(x: bytes) -> bytes:
            if not isinstance(x, bytes):
                raise TypeError(f"a model query is bytes, not {type(x).__name__}")
            return table.get(x, DEFAULT_LABEL)

        return model, table


class ToyDetector:
    """Flags a batch when more than 4eps of its inputs fall outside the table."""

    def detect(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> int:
        outsiders = sum(x not in priv for x in xs) / len(xs)
        return 1 if outsiders > DRIFT_THRESHOLD_MULT * ctx.params.epsilon else 0


class ToyMitigator:
    """Extends the table with 64 fresh draws, answers from it, flags past 2eps drift."""

    sample_budget = 64

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]:
        extended = dict(priv)
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

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        return [ctx.task.outsider_input(ctx.rng) for _ in range(ctx.params.q)]


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
    Notes the inner answers (`response`) and flag (`inner_flag`) so the
    harness can score err_y and audit the implication above.
    """

    def __init__(self, mitigator: Any):
        self.mitigator = mitigator
        self.sample_budget: int | None = getattr(mitigator, "sample_budget", None)

    def detect(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> int:
        ys, inner = self.mitigator.mitigate(ctx, model, priv, xs)
        drift = hamming(ys, [model(x) for x in xs])
        ctx.notes["response"], ctx.notes["inner_flag"] = ys, inner
        return derived_flag(inner, drift, ctx.params.epsilon)


def derived_flag(inner_flag: int, drift: float, epsilon: float) -> int:
    """The derived detector's rule: the inner flag, or drift above 4eps."""
    return 1 if inner_flag == 1 or drift > DRIFT_THRESHOLD_MULT * epsilon else 0

