"""Helpers only the tests use, kept out of the `detmit` package."""

from __future__ import annotations

from typing import Any, Callable

from detmit.cli import DEFENSES, ExperimentConfig
from detmit.core import RateEstimate, Transcript
from detmit.crypto import (
    IDENTITY_LEN,
    IdentityCipher,
    IdentityKey,
    IvcKeys,
    IvcProof,
    StepMeter,
    ivc_update,
)
from detmit.drbg import HashDrbg
from detmit.payloads import ClearPayload, EncPayload, decode_payload, encode_payload
from detmit.sampletask import DataTaskInstance


def uniform(rng: HashDrbg) -> float:
    """Float in [0, 1) with 53 bits of precision, from one `u64` draw."""
    return (rng.u64() >> 11) * (2.0**-53)


def meter_run(meter: StepMeter, state: bytes, steps: int) -> bytes:
    """`steps` metered step-function applications, one `StepMeter.step` each."""
    for _ in range(steps):
        state = meter.step(state)
    return state


def ivc_prove(
    keys: IvcKeys, t: int, start_state: bytes, meter: StepMeter | None = None
) -> tuple[bytes, IvcProof]:
    """Prove t steps from the start state in one run of updates."""
    meter = StepMeter() if meter is None else meter
    return ivc_update(keys, start_state, keys.base_proof(start_state), meter, t)


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


def ladder_detectors(instance: DataTaskInstance) -> dict[str, Any]:
    """The ladder detectors by name, each built as `detmit run` builds it."""
    return {
        name: make(ExperimentConfig(detector=name), instance)
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
