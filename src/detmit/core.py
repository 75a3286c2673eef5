"""Game framework: budgets, oracles, trial runners and rate estimation.

A defense game is three moves.  A trainer spends sample draws to produce a
model and a private state; a challenger (benign nature or an attacker)
produces a batch of q inputs; the defense then either flags the batch
(detection game) or answers it and may flag (mitigation game).  Trials are
scored harness-side with the task's quality oracle h: ``err_fx`` is the
empirical error of the model's own answers on the batch and ``err_y`` the
error of the defense's answers where those exist.

Party code only ever receives oracle handles (sample oracle, public
parameters, metered step handles) — never instance secrets.  Budget
violations and declared agent aborts end the trial and are attributed to
the offending party in the transcript.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

from .crypto import StepMeter, StepsExhausted
from .drbg import HashDrbg

NATURE = "nature"
ATTACKER = "attacker"


class BudgetExceededError(Exception):
    """A party drew past its sample allowance."""


class AbortTrial(Exception):
    """An agent declares it cannot continue (e.g. unlucky draw mix)."""

    def __init__(self, party: str, reason: str = ""):
        super().__init__(f"{party} aborted: {reason}" if reason else f"{party} aborted")
        self.party = party
        self.reason = reason


@dataclass
class GameParams:
    """Game-level constants: error tolerance, confidence, batch size."""

    epsilon: float = 0.05
    delta: float = 0.02
    q: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if not 0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")


@dataclass
class ResourceBudget:
    samples_allowed: int | None = None
    steps_allowed: int | None = None
    samples_used: int = 0
    steps_used: int = 0

    def charge_sample(self) -> None:
        if self.samples_allowed is not None and self.samples_used >= self.samples_allowed:
            raise BudgetExceededError(
                f"sample budget {self.samples_allowed} exhausted"
            )
        self.samples_used += 1

    def snapshot(self) -> dict[str, int | None]:
        return {
            "samples_used": self.samples_used,
            "samples_allowed": self.samples_allowed,
            "steps_used": self.steps_used,
            "steps_allowed": self.steps_allowed,
        }


@runtime_checkable
class TaskInstance(Protocol):
    def sample_pair(self, rng: HashDrbg) -> tuple[bytes, bytes]: ...

    def h(self, x: bytes, y: bytes) -> int: ...


class SampleOracle:
    """Metered access to the task distribution.

    Every draw charges exactly one sample against the budget; parties get
    (x, y) pairs or bare inputs but never reach the instance secrets.
    """

    def __init__(self, instance: TaskInstance, rng: HashDrbg, budget: ResourceBudget):
        self._instance = instance
        self._rng = rng
        self.budget = budget

    def draw_pair(self) -> tuple[bytes, bytes]:
        self.budget.charge_sample()
        return self._instance.sample_pair(self._rng)

    def draw_input(self) -> bytes:
        return self.draw_pair()[0]


@dataclass
class TrialCtx:
    """Everything a party is allowed to touch during its move."""

    oracle: SampleOracle
    rng: HashDrbg
    params: GameParams
    step_party: str | None = None


# --- agent protocols ---------------------------------------------------------


@runtime_checkable
class Trainer(Protocol):
    sample_budget: int | None

    def train(self, ctx: TrialCtx) -> tuple[Callable[[bytes], bytes], Any]: ...


@runtime_checkable
class Challenger(Protocol):
    origin: str
    sample_budget: int | None

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]: ...


@runtime_checkable
class Detector(Protocol):
    def detect(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> int: ...


@runtime_checkable
class Mitigator(Protocol):
    sample_budget: int | None

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]: ...


# --- scoring helpers ----------------------------------------------------------


def empirical_err(
    h: Callable[[bytes, bytes], int], xs: list[bytes], ys: list[bytes]
) -> float:
    """Mean quality-oracle score over a batch of (x, y) pairs."""
    if len(xs) != len(ys):
        raise ValueError(f"batch length mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise ValueError("empty batch")
    return sum(h(x, y) for x, y in zip(xs, ys)) / len(xs)


def hamming(ys_a: list[bytes], ys_b: list[bytes]) -> float:
    """Normalized Hamming distance between two answer batches (byte equality)."""
    if len(ys_a) != len(ys_b):
        raise ValueError(f"batch length mismatch: {len(ys_a)} vs {len(ys_b)}")
    if not ys_a:
        raise ValueError("empty batch")
    return sum(a != b for a, b in zip(ys_a, ys_b)) / len(ys_a)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score 95% interval (z=1.96) for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass(frozen=True)
class RateEstimate:
    successes: int
    trials: int
    point: float
    low: float
    high: float

    @staticmethod
    def from_counts(successes: int, trials: int, z: float = 1.96) -> "RateEstimate":
        low, high = wilson_interval(successes, trials, z)
        point = successes / trials if trials else 0.0
        return RateEstimate(successes, trials, point, low, high)

    def as_dict(self) -> dict[str, float | int]:
        return {
            "successes": self.successes,
            "trials": self.trials,
            "point": self.point,
            "low": self.low,
            "high": self.high,
        }


# --- transcripts ---------------------------------------------------------------

_TRANSCRIPT_FIELDS = (
    "trial_id",
    "seed",
    "origin",
    "flag",
    "err_fx",
    "err_y",
    "ledgers",
    "aborted",
)


@dataclass
class Transcript:
    trial_id: int
    seed: str
    origin: str
    flag: int | None
    err_fx: float | None
    err_y: float | None
    ledgers: dict[str, dict[str, int | None]]
    aborted: str | None
    # in-memory only; never serialized
    model: Any = None
    private_state: Any = None
    challenge: list[bytes] = field(default_factory=list)
    response: list[bytes] | None = None
    inner_flag: int | None = None

    def to_json(self) -> str:
        obj = {name: getattr(self, name) for name in _TRANSCRIPT_FIELDS}
        return json.dumps(obj, sort_keys=False, separators=(",", ":"))

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "Transcript":
        """The serialized fields of one parsed `to_json` line."""
        return cls(**{name: rec[name] for name in _TRANSCRIPT_FIELDS})


def _seed_str(seed: bytes | int) -> str:
    return seed.hex() if isinstance(seed, bytes) else str(seed)


class _TrialState:
    """Per-trial plumbing: budgets, labels, abort capture."""

    def __init__(
        self,
        instance: Any,
        params: GameParams,
        seed: bytes | int,
        trial_id: int,
    ):
        self.instance = instance
        self.params = params
        self.trial_id = trial_id
        self.root = HashDrbg(seed)
        self.meter: StepMeter | None = getattr(instance, "meter", None)
        self.ledgers: dict[str, dict[str, int | None]] = {}
        self.step_base: dict[str, int] = {}
        self.aborted: str | None = None

    def ctx_for(self, role: str, agent: Any) -> TrialCtx:
        budget = ResourceBudget(samples_allowed=getattr(agent, "sample_budget", None))
        step_party = None
        if self.meter is not None:
            step_party = f"{role}#{self.trial_id}"
            step_budget = getattr(agent, "step_budget", None)
            base = self.step_base[role] = self.meter.snapshot().get(step_party, 0)
            self.meter.set_limit(
                step_party, None if step_budget is None else base + step_budget
            )
        ctx = TrialCtx(
            oracle=SampleOracle(self.instance, self.root.child(role), budget),
            rng=self.root.child(role + "-local"),
            params=self.params,
            step_party=step_party,
        )
        return ctx

    def close_ledger(self, role: str, agent: Any, ctx: TrialCtx, **extra: int) -> None:
        entry = ctx.oracle.budget.snapshot()
        if ctx.step_party is not None and self.meter is not None:
            used = self.meter.snapshot().get(ctx.step_party, 0) - self.step_base[role]
            entry["steps_used"] = used
            entry["steps_allowed"] = getattr(agent, "step_budget", None)
        entry.update(extra)
        self.ledgers[role] = entry

    def run_phase(self, role: str, fn: Callable[[], Any]) -> Any:
        """Run one move; return None and record the abort if the party fails."""
        try:
            return fn()
        except (BudgetExceededError, StepsExhausted) as exc:
            self.aborted = role
            self.abort_reason = str(exc)
        except AbortTrial as exc:
            self.aborted = exc.party
            self.abort_reason = exc.reason
        return None


def _run_trial(
    instance: Any,
    trainer: Trainer,
    challenger: Challenger,
    role: str,
    defense: Any,
    defend: Callable[..., tuple[int, list[bytes] | None, int | None]],
    params: GameParams,
    seed: bytes | int,
    trial_id: int,
) -> Transcript:
    """Train, challenge, defend, score: the body both games share.

    `defend(ctx, model, priv, xs)` is the one move in which the games differ;
    it returns (flag, answers or None, inner flag or None).
    """
    st = _TrialState(instance, params, seed, trial_id)
    flag = err_fx = err_y = inner_flag = None
    model, priv, xs, response = None, None, [], None

    tctx = st.ctx_for("trainer", trainer)
    trained = st.run_phase("trainer", lambda: trainer.train(tctx))
    st.close_ledger("trainer", trainer, tctx)
    if trained is not None:
        model, priv = trained
        cctx = st.ctx_for(challenger.origin, challenger)
        xs = st.run_phase(challenger.origin, lambda: challenger.challenge(cctx, model))
        queries = getattr(challenger, "last_query_count", None)
        extra = {} if queries is None else {"queries": queries}
        st.close_ledger(challenger.origin, challenger, cctx, **extra)
        if xs is not None:
            dctx = st.ctx_for(role, defense)
            defended = st.run_phase(role, lambda: defend(dctx, model, priv, xs))
            st.close_ledger(role, defense, dctx)
            if defended is not None:
                flag, response, inner_flag = defended
                err_fx = empirical_err(instance.h, xs, [model(x) for x in xs])
                if response is not None:
                    err_y = empirical_err(instance.h, xs, response)

    return Transcript(
        trial_id=trial_id,
        seed=_seed_str(seed),
        origin=challenger.origin,
        flag=flag,
        err_fx=err_fx,
        err_y=err_y,
        ledgers=st.ledgers,
        aborted=st.aborted,
        model=model,
        private_state=priv,
        challenge=xs or [],
        response=response,
        inner_flag=inner_flag,
    )


def run_dbd_trial(
    instance: Any,
    trainer: Trainer,
    challenger: Challenger,
    detector: Detector,
    params: GameParams,
    seed: bytes | int,
    trial_id: int = 0,
) -> Transcript:
    """One detection-game trial: train, challenge, detect, score."""

    def detect(ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> tuple:
        flag = detector.detect(ctx, model, priv, xs)
        return (
            flag,
            getattr(detector, "last_response", None),
            getattr(detector, "last_inner_flag", None),
        )

    return _run_trial(
        instance, trainer, challenger, "detector", detector, detect, params, seed, trial_id
    )


def run_dbm_trial(
    instance: Any,
    trainer: Trainer,
    challenger: Challenger,
    mitigator: Mitigator,
    params: GameParams,
    seed: bytes | int,
    trial_id: int = 0,
) -> Transcript:
    """One mitigation-game trial: train, challenge, answer+flag, score."""

    def mitigate(ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]) -> tuple:
        ys, flag = mitigator.mitigate(ctx, model, priv, xs)
        return flag, ys, None

    return _run_trial(
        instance, trainer, challenger, "mitigator", mitigator, mitigate, params, seed, trial_id
    )


# --- scoring predicates ---------------------------------------------------------


def completeness_violation(t: Transcript) -> bool:
    """Nature batch flagged (counts only non-aborted trials)."""
    return t.aborted is None and t.origin == NATURE and t.flag == 1


def soundness_violation(t: Transcript, epsilon: float) -> bool:
    """Bad answers with the flag down.

    Scores the answers the defense is responsible for: err_y when the trial
    produced answers (mitigation, or a derived detector), err_fx otherwise.
    """
    if t.aborted is not None or t.flag != 0:
        return False
    err = t.err_y if t.err_y is not None else t.err_fx
    return err is not None and err > epsilon


# --- estimation ----------------------------------------------------------------


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


def estimate_model_err(
    instance: Any,
    model: Callable[[bytes], bytes],
    draws: int,
    seed: bytes | int = 0,
) -> RateEstimate:
    """Estimate the model's true error over fresh inputs.

    Harness-side and metering-exempt: draws never count against any party.
    """
    rng = HashDrbg(seed).child("err-estimate")
    bad = 0
    for _ in range(draws):
        x, _ = instance.sample_pair(rng)
        bad += instance.h(x, model(x))
    return RateEstimate.from_counts(bad, draws)


class NatureChallenger:
    """Benign challenger: q i.i.d. inputs from the task marginal, unmetered."""

    origin = NATURE
    sample_budget: int | None = None

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        return [ctx.oracle.draw_input() for _ in range(ctx.params.q)]
