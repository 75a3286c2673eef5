"""Game framework: budgets, oracles, trial runners and rate estimation.

A defense game is three moves.  A trainer spends sample draws to produce a
model and a private state; a challenger (benign nature or an attacker)
produces a batch of q inputs; the defense then either flags the batch
(detection game) or answers it and may flag (mitigation game).  Trials are
scored harness-side with the task's quality oracle h: ``err_fx`` is the
empirical error of the model's own answers on the batch and ``err_y`` the
error of the defense's answers where those exist.  A defense answer equal to
the model's takes that answer's score: h scores a pair the two share once.

A party reaches the task only through its move's ``TrialCtx``: the sample
oracle, the public parameters, a step meter for the move, and ``ctx.task``,
the trial's world, which every task makes with ``instance.world(seed)``.  No
party is built on an instance.  ``ctx.task`` is still the whole world,
secrets included (ROADMAP D17): the shipped parties read only its public
surface, and ``tests/test_party_surface.py`` pins that.  Budget
violations, declared agent aborts and any other exception out of a party's
move end the trial and are attributed to the offending party in the
transcript, and so does a malformed output: a batch that is not a list of q
byte strings, answers that are not one byte string per input, a flag other
than 0 or 1, or a model that fails while it is scored (the trainer's fault).
An exception out of the task instance behind the sample oracle is a
:class:`HarnessFault` and ends the batch.

Parties hold no per-trial state: a move reports through ``TrialCtx.notes``.
A challenger's ``queries`` note, an int >= 0 or its fault, goes into its
ledger and its notes onto the in-memory ``Transcript.notes``; a detector's
``response`` and ``inner_flag`` notes become the transcript fields of those names.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Protocol

from .crypto import SignatureToken, StepMeter, StepsExhausted
from .drbg import HashDrbg

NATURE = "nature"
ATTACKER = "attacker"


class BudgetExceededError(Exception):
    """A party drew past its sample allowance."""


class HarnessFault(Exception):
    """The task instance behind a sample oracle failed during a party's move.

    Not the party's fault: it ends the batch instead of aborting the trial.
    """


class AbortTrial(Exception):
    """An agent declares it cannot continue (e.g. unlucky draw mix)."""

    def __init__(self, party: str, reason: str = ""):
        super().__init__(f"{party} aborted: {reason}" if reason else f"{party} aborted")
        self.party = party
        self.reason = reason


@dataclass(frozen=True)  # the trials of a batch share one
class GameParams:
    """Game-level constants: error tolerance and batch size."""

    epsilon: float = 0.05
    q: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")


@dataclass
class ResourceBudget:
    samples_allowed: int | None = None
    samples_used: int = 0

    def charge_sample(self) -> None:
        if self.samples_allowed is not None and self.samples_used >= self.samples_allowed:
            raise BudgetExceededError(
                f"sample budget {self.samples_allowed} exhausted"
            )
        self.samples_used += 1

    def snapshot(self) -> dict[str, int | None]:
        return {"samples_used": self.samples_used, "samples_allowed": self.samples_allowed}


class SampleOracle:
    """Metered access to the task distribution.

    Every draw charges exactly one sample against the budget.  The oracle
    hands out metered draws and nothing else; it does not hide the world,
    which a party still reaches whole as ``ctx.task`` (D17).  Each way to
    draw moves every stream as far as that many pair draws would:

    * ``draw_pair``  — (x, y), from the task's ``sample_pair``;
    * ``draw_input`` — x alone, for parties that ignore y; it skips building
      the answer (``sample_input``, on every task);
    * ``draw_tokens`` — a batch of draws for parties that only collect
      signature tokens: the first tokens they ask for among its clear x,
      with no payload built (``sample_tokens``, on the ladder task).  The
      batch reads the party's stream only up to the draw of the last token
      it keeps; the oracle owes the draws after it and walks them
      (``walk_draws``) only when it draws again, before it charges that
      sample.  The proof-token stream moves for all of the batch's draws at
      once, since every party of the trial shares it.

    An exception out of the instance is re-raised as :class:`HarnessFault`;
    a budget overrun is charged before the instance is called, so it stays
    the party's.
    """

    def __init__(self, instance: Any, rng: HashDrbg, budget: ResourceBudget):
        self._instance = instance
        self._rng = rng
        self.budget = budget
        self._owed = 0  # draws the last token batch has not read from `_rng`

    def _walk_owed(self) -> None:
        try:
            self._instance.walk_draws(self._rng, self._owed)
        except Exception as exc:
            raise _harness_fault("walk_draws", exc) from exc
        self._owed = 0

    # Separate bodies, not one shared through getattr: that costs about 75 ns
    # a draw, 2% of a toy trial (160 draws in 0.5 ms on a 2-core Xeon VM).
    def draw_pair(self) -> tuple[bytes, bytes]:
        if self._owed:
            self._walk_owed()
        self.budget.charge_sample()
        try:
            return self._instance.sample_pair(self._rng)
        except Exception as exc:
            raise _harness_fault("sample_pair", exc) from exc

    def draw_input(self) -> bytes:
        if self._owed:
            self._walk_owed()
        self.budget.charge_sample()
        try:
            return self._instance.sample_input(self._rng)
        except Exception as exc:
            raise _harness_fault("sample_input", exc) from exc

    def draw_tokens(
        self, n: int, want: int, known: Iterable[SignatureToken] = ()
    ) -> list[SignatureToken]:
        """The first `want` distinct tokens not in `known` among the clear x of `n` draws.

        Charges `n` samples.  Past the allowance it draws what is left and
        then raises :class:`BudgetExceededError`, as `n` single draws would.
        """
        if self._owed:
            self._walk_owed()
        budget = self.budget
        draws = max(n, 0)
        if budget.samples_allowed is not None:
            draws = min(draws, max(budget.samples_allowed - budget.samples_used, 0))
        budget.samples_used += draws
        try:
            tokens, self._owed = self._instance.sample_tokens(self._rng, draws, want, known)
        except Exception as exc:
            raise _harness_fault("sample_tokens", exc) from exc
        if draws < n:
            raise BudgetExceededError(f"sample budget {budget.samples_allowed} exhausted")
        return tokens


def _harness_fault(method: str, exc: Exception) -> HarnessFault:
    return HarnessFault(f"{method}: {type(exc).__name__}: {exc}")


@dataclass
class TrialCtx:
    """Everything a party is allowed to touch during its move.

    `task` is the trial's world: a party's only route to the task.  It is
    still the whole world, secrets included (D17).
    """

    oracle: SampleOracle
    rng: HashDrbg
    params: GameParams
    task: Any
    meter: StepMeter = field(default_factory=StepMeter)
    notes: dict[str, Any] = field(default_factory=dict)  # the move's reports


# --- agent protocols ---------------------------------------------------------


class Trainer(Protocol):
    sample_budget: int | None

    def train(self, ctx: TrialCtx) -> tuple[Callable[[bytes], bytes], Any]: ...


class Challenger(Protocol):
    origin: str
    sample_budget: int | None

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]: ...


class Detector(Protocol):
    def detect(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> int: ...


class Mitigator(Protocol):
    sample_budget: int | None

    def mitigate(
        self, ctx: TrialCtx, model: Callable[[bytes], bytes], priv: Any, xs: list[bytes]
    ) -> tuple[list[bytes], int]: ...


class NatureChallenger:
    """Benign challenger: q i.i.d. inputs from the task marginal, unmetered."""

    origin = NATURE
    sample_budget: int | None = None

    def challenge(self, ctx: TrialCtx, model: Callable[[bytes], bytes]) -> list[bytes]:
        return [ctx.oracle.draw_input() for _ in range(ctx.params.q)]


# --- scoring helpers ----------------------------------------------------------


def empirical_err(
    h: Callable[[bytes, bytes], int],
    xs: list[bytes],
    ys: list[bytes],
    scored: tuple[list[bytes], list[int]] | None = None,
    scores: list[int] | None = None,
) -> float:
    """Mean quality-oracle score over a batch of (x, y) pairs.

    `scored`, if given, is another answer batch to the same xs and its
    per-pair scores: a pair whose answer equals that batch's takes its score
    without a call to `h`, which is exact because `h` is a pure function of
    (x, y).  `scores`, if given, receives this batch's per-pair scores.
    """
    if len(xs) != len(ys):
        raise ValueError(f"batch length mismatch: {len(xs)} vs {len(ys)}")
    if not xs:
        raise ValueError("empty batch")
    if scored is None:
        got = [h(x, y) for x, y in zip(xs, ys)]
    else:
        got = [s if y == z else h(x, y) for x, y, z, s in zip(xs, ys, *scored, strict=True)]
    if scores is not None:
        scores += got
    return sum(got) / len(xs)


def hamming(ys_a: list[bytes], ys_b: list[bytes]) -> float:
    """Normalized Hamming distance between two answer batches (byte equality)."""
    if len(ys_a) != len(ys_b):
        raise ValueError(f"batch length mismatch: {len(ys_a)} vs {len(ys_b)}")
    if not ys_a:
        raise ValueError("empty batch")
    return sum(a != b for a, b in zip(ys_a, ys_b)) / len(ys_a)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval (z=1.96) for a binomial proportion."""
    z = 1.96
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
    def from_counts(successes: int, trials: int) -> "RateEstimate":
        low, high = wilson_interval(successes, trials)
        point = successes / trials if trials else 0.0
        return RateEstimate(successes, trials, point, low, high)

    def as_dict(self) -> dict[str, float | int]:
        return asdict(self)


# --- transcripts ---------------------------------------------------------------

_NULL = type(None)
# the parties a trial can abort in the name of
_PARTY_NAMES = ("trainer", NATURE, ATTACKER, "detector", "mitigator")
# a seed as `_seed_str` writes it: bytes in lowercase hex, or a decimal int
_SEED_FORM = re.compile(r"(?:[0-9a-f]{2})*|-?(?:0|[1-9][0-9]*)")


def _unit_or_null(v: float | None) -> bool:
    return v is None or 0 <= v <= 1  # NaN and the infinities fail


# serialized field -> (the JSON value types it may hold, the rule its value keeps)
_TRANSCRIPT_FIELDS: dict[str, tuple[tuple[type, ...], Callable[[Any], bool]]] = {
    "trial_id": ((int,), lambda v: v >= 0),
    "seed": ((str,), lambda v: _SEED_FORM.fullmatch(v) is not None),
    "origin": ((str,), lambda v: v in (NATURE, ATTACKER)),
    "flag": ((int, _NULL), lambda v: v in (0, 1, None)),
    "err_fx": ((float, int, _NULL), _unit_or_null),
    "err_y": ((float, int, _NULL), _unit_or_null),
    "ledgers": ((dict,), lambda v: True),
    "aborted": ((str, _NULL), lambda v: v is None or v in _PARTY_NAMES),
}


def _check_type(name: str, value: Any, types: tuple[type, ...]) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{name} has type {type(value).__name__}")


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
    abort_reason: str | None = None
    challenge: list[bytes] = field(default_factory=list)
    response: list[bytes] | None = None
    inner_flag: int | None = None
    notes: dict[str, Any] = field(default_factory=dict)  # the challenger's

    def to_json(self) -> str:
        obj = {name: getattr(self, name) for name in _TRANSCRIPT_FIELDS}
        return json.dumps(obj, sort_keys=False, separators=(",", ":"))

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "Transcript":
        """The serialized fields of one parsed `to_json` line.

        Raises KeyError for a missing field, TypeError for a value of the
        wrong JSON type, ledger entries included, and ValueError for a value
        that breaks its field's rule in `_TRANSCRIPT_FIELDS`.
        """
        fields = {name: rec[name] for name in _TRANSCRIPT_FIELDS}
        for name, (types, rule) in _TRANSCRIPT_FIELDS.items():
            _check_type(name, fields[name], types)
            if not rule(fields[name]):
                raise ValueError(f"{name} has value {fields[name]!r:.40}")
        for role, ledger in fields["ledgers"].items():
            _check_type(f"ledgers[{role!r}]", ledger, (dict,))
            for key, value in ledger.items():
                _check_type(f"ledgers[{role!r}][{key!r}]", value, (int, _NULL))
        return cls(**fields)


def _seed_str(seed: bytes | int) -> str:
    return seed.hex() if isinstance(seed, bytes) else str(seed)


class _TrialState:
    """Per-trial plumbing: budgets, ledgers, abort capture."""

    def __init__(self, instance: Any, params: GameParams, seed: bytes | int):
        self.instance = instance
        self.params = params
        self.root = HashDrbg(seed)
        self.ledgers: dict[str, dict[str, int | None]] = {}
        self.aborted: str | None = None
        self.abort_reason: str | None = None

    def ctx_for(self, role: str, agent: Any) -> TrialCtx:
        budget = ResourceBudget(samples_allowed=getattr(agent, "sample_budget", None))
        return TrialCtx(
            oracle=SampleOracle(self.instance, self.root.child(role), budget),
            rng=self.root.child(role + "-local"),
            params=self.params,
            task=self.instance,
            meter=StepMeter(getattr(agent, "step_budget", None)),
        )

    def close_ledger(self, role: str, ctx: TrialCtx) -> None:
        ledger = self.ledgers[role] = {
            **ctx.oracle.budget.snapshot(),
            "steps_used": ctx.meter.used,
            "steps_allowed": ctx.meter.limit,
        }
        if _is_count(ctx.notes.get("queries")):  # `_challenge` faults a move that returns a bad one
            ledger["queries"] = ctx.notes["queries"]

    def run_phase(self, role: str, fn: Callable[[], Any]) -> Any:
        """Run one move; return None and record the abort if the party fails.

        Any other exception out of the party's code is a fault of that party
        and aborts the trial in its name, so one faulty party cannot take
        the batch down.  A :class:`HarnessFault` is no party's fault and
        propagates.
        """
        try:
            return fn()
        except HarnessFault:
            raise
        except (BudgetExceededError, StepsExhausted) as exc:
            self.aborted = role
            self.abort_reason = str(exc)
        except AbortTrial as exc:
            # an abort in a name no trial writes is the aborting party's own
            self.aborted = exc.party if exc.party in _PARTY_NAMES else role
            self.abort_reason = exc.reason
        except Exception as exc:
            self.aborted = role
            self.abort_reason = f"fault: {type(exc).__name__}: {exc}"
        return None


def _byte_list(value: Any, n: int, what: str) -> list[bytes]:
    """`value`, if it is a list of `n` byte strings; else a TypeError."""
    if not (
        isinstance(value, list) and len(value) == n and all(isinstance(v, bytes) for v in value)
    ):
        raise TypeError(f"{what} is not a list of {n} bytes")
    return value


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _challenge(challenger: Challenger, ctx: TrialCtx, model: Any, q: int) -> list[bytes]:
    """The challenger's batch, checked, as is its `queries` note, if any: an int >= 0."""
    xs = _byte_list(challenger.challenge(ctx, model), q, "batch")
    if not _is_count(ctx.notes.get("queries", 0)):
        raise TypeError(f"queries note {ctx.notes['queries']!r:.40} is not an int >= 0")
    return xs


def _defense(
    role: str, defense: Any, ctx: TrialCtx, model: Any, priv: Any, xs: list[bytes]
) -> tuple[int, list[bytes] | None]:
    """The defense move's (flag, answers or None), checked.

    `role` picks the move: a detector's answers are its `response` note, if any.
    """
    if role == "detector":
        flag, answers = defense.detect(ctx, model, priv, xs), ctx.notes.get("response")
    else:
        answers, flag = defense.mitigate(ctx, model, priv, xs)
    if type(flag) is not int or flag not in (0, 1):
        raise ValueError(f"flag {flag!r} is not 0 or 1")
    if answers is not None:
        _byte_list(answers, len(xs), "answers")
    return flag, answers


def _run_trial(
    instance: Any,
    trainer: Trainer,
    challenger: Challenger,
    role: str,
    defense: Any,
    params: GameParams,
    seed: bytes | int,
    trial_id: int,
) -> Transcript:
    """Train, challenge, defend, score: the body both games share."""
    st = _TrialState(instance, params, seed)
    flag = err_fx = err_y = inner_flag = None
    xs, response, notes = [], None, {}

    tctx = st.ctx_for("trainer", trainer)
    trained = st.run_phase("trainer", lambda: trainer.train(tctx))
    st.close_ledger("trainer", tctx)
    if trained is not None:
        model, priv = trained
        cctx = st.ctx_for(challenger.origin, challenger)
        xs = st.run_phase(challenger.origin, lambda: _challenge(challenger, cctx, model, params.q))
        st.close_ledger(challenger.origin, cctx)
        notes = cctx.notes
        if xs is not None:
            dctx = st.ctx_for(role, defense)
            defended = st.run_phase(role, lambda: _defense(role, defense, dctx, model, priv, xs))
            st.close_ledger(role, dctx)
            if defended is not None:
                # the model is the trainer's code, so a fault while scoring it is too
                fxs = st.run_phase(
                    "trainer",
                    lambda: _byte_list([model(x) for x in xs], len(xs), "model answers"),
                )
                if fxs is not None:
                    flag, response = defended
                    inner_flag = dctx.notes.get("inner_flag")
                    fx_scores: list[int] = []
                    err_fx = empirical_err(instance.h, xs, fxs, scores=fx_scores)
                    if response is not None:
                        err_y = empirical_err(instance.h, xs, response, scored=(fxs, fx_scores))

    return Transcript(
        trial_id=trial_id,
        seed=_seed_str(seed),
        origin=challenger.origin,
        flag=flag,
        err_fx=err_fx,
        err_y=err_y,
        ledgers=st.ledgers,
        aborted=st.aborted,
        abort_reason=st.abort_reason,
        challenge=xs or [],
        response=response,
        inner_flag=inner_flag,
        notes=notes,
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
    return _run_trial(instance, trainer, challenger, "detector", detector, params, seed, trial_id)


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
    return _run_trial(
        instance, trainer, challenger, "mitigator", mitigator, params, seed, trial_id
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
