"""Game framework: params, budgets, scoring, trial runners, transcripts."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmit.classify import DetectorFromMitigator, ToyMitigator, ToyTrainer, make_toy_instance
from detmit.cli import ExperimentConfig, build_parties
from detmit.core import (
    AbortTrial,
    BudgetExceededError,
    GameParams,
    HarnessFault,
    NatureChallenger,
    RateEstimate,
    ResourceBudget,
    SampleOracle,
    Transcript,
    TrialCtx,
    completeness_violation,
    empirical_err,
    hamming,
    run_dbd_trial,
    run_dbm_trial,
    soundness_violation,
    wilson_interval,
)
from detmit.drbg import SEED_MAX, SEED_MIN, HashDrbg, derive_trial_seed
from detmit.sampletask import make_data_instance
from testkit import FixedChallenger, KeepTrained, evaluate_rates


def test_game_params_validation():
    GameParams(epsilon=0.05, q=32)
    with pytest.raises(ValueError):
        GameParams(epsilon=0.5)
    with pytest.raises(ValueError):
        GameParams(q=0)


def test_budget_charges_and_raises():
    b = ResourceBudget(samples_allowed=2)
    b.charge_sample()
    b.charge_sample()
    with pytest.raises(BudgetExceededError):
        b.charge_sample()
    assert b.samples_used == 2
    unlimited = ResourceBudget()
    for _ in range(100):
        unlimited.charge_sample()
    assert unlimited.samples_used == 100


# values frozen from an independent Wilson-score derivation
@pytest.mark.parametrize(
    "successes,trials,low,high",
    [
        (0, 10_000, 0.0, 3.8401e-4),
        (0, 1_000, 0.0, 3.8269e-3),
        (250, 500, 0.45634, 0.54366),
        (1, 30, 0.0059084, 0.16671),
    ],
)
def test_wilson_frozen_values(successes, trials, low, high):
    lo, hi = wilson_interval(successes, trials)
    assert lo == pytest.approx(low, abs=1e-6)
    assert hi == pytest.approx(high, rel=1e-4)


def test_wilson_degenerate():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(5, 5)
    assert hi == 1.0 and lo > 0.5


def test_rate_estimate_dict():
    est = RateEstimate.from_counts(3, 30)
    assert est.point == pytest.approx(0.1)
    assert set(est.as_dict()) == {"successes", "trials", "point", "low", "high"}


def _pure_h(x: bytes, y: bytes) -> int:
    """A stand-in quality oracle: a pure function of (x, y)."""
    return hashlib.sha256(len(x).to_bytes(4, "big") + x + y).digest()[0] & 1


@given(
    st.lists(
        st.tuples(st.binary(max_size=2), st.binary(max_size=1), st.binary(max_size=1),
                  st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_empirical_err_reuses_the_scores_of_equal_answers(rows):
    """Scored beside the model's batch, a defense batch takes the model's score
    wherever its answer equals the model's: both means equal the plain mean,
    and `h` sees only the pairs whose answers differ."""
    xs = [x for x, _, _, _ in rows]
    fxs = [fx for _, fx, _, _ in rows]
    ys = [fx if same else y for _, fx, y, same in rows]
    calls = []

    def h(x, y):
        calls.append((x, y))
        return _pure_h(x, y)

    fx_scores: list[int] = []
    err_fx = empirical_err(h, xs, fxs, scores=fx_scores)
    assert fx_scores == [_pure_h(x, fx) for x, fx in zip(xs, fxs)]
    assert err_fx == sum(fx_scores) / len(xs)
    assert calls == list(zip(xs, fxs))
    calls.clear()
    err_y = empirical_err(h, xs, ys, scored=(fxs, fx_scores))
    assert err_y == sum(_pure_h(x, y) for x, y in zip(xs, ys)) / len(xs)
    assert calls == [(x, y) for x, y, fx in zip(xs, ys, fxs) if y != fx]


def test_a_trial_scores_each_answer_once(monkeypatch):
    """A trial calls `h` once per model answer and once per defense answer that differs.

    A toy trial of the derived detector at q=32 makes q + #{y != f(x)} calls,
    with a full trainer (every answer equal) and a starved one (some differ).
    A ladder mitigation trial's err_y equals a fresh scoring of its batch.
    """
    params = GameParams(epsilon=0.05, q=32)
    toy = make_toy_instance(11)
    calls, toy_h = [], toy.h

    def counted_h(x, y):
        calls.append((x, y))
        return toy_h(x, y)

    monkeypatch.setattr(toy, "h", counted_h)
    differ = []
    for budget in (96, 4):
        inner = ToyTrainer()
        inner.sample_budget = budget
        trainer = KeepTrained(inner)
        calls.clear()
        t = run_dbd_trial(
            toy, trainer, NatureChallenger(), DetectorFromMitigator(ToyMitigator()),
            params, derive_trial_seed(12, budget),
        )
        assert t.aborted is None
        fxs = [trainer.model(x) for x in t.challenge]
        differ.append(sum(y != fx for y, fx in zip(t.response, fxs)))
        assert len(calls) == params.q + differ[-1]
        assert t.err_y == sum(map(toy_h, t.challenge, t.response)) / params.q
    assert differ[0] == 0 < differ[1] < params.q

    world = make_data_instance(12).world(derive_trial_seed(13, 0))
    cfg = ExperimentConfig(task="ladder", game="mitigate", challenger="attack", q=2)
    trainer, attacker, mitigator = build_parties(cfg)
    t = run_dbm_trial(world, trainer, attacker, mitigator, cfg.params(), derive_trial_seed(13, 0))
    assert t.aborted is None and t.response is not None
    assert t.err_y == empirical_err(world.h, t.challenge, t.response)


def test_empirical_err_and_hamming():
    h = lambda x, y: int(x != y)  # noqa: E731
    assert empirical_err(h, [b"a", b"b"], [b"a", b"c"]) == 0.5
    assert hamming([b"a", b"b"], [b"a", b"b"]) == 0.0
    assert hamming([b"a", b"b"], [b"x", b"y"]) == 1.0
    with pytest.raises(ValueError):
        empirical_err(h, [b"a"], [])
    with pytest.raises(ValueError):
        hamming([], [])


# --- a tiny synthetic task to exercise the runners ---------------------------------


class EchoInstance:
    """x is one byte; the right answer is the same byte."""

    def sample_pair(self, rng):
        x = rng.take(1)
        return x, x

    def sample_input(self, rng):
        return rng.take(1)

    def h(self, x, y):
        return 0 if y == x else 1


class EchoTrainer:
    sample_budget = 4

    def train(self, ctx):
        for _ in range(self.sample_budget):
            ctx.oracle.draw_pair()
        return (lambda x: x), b"priv-bytes"


class WrongTrainer(EchoTrainer):
    def train(self, ctx):
        return (lambda x: b"\xff"), b""


class GreedyTrainer:
    sample_budget = 2

    def train(self, ctx):
        for _ in range(5):
            ctx.oracle.draw_pair()
        return (lambda x: x), b""


class AbortingChallenger:
    origin = "attacker"
    sample_budget = 0

    def challenge(self, ctx, model):
        raise AbortTrial("attacker", "always gives up")


class FlagEverything:
    def detect(self, ctx, model, priv, xs):
        return 1


class EchoMitigator:
    sample_budget = 0

    def mitigate(self, ctx, model, priv, xs):
        return [model(x) for x in xs], 0


PARAMS = GameParams(epsilon=0.05, q=4)


class FlagOnTrainerPriv:
    """Flags iff it is handed the private state EchoTrainer returns."""

    def detect(self, ctx, model, priv, xs):
        return int(priv == b"priv-bytes")


def test_dbd_trial_records_everything():
    t = run_dbd_trial(
        EchoInstance(), EchoTrainer(), NatureChallenger(), FlagOnTrainerPriv(),
        PARAMS, derive_trial_seed(0, 0), trial_id=7,
    )
    assert t.trial_id == 7
    assert t.origin == "nature"
    assert t.flag == 1 and t.err_fx == 0.0 and t.aborted is None
    assert t.ledgers["trainer"]["samples_used"] == 4
    assert t.ledgers["nature"]["samples_used"] == 4  # q draws
    assert len(t.challenge) == 4
    assert completeness_violation(t)
    assert not soundness_violation(t, 0.05)


def test_dbd_trial_err_on_wrong_model():
    class Quiet:
        def detect(self, ctx, model, priv, xs):
            return 0

    t = run_dbd_trial(
        EchoInstance(), WrongTrainer(), NatureChallenger(), Quiet(),
        PARAMS, derive_trial_seed(0, 1),
    )
    assert t.err_fx == 1.0 and t.flag == 0
    assert soundness_violation(t, 0.05)


def test_budget_overrun_attributed_to_trainer():
    t = run_dbd_trial(
        EchoInstance(), GreedyTrainer(), NatureChallenger(), FlagEverything(),
        PARAMS, derive_trial_seed(0, 2),
    )
    assert t.aborted == "trainer"
    assert t.flag is None and t.err_fx is None
    assert t.ledgers["trainer"]["samples_used"] == 2  # stopped at the line
    assert not completeness_violation(t) and not soundness_violation(t, 0.05)


def test_declared_abort_attributed_to_challenger():
    t = run_dbd_trial(
        EchoInstance(), EchoTrainer(), AbortingChallenger(), FlagEverything(),
        PARAMS, derive_trial_seed(0, 3),
    )
    assert t.aborted == "attacker"
    assert t.flag is None


def test_an_abort_in_no_partys_name_is_charged_to_the_party_that_raised_it():
    class Stray:
        def detect(self, ctx, model, priv, xs):
            raise AbortTrial("martian", "not a party")

    t = run_dbd_trial(
        EchoInstance(), EchoTrainer(), NatureChallenger(), Stray(),
        PARAMS, derive_trial_seed(0, 3),
    )
    assert (t.aborted, t.abort_reason) == ("detector", "not a party")
    assert Transcript.from_record(json.loads(t.to_json())).aborted == "detector"


def test_dbm_trial_scores_answers():
    t = run_dbm_trial(
        EchoInstance(), WrongTrainer(), NatureChallenger(), EchoMitigator(),
        PARAMS, derive_trial_seed(0, 4),
    )
    # mitigator echoed the broken model, so err_y tracks err_fx
    assert t.flag == 0 and t.err_y == 1.0 and t.err_fx == 1.0
    assert t.response is not None and len(t.response) == 4


def test_transcript_json_fixed_fields():
    t = run_dbd_trial(
        EchoInstance(), EchoTrainer(), NatureChallenger(), FlagEverything(),
        PARAMS, derive_trial_seed(0, 5), trial_id=3,
    )
    obj = json.loads(t.to_json())
    assert list(obj) == [
        "trial_id", "seed", "origin", "flag", "err_fx", "err_y", "ledgers", "aborted",
    ]
    # in-memory extras never serialize
    assert "model" not in obj and "challenge" not in obj


@given(
    seed=st.one_of(st.binary(max_size=40), st.integers(SEED_MIN, SEED_MAX)),
    trial_id=st.integers(0, 2**63),
)
def test_from_record_reads_every_seed_a_trial_writes(seed, trial_id):
    t = run_dbd_trial(
        EchoInstance(), EchoTrainer(), NatureChallenger(), FlagEverything(),
        PARAMS, seed, trial_id,
    )
    assert Transcript.from_record(json.loads(t.to_json())).to_json() == t.to_json()


def test_same_seed_same_transcript():
    args = (EchoInstance(), EchoTrainer(), NatureChallenger(), FlagEverything())
    a = run_dbd_trial(*args, PARAMS, derive_trial_seed(1, 0))
    b = run_dbd_trial(*args, PARAMS, derive_trial_seed(1, 0))
    assert a.to_json() == b.to_json()
    c = run_dbd_trial(*args, PARAMS, derive_trial_seed(1, 1))
    assert a.seed != c.seed


def test_sample_oracle_counts_exactly():
    budget = ResourceBudget()
    oracle = SampleOracle(EchoInstance(), HashDrbg(1), budget)
    oracle.draw_pair()
    oracle.draw_input()
    assert budget.samples_used == 2


class FixedAnswers:
    sample_budget = 0

    def __init__(self, ys):
        self.ys = ys

    def mitigate(self, ctx, model, priv, xs):
        return self.ys, 0


class FixedFlag:
    def __init__(self, flag):
        self.flag = flag

    def detect(self, ctx, model, priv, xs):
        return self.flag


class ShareDetector:
    """Flags on the share of inputs outside the model's range, as ToyDetector does."""

    def detect(self, ctx, model, priv, xs):
        return int(sum(x == b"\xff" for x in xs) / len(xs) > 0.5)


class ModelTrainer:
    sample_budget = 0

    def __init__(self, model):
        self.model = model

    def train(self, ctx):
        return self.model, b""


def _model_down(x):
    raise RuntimeError("model down")


BATCH_4 = "fault: TypeError: batch is not a list of 4 bytes"
ANSWERS_4 = "fault: TypeError: answers is not a list of 4 bytes"


@pytest.mark.parametrize(
    "trainer, challenger, defense, party, reason",
    [
        pytest.param(EchoTrainer(), FixedChallenger([]), ShareDetector(), "attacker", BATCH_4,
                     id="empty-batch-detect"),
        pytest.param(EchoTrainer(), FixedChallenger([]), EchoMitigator(), "attacker", BATCH_4,
                     id="empty-batch-mitigate"),
        pytest.param(EchoTrainer(), FixedChallenger([None] * 4), EchoMitigator(), "attacker",
                     BATCH_4, id="none-in-batch"),
        pytest.param(EchoTrainer(), FixedChallenger([b"a"] * 3), FlagEverything(), "attacker",
                     BATCH_4, id="short-batch"),
        pytest.param(EchoTrainer(), NatureChallenger(), FixedAnswers([]), "mitigator",
                     ANSWERS_4, id="no-answers"),
        pytest.param(EchoTrainer(), NatureChallenger(), FixedAnswers([None] * 4), "mitigator",
                     ANSWERS_4, id="none-answers"),
        pytest.param(EchoTrainer(), NatureChallenger(), FixedFlag(7), "detector",
                     "fault: ValueError: flag 7 is not 0 or 1", id="flag-7"),
        pytest.param(EchoTrainer(), NatureChallenger(), FixedFlag(True), "detector",
                     "fault: ValueError: flag True is not 0 or 1", id="flag-bool"),
        pytest.param(ModelTrainer(_model_down), NatureChallenger(), FlagEverything(),
                     "trainer", "fault: RuntimeError: model down", id="model-raises"),
        pytest.param(ModelTrainer(lambda x: None), NatureChallenger(), FlagEverything(),
                     "trainer", "fault: TypeError: model answers is not a list of 4 bytes",
                     id="model-returns-none"),
    ],
)
def test_malformed_party_output_aborts_that_partys_trial(
    trainer, challenger, defense, party, reason
):
    run = run_dbm_trial if hasattr(defense, "mitigate") else run_dbd_trial
    t = run(EchoInstance(), trainer, challenger, defense, PARAMS, derive_trial_seed(0, 8), 8)
    assert (t.aborted, t.abort_reason) == (party, reason)
    assert t.flag is None and t.err_fx is None and t.err_y is None
    assert json.loads(t.to_json())["aborted"] == party


def test_instance_fault_fails_the_trial_instead_of_aborting_it():
    """An instance without `sample_input` is a harness bug, not nature's abort."""

    class PairOnlyInstance:
        sample_pair = EchoInstance.sample_pair
        h = EchoInstance.h

    with pytest.raises(HarnessFault, match="sample_input: AttributeError") as info:
        run_dbd_trial(
            PairOnlyInstance(), EchoTrainer(), NatureChallenger(), FlagEverything(),
            PARAMS, derive_trial_seed(0, 6),
        )
    assert isinstance(info.value.__cause__, AttributeError)


def test_evaluate_rates_needs_30():
    with pytest.raises(ValueError):
        evaluate_rates(lambda i: None, 10, lambda t: True)

    def runner(i):
        return run_dbd_trial(
            EchoInstance(), EchoTrainer(), NatureChallenger(), FlagEverything(),
            PARAMS, derive_trial_seed(2, i), i,
        )

    est = evaluate_rates(runner, 30, completeness_violation)
    assert est.point == 1.0 and est.trials == 30
