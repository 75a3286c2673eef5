"""Ladder agents: trainer grid, model, self-iteration attack, mitigator."""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter

import pytest

import detmit.crypto as crypto
from detmit import cli
from detmit.core import (
    ATTACKER,
    AbortTrial,
    GameParams,
    NatureChallenger,
    ResourceBudget,
    SampleOracle,
    TrialCtx,
    run_dbd_trial,
    run_dbm_trial,
    soundness_violation,
)
from detmit.crypto import CountProver, ProofToken, sig_verify, snark_extract, snark_verify
from detmit.drbg import HashDrbg, derive_trial_seed
from detmit.payloads import ClearPayload, decode_payload, encode_payload
from detmit.sampleagents import (
    DataModel,
    FrequencyDetector,
    LadderPriv,
    LadderTrainer,
    LevelThresholdDetector,
    NeverFlagDetector,
    ProofExtendingMitigator,
    SelfIterationAttacker,
    WellFormedDetector,
)
from detmit.sampletask import grid_levels, make_data_instance, next_level
from testkit import (
    FixedChallenger,
    KeepTrained,
    ReadEveryDrawAttacker,
    build_clear_input,
    build_enc_input,
    ladder_detectors,
    needs_met_at,
)

INST = make_data_instance(31)
PARAMS = GameParams(q=1)


def ctx_for(agent, label="test", seed=0):
    rng = HashDrbg(derive_trial_seed(seed, 0)).child(label)
    budget = ResourceBudget(samples_allowed=getattr(agent, "sample_budget", None))
    return TrialCtx(SampleOracle(INST, rng, budget), rng.child("local"), PARAMS, INST)


def train(level_target, seed=0):
    trainer = LadderTrainer(level_target)
    return trainer.train(ctx_for(trainer, "trainer", seed))


def test_grid_levels_frozen():
    assert grid_levels(16) == [4, 8, 12, 16]
    assert grid_levels(64) == [8, 16, 24, 32, 40, 48, 56, 64]
    assert grid_levels(2) == [1, 2]
    # non-square targets still cover the whole range below the target
    assert grid_levels(10) == [3, 6, 9]


def test_trainer_builds_grid_model():
    model, priv = train(16)
    assert priv.prover is not None
    assert len(priv.tokens) == 16
    assert sorted(priv.table) == [4, 8, 12, 16]
    assert model.cap == 16
    for lvl, proof in priv.table.items():
        assert snark_verify(INST.snark, lvl, proof)


def test_model_answers_clear_inputs():
    model, _ = train(16)
    rng = HashDrbg(b"model-clear")
    for k in (1, 4, 7, 12):
        xb = build_clear_input(INST, k, rng)
        yb = model(xb)
        yp = decode_payload(yb)
        assert isinstance(yp, ClearPayload)
        assert yp.level == min(l for l in model.levels if l >= next_level(k))
        assert yp.token == decode_payload(xb).token  # echoes the input token
        assert INST.h(xb, yb) == 0
    # top of coverage: k=13 needs level 16, still answerable
    top = build_clear_input(INST, 13, rng)
    assert INST.h(top, model(top)) == 0


def test_model_bottoms_past_cap():
    model, _ = train(16)
    rng = HashDrbg(b"model-cap")
    xb = build_clear_input(INST, 14, rng)  # needs 17 > 16
    assert decode_payload(model(xb)) is None
    assert INST.h(xb, model(xb)) == 1


def test_model_answers_encrypted_inputs():
    model, _ = train(16)
    rng = HashDrbg(b"model-enc")
    for k in (1, 3, 9):
        xb = build_enc_input(INST, k, rng)
        assert INST.h(xb, model(xb)) == 0
    # encrypted past the cap comes back as encrypted BOTTOM: still wrong
    xb = build_enc_input(INST, 14, rng)
    assert INST.h(xb, model(xb)) == 1


def test_model_bottoms_on_garbage():
    model, _ = train(16)
    out = model(b"\xffnot a payload")
    assert decode_payload(out) is None


def test_dummy_model_when_draws_too_thin():
    trainer = LadderTrainer(100)
    trainer.sample_budget = 100  # 100 draws, ~50 clear
    model, priv = trainer.train(ctx_for(trainer, "thin"))
    assert priv.prover is None and not model.levels
    rng = HashDrbg(b"dummy")
    assert decode_payload(model(build_clear_input(INST, 1, rng))) is None


def test_attack_query_counts_frozen():
    """Grid climb is deterministic: 3*sqrt(K)/4 + 1-ish queries, frontier K."""
    for K, expected_queries in ((16, 5), (64, 9)):
        trainer = LadderTrainer(K)
        atk = SelfIterationAttacker()
        det = NeverFlagDetector()
        seen = 0
        for i in range(12):
            t = run_dbd_trial(INST, trainer, atk, det, PARAMS, derive_trial_seed(40 + K, i), i)
            if t.aborted:
                continue
            seen += 1
            assert t.notes["queries"] == expected_queries
            assert t.notes["level"] == K
            assert t.ledgers["attacker"]["queries"] == expected_queries
            assert t.ledgers["attacker"]["samples_used"] == 8
            if t.notes["output_encrypted"]:
                assert t.err_fx == 1.0  # the frontier payload defeats the model
            else:
                assert t.err_fx == 0.0  # replayed nature draw
        assert seen >= 10


def test_attack_aborts_on_unlucky_mix():
    trainer = LadderTrainer(16)
    atk = SelfIterationAttacker()
    det = NeverFlagDetector()
    aborted = [
        i
        for i in range(128)
        if run_dbd_trial(
            INST, trainer, atk, det, PARAMS, derive_trial_seed(50, i), i
        ).aborted == "attacker"
    ]
    # abort probability is 10/256 ~ 3.9%; 128 trials should show a few
    assert 1 <= len(aborted) <= 20


def _attack_trial(cfg, instance, i, attacker):
    """Trial `i` of `cfg`'s attack batch, as `cli.run_trial` plays it, with `attacker`."""
    seed = derive_trial_seed(cfg.master_seed, i)
    trainer, _, defense = cli.build_parties(cfg)
    runner = run_dbd_trial if cfg.game == "detect" else run_dbm_trial
    return runner(instance.world(seed), trainer, attacker, defense, cfg.params(), seed, i)


@pytest.mark.parametrize("k", [16, 400])
@pytest.mark.parametrize("game", ["detect", "mitigate"])
def test_attacker_reads_only_the_draws_it_uses(monkeypatch, k, game):
    """The attacker's trials equal those of one that reads every draw of its budget.

    It makes one input draw per draw up to the one that meets its needs (a clear
    draw and a second shipped key), or its whole budget when none does, and
    charges the rest unread: the ledgers, notes, abort reasons, batches and
    answers stay the same.
    """
    calls, draw_input = [0], SampleOracle.draw_input

    def counted(oracle):  # in these games only the attacker draws inputs
        calls[0] += 1
        return draw_input(oracle)

    monkeypatch.setattr(SampleOracle, "draw_input", counted)
    defense = {"detector": "well_formed"} if game == "detect" else {}
    instance, outcomes = make_data_instance(17), Counter()
    for budget in (0, 1, 2, 3, 8, 64):
        cfg = cli.ExperimentConfig(
            game=game, challenger="attack", level_target=k, attacker_samples=budget,
            master_seed=budget, **defense,
        )
        for i in range(6):
            ref = ReadEveryDrawAttacker(budget)
            want = _attack_trial(cfg, instance, i, ref)
            assert calls[0] == budget
            calls[0] = 0
            got = _attack_trial(cfg, instance, i, SelfIterationAttacker(budget))
            met = needs_met_at(ref.draws)
            assert calls[0] == (budget if met is None else met)
            calls[0] = 0
            assert got.to_json() == want.to_json()
            assert got.abort_reason == want.abort_reason
            assert (got.challenge, got.response) == (want.challenge, want.response)
            for note in ("queries", "level", "output_encrypted"):
                assert got.notes.get(note) == want.notes.get(note)
            assert got.ledgers["attacker"]["samples_used"] == budget
            outcomes[want.aborted, met is None] += 1
    # every budget under 3 aborts; the larger ones mostly climb
    assert outcomes[None, False] >= 12 and outcomes["attacker", True] >= 18


def _attack_trial_peak(attacker_samples):
    """The transcript and traced peak bytes of one K=16 attack trial."""
    cfg = cli.ExperimentConfig(
        challenger="attack", detector="well_formed", attacker_samples=attacker_samples
    )
    instance = cli.build_instance(cfg)
    tracemalloc.start()
    try:
        t = cli.run_trial(cfg, instance, 0)
        return t, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_attack_trial_costs_the_same_at_any_budget():
    """At the largest budget the CLI takes, the attacker spends all of it, and its trial
    peaks at under twice the traced memory of a trial at the default 8."""
    small, small_peak = _attack_trial_peak(8)
    big, big_peak = _attack_trial_peak(cli.MAX_ATTACKER_SAMPLES)
    assert small.aborted is None and big.aborted is None
    assert big.ledgers["attacker"]["samples_used"] == cli.MAX_ATTACKER_SAMPLES == 16_384
    assert big.challenge == small.challenge
    assert big_peak < 2 * small_peak


def test_mitigator_extends_answerable_range():
    model, priv = train(16)
    mit = ProofExtendingMitigator(16)
    assert mit.strip == 8 and mit.sample_budget == 32
    rng = HashDrbg(b"mit")
    xs = [build_clear_input(INST, k, rng) for k in (5, 14, 17, 20, 21)]
    ys, flag = mit.mitigate(ctx_for(mit, "mit"), model, priv, xs)
    assert flag == 0
    # k=5 answered from the grid; 14..20 via exact strip proofs; 21 is out
    assert [INST.h(x, y) for x, y in zip(xs, ys)] == [0, 0, 0, 0, 1]
    yp = decode_payload(ys[3])  # k=20 -> exact level 24
    assert yp.level == next_level(20) == 24
    assert yp.token == decode_payload(xs[3]).token


def test_mitigator_handles_encrypted_and_garbage():
    model, priv = train(16)
    mit = ProofExtendingMitigator(16)
    rng = HashDrbg(b"mit-enc")
    xs = [build_enc_input(INST, 18, rng), b"junk"]
    ys, flag = mit.mitigate(ctx_for(mit, "mit-enc"), model, priv, xs)
    assert INST.h(xs[0], ys[0]) == 0  # answered inside the encryption
    assert decode_payload(ys[1]) is None


def test_mitigator_defeats_the_self_iteration_attack():
    trainer = LadderTrainer(16)
    atk = SelfIterationAttacker()
    mit = ProofExtendingMitigator(16)
    violations = 0
    for i in range(25):
        t = run_dbm_trial(INST, trainer, atk, mit, PARAMS, derive_trial_seed(60, i), i)
        if t.aborted:
            continue
        violations += soundness_violation(t, PARAMS.epsilon)
        assert t.err_y == 0.0
    assert violations == 0


def test_mitigator_answers_below_k_when_grid_stops_short():
    # K=10: grid {3, 6, 9}, strip {11..16}; a level-8 input needs level 10
    assert grid_levels(10) == [3, 6, 9]
    rng = HashDrbg(b"mit-short-grid")
    xs = [build_clear_input(INST, 8, rng), build_enc_input(INST, 8, rng)]
    t = run_dbm_trial(
        INST, LadderTrainer(10), FixedChallenger(xs),
        ProofExtendingMitigator(10), GameParams(q=len(xs)), derive_trial_seed(62, 0),
    )
    assert t.aborted is None
    assert t.err_fx == 1.0  # the grid model alone cannot answer either input
    assert t.err_y == 0.0 and t.flag == 0
    assert decode_payload(t.response[0]).level == 11  # smallest proved level >= 10


def test_mitigator_aborts_on_dummy_model():
    mit = ProofExtendingMitigator(16)
    trainer = LadderTrainer(100)
    trainer.sample_budget = 100
    t = run_dbm_trial(
        INST, trainer, NatureChallenger(), mit, PARAMS, derive_trial_seed(61, 0)
    )
    assert t.aborted == "mitigator"


def test_mitigator_aborts_when_its_draws_hold_too_few_fresh_tokens():
    """K=1: a strip of 2 from 8 draws fails when at most one draw is clear, 9/256 of trials."""
    mit = ProofExtendingMitigator(1)
    assert mit.strip == 2 and mit.sample_budget == 8
    trials = [
        run_dbm_trial(INST, LadderTrainer(1), NatureChallenger(), mit, PARAMS,
                      derive_trial_seed(64, i), i)
        for i in range(200)
    ]
    short = ("mitigator", "too few fresh tokens for the strip")
    aborts = Counter((t.aborted, t.abort_reason) for t in trials if t.aborted)
    # the only other abort: none of the trainer's 4 draws is clear, 1/16 of trials
    assert set(aborts) <= {short, ("mitigator", "trainer produced a dummy model")}
    assert 1 <= aborts[short] <= 20
    for t in trials:
        if (t.aborted, t.abort_reason) == short:
            assert t.ledgers["mitigator"]["samples_used"] == mit.sample_budget


class UncheckedProverMitigator(ProofExtendingMitigator):
    """Proves the strip on a prover over the trainer's tokens that has checked none."""

    def mitigate(self, ctx, model, priv, xs):
        unchecked = CountProver(priv.prover.params, priv.tokens)
        return super().mitigate(ctx, model, dataclasses.replace(priv, prover=unchecked), xs)


def test_mitigator_checks_each_witness_token_once_per_trial(monkeypatch):
    checked = Counter()

    def counting_verify(vk, tok):
        checked[tok] += 1
        return sig_verify(vk, tok)

    monkeypatch.setattr(crypto, "sig_verify", counting_verify)
    k, completed = 16, 0
    for i in range(8):
        seed = derive_trial_seed(63, i)
        runs = []
        for mitigator in (ProofExtendingMitigator, UncheckedProverMitigator):
            world = INST.world(seed)
            trainer = KeepTrained(LadderTrainer(k))
            checked.clear()
            t = run_dbm_trial(
                world, trainer, SelfIterationAttacker(), mitigator(k),
                PARAMS, seed, i,
            )
            witnesses = {
                (d, tok): snark_extract(world.snark, ProofToken(tok, d))
                for d, tok in world.snark.registry_entries()
            }
            runs.append((t, sum(checked.values()), witnesses, trainer.priv))
            if mitigator is ProofExtendingMitigator:
                # every token of every witness registered in the trial was checked once
                assert all(checked[tok] == 1 for w in witnesses.values() for tok in w)
        (t, checks, witnesses, priv), (t0, checks0, witnesses0, _) = runs
        assert t.to_json() == t0.to_json() and witnesses == witnesses0
        if t.aborted is None:
            completed += 1
            # the trainer checked all k of its tokens; the mitigator checks none again
            assert len(priv.tokens) == k and checks0 - checks == k
    assert completed >= 6


# --- baseline detectors -------------------------------------------------------


def test_level_threshold_detector():
    model, priv = train(16)
    det = LevelThresholdDetector()
    rng = HashDrbg(b"det")
    high = build_clear_input(INST, 20, rng)
    low = build_clear_input(INST, 5, rng)
    enc = build_enc_input(INST, 20, rng)
    ctx = ctx_for(det)
    assert det.detect(ctx, model, priv, [high]) == 1
    assert det.detect(ctx, model, priv, [low]) == 0
    assert det.detect(ctx, model, priv, [enc]) == 0  # cannot see inside


def test_frequency_detector_margins():
    det = FrequencyDetector()
    rng = HashDrbg(b"freq")
    enc = build_enc_input(INST, 2, rng)
    clear = build_clear_input(INST, 2, rng)
    ctx = ctx_for(det)
    assert det.detect(ctx, None, None, [enc]) == 0  # q=1 margin exceeds 1/2
    assert det.detect(ctx, None, None, [enc] * 16) == 1  # 16 sigma-ish drift
    assert det.detect(ctx, None, None, [enc] * 8 + [clear] * 8) == 0


def test_well_formed_detector():
    model, priv = train(16)
    det = WellFormedDetector()
    rng = HashDrbg(b"wf")
    good = build_clear_input(INST, 3, rng)
    ctx = ctx_for(det)
    assert det.detect(ctx, model, priv, [good]) == 0
    assert det.detect(ctx, model, priv, [b"garbage"]) == 1
    x = decode_payload(good)
    forged = ClearPayload(x.token, x.level + 1, x.proof)
    assert det.detect(ctx, model, priv, [encode_payload(forged, INST.width)]) == 1


def test_baseline_detectors_complete_on_nature():
    dets = ladder_detectors()
    assert set(dets) == {"never_flag", "level_threshold", "frequency", "well_formed"}
    trainer = LadderTrainer(16)
    for i in range(10):
        t = run_dbd_trial(
            INST, trainer, NatureChallenger(), dets["well_formed"], PARAMS,
            derive_trial_seed(70, i), i,
        )
        assert t.flag == 0


class ReplayForger:
    """Zero-query forger: a clear draw replayed at level + 1 with its old proof."""

    origin = ATTACKER
    sample_budget = 8

    def challenge(self, ctx, model):
        for _ in range(self.sample_budget):
            p = decode_payload(ctx.oracle.draw_input())
            if isinstance(p, ClearPayload):
                forged = ClearPayload(p.token, p.level + 1, p.proof)
                return [encode_payload(forged, INST.width)] * ctx.params.q
        raise AbortTrial(ATTACKER, "no clear draw")


def test_mitigation_sound_against_a_replay_forger():
    trainer, mitigator = LadderTrainer(16), ProofExtendingMitigator(16)
    done = []
    for i in range(12):
        t = run_dbm_trial(
            INST, trainer, ReplayForger(), mitigator, PARAMS, derive_trial_seed(71, i), i
        )
        if t.aborted is None:
            done.append(t)
            assert not soundness_violation(t, PARAMS.epsilon)
            assert t.err_y == 0.0
    assert len(done) >= 8
