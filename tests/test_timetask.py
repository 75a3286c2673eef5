"""Hash-chain task: metered sequential work, grid model, audits."""

from __future__ import annotations

import pytest

from detmit.core import (
    GameParams,
    NatureChallenger,
    run_dbm_trial,
)
from detmit.crypto import IvcProof, StepsExhausted, ivc_verify, npl_step
from detmit.drbg import HashDrbg, derive_trial_seed
from detmit.payloads import TimePayload, bottom, decode_payload, encode_payload
from detmit.timetask import (
    ChainClimbingAttacker,
    ChainExtendingMitigator,
    TimeTaskInstance,
    TimeTrainer,
    audit_conservation,
    audit_sequential_reach,
    make_time_instance,
)
from testkit import instance_steps

PARAMS = GameParams(q=1)


@pytest.fixture()
def inst():
    return make_time_instance(b"chain-tests", horizon=256)


def test_instance_precomputes_exactly_reach_steps(inst):
    assert inst.reach == 272
    assert instance_steps(inst) == 272
    p = inst.payload_at(10)
    assert ivc_verify(inst.ivc, 10, p.config, p.proof)
    # canonical chain check
    s = inst.start_state
    for _ in range(10):
        s = npl_step(s)
    assert p.config == s


def test_sample_pairs_verify(inst):
    rng = HashDrbg(b"pairs")
    for _ in range(16):
        x, y = inst.sample_pair(rng)
        assert inst.h(x, y) == 0


def test_h_rules(inst):
    x = inst.build_input(9)
    assert inst.h(x, bottom(inst.width)) == 1  # refusing an answerable input
    assert inst.h(x, inst.build_input(11)) == 1  # 11 < 9 + 3
    assert inst.h(x, inst.build_input(12)) == 0  # exactly the required level
    assert inst.h(x, inst.build_input(30)) == 0  # overshooting is fine
    assert inst.h(b"garbage", b"") == 0  # malformed input
    # forged input payload: off the hook too (nothing answerable was asked)
    forged = TimePayload(9, npl_step(b"x" * 32), IvcProof(9, b"c" * 32))
    assert inst.h(encode_payload(forged, inst.width), bottom(inst.width)) == 0
    # forged answer to a genuine input scores 1
    fake_y = TimePayload(12, b"y" * 32, IvcProof(12, b"c" * 32))
    assert inst.h(x, encode_payload(fake_y, inst.width)) == 1


def test_trainer_pays_horizon_and_snapshots_grid(inst):
    trainer = TimeTrainer(inst)
    t = run_dbm_trial(
        inst, trainer, NatureChallenger(), ChainExtendingMitigator(inst),
        PARAMS, derive_trial_seed(80, 0), 0,
    )
    assert t.aborted is None
    assert t.ledgers["trainer"]["steps_used"] == 256
    assert t.ledgers["trainer"]["samples_used"] == 0
    model = t.model
    assert model.levels == [16 * j for j in range(1, 17)]
    assert model.cap == 256


def test_model_answers_from_grid(inst):
    trainer = TimeTrainer(inst)
    t = run_dbm_trial(
        inst, trainer, NatureChallenger(), ChainExtendingMitigator(inst),
        PARAMS, derive_trial_seed(80, 1), 0,
    )
    model = t.model
    x = inst.build_input(9)  # needs 12 -> grid answers 16
    yp = decode_payload(model(x))
    assert yp.steps == 16
    assert inst.h(x, model(x)) == 0
    # past the grid: BOTTOM
    frontier = inst.build_input(256)  # needs 272 > 256
    assert decode_payload(model(frontier)) is None
    # forged inputs are refused
    forged = TimePayload(9, b"s" * 32, IvcProof(9, b"c" * 32))
    assert decode_payload(model(encode_payload(forged, inst.width))) is None


def test_attack_numbers_frozen(inst):
    trainer = TimeTrainer(inst)
    atk = ChainClimbingAttacker(inst)
    mit = ChainExtendingMitigator(inst)
    t = run_dbm_trial(inst, trainer, atk, mit, PARAMS, derive_trial_seed(81, 0), 0)
    assert t.aborted is None
    assert atk.last_query_count == 17  # climb 1 -> 16 -> 32 -> ... -> 256, then fail
    assert atk.last_level == 256
    assert t.ledgers["attacker"]["steps_used"] == 1  # one genuine step, ever
    assert t.ledgers["attacker"]["queries"] == 17
    # the mitigator survives the frontier payload: extends 256 -> 272
    assert t.err_y == 0.0 and t.flag == 0
    assert t.ledgers["mitigator"]["steps_used"] == 16


def test_attack_defeats_the_grid_model(inst):
    """Against a detection-style defense the frontier payload is a violation."""
    from detmit.sampleagents import NeverFlagDetector
    from detmit.core import run_dbd_trial

    trainer = TimeTrainer(inst)
    atk = ChainClimbingAttacker(inst)
    t = run_dbd_trial(
        inst, trainer, atk, NeverFlagDetector(), PARAMS, derive_trial_seed(81, 1), 0
    )
    assert t.err_fx == 1.0 and t.flag == 0


def test_mitigator_cost_is_exactly_sqrt(inst):
    trainer = TimeTrainer(inst)
    mit = ChainExtendingMitigator(inst)
    for i, t_level in enumerate((1, 4, 100, 256)):
        class Fixed:
            origin = "attacker"
            sample_budget = 0

            def __init__(self, xb):
                self.xb = xb

            def challenge(self, ctx, model):
                return [self.xb]

        tr = run_dbm_trial(
            inst, trainer, Fixed(inst.build_input(t_level)), mit,
            PARAMS, derive_trial_seed(82, i), i,
        )
        expect = int(t_level**0.5)
        assert tr.ledgers["mitigator"]["steps_used"] == expect
        assert tr.err_y == 0.0


def test_step_ledgers_count_this_trial_only():
    """Trials reusing a trial id on one instance each report their own steps."""
    inst = TimeTaskInstance(b"ledger", horizon=64)
    expected_total = inst.meter.total()
    for i in range(3):
        t = run_dbm_trial(
            inst, TimeTrainer(inst), NatureChallenger(), ChainExtendingMitigator(inst),
            PARAMS, derive_trial_seed(86, i),
        )
        assert t.aborted is None
        trainer, mitigator = t.ledgers["trainer"], t.ledgers["mitigator"]
        assert trainer["steps_used"] == trainer["steps_allowed"] == 64
        level = decode_payload(t.challenge[0]).steps
        assert mitigator["steps_used"] == int(level**0.5)
        expected_total += trainer["steps_used"] + mitigator["steps_used"]
    # the meter itself keeps every step, for the conservation audit
    assert inst.meter.total() == expected_total
    assert audit_conservation(inst)


def test_mitigator_refuses_forged_chains_for_free(inst):
    mit = ChainExtendingMitigator(inst)
    forged = TimePayload(9, b"s" * 32, IvcProof(9, b"c" * 32))
    xb = encode_payload(forged, inst.width)

    class Ctx:
        step_party = "forgery-check"

    before = inst.meter.snapshot().get("forgery-check", 0)
    ys, flag = mit.mitigate(Ctx(), lambda x: x, None, [xb])
    assert decode_payload(ys[0]) is None and flag == 0
    assert inst.meter.snapshot().get("forgery-check", 0) == before  # zero steps


def test_step_budget_enforced(inst):
    trainer = TimeTrainer(inst)
    atk = ChainClimbingAttacker(inst, step_budget=0)  # cannot even start
    t = run_dbm_trial(
        inst, trainer, atk, ChainExtendingMitigator(inst),
        PARAMS, derive_trial_seed(83, 0), 0,
    )
    assert t.aborted == "attacker"


def test_audits_pass_on_honest_runs(inst):
    trainer = TimeTrainer(inst)
    for i in range(3):
        run_dbm_trial(
            inst, trainer, ChainClimbingAttacker(inst), ChainExtendingMitigator(inst),
            PARAMS, derive_trial_seed(84, i), i,
        )
    assert audit_conservation(inst)
    assert audit_sequential_reach(inst)


def test_non_square_horizon_still_works():
    inst = make_time_instance(b"odd", horizon=200)
    rng = HashDrbg(b"odd-pairs")
    x, y = inst.sample_pair(rng)
    assert inst.h(x, y) == 0
    trainer = TimeTrainer(inst)
    t = run_dbm_trial(
        inst, trainer, NatureChallenger(), ChainExtendingMitigator(inst),
        PARAMS, derive_trial_seed(85, 0), 0,
    )
    assert t.aborted is None and t.ledgers["trainer"]["steps_used"] == 200
