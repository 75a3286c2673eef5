"""Hash-chain task: metered sequential work, grid model, audits."""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmit import sampletask, timetask
from detmit.cli import ExperimentConfig, build_instance, run_batch
from detmit.core import (
    GameParams,
    NatureChallenger,
    run_dbd_trial,
    run_dbm_trial,
)
from detmit.crypto import IvcProof, StepMeter, ivc_verify, npl_step, sha256
from detmit.drbg import HashDrbg, derive_trial_seed
from detmit.payloads import TimePayload, bottom, decode_payload, encode_payload
from detmit.sampleagents import NeverFlagDetector
from detmit.timetask import (
    ChainClimbingAttacker,
    ChainExtendingMitigator,
    TimeModel,
    TimeTaskInstance,
    TimeTrainer,
    audit_conservation,
    audit_sequential_reach,
    make_time_instance,
)
from testkit import FixedChallenger, KeepTrained

PARAMS = GameParams(q=1)


@pytest.fixture()
def inst():
    return make_time_instance(b"chain-tests", horizon=256)


def test_instance_precomputes_exactly_reach_steps(inst):
    assert inst.reach == 272
    assert inst.ivc.steps_run == 272  # no trial has run on the fixture yet
    p = inst.payload_at(10)
    assert ivc_verify(inst.ivc, 10, p.config, p.proof)
    # canonical chain check
    s = inst.start_state
    for _ in range(10):
        s = npl_step(s)
    assert p.config == s


def test_instance_chain_equals_written_out_steps(inst):
    """The one-run build registers what `reach` single steps did, and
    `payload_at` reads the same points back from the known chain."""
    keys = inst.ivc
    state, commitment = inst.start_state, keys._commit(keys.base_tag, 0, inst.start_state)
    expected = [(0, state, commitment)]
    for t in range(1, inst.reach + 1):
        state = npl_step(state)
        commitment = keys._commit(commitment, t, state)
        expected.append((t, state, commitment))
    assert keys.registry_entries() == sorted(expected)
    assert len(keys._known) == inst.reach + 1
    assert [inst.payload_at(t) for t in range(inst.reach + 1)] == [
        TimePayload(t, s, IvcProof(t, c)) for t, s, c in expected
    ]
    for t in (-1, inst.reach + 1):
        with pytest.raises(ValueError, match="outside precomputed chain"):
            inst.payload_at(t)


def test_honest_trials_run_along_the_known_chain(inst):
    """Every honest run lies on the instance's chain below its tip: trials
    charge their steps to their own meters but hash, append and count nothing."""
    entries = inst.ivc.registry_entries()
    for i in range(3):
        t = run_dbm_trial(
            inst, TimeTrainer(inst.horizon), ChainClimbingAttacker(inst.horizon),
            ChainExtendingMitigator(), PARAMS, derive_trial_seed(89, i), i,
        )
        assert t.aborted is None and t.ledgers["trainer"]["steps_used"] == 256
    assert inst.ivc.steps_run == 272
    assert inst.ivc.registry_entries() == entries
    assert len(inst.ivc._known) == inst.reach + 1


@pytest.mark.parametrize("game", ["detect", "mitigate"])
@pytest.mark.parametrize("challenger", ["nature", "attack"])
def test_an_honest_batch_leaves_the_chain_keys_as_built(game, challenger):
    """A batch writes nothing to the chain keys: its instance ends with the
    chain points and `steps_run` of a freshly built one."""
    cfg = ExperimentConfig(
        task="chain", game=game, challenger=challenger, trials=3, horizon=256,
        instance_seed=31, master_seed=37,
    )
    fresh = build_instance(cfg).ivc
    instance, batch = run_batch(cfg)
    assert all(t.aborted is None for t in batch)
    assert instance.ivc.registry_entries() == fresh.registry_entries()
    assert instance.ivc.steps_run == fresh.steps_run == instance.reach


def test_conservation_is_tight_after_a_batch():
    """After a batch, one canonical point appended with no step behind it
    fails the conservation audit: the keys count only the steps they hashed,
    not the steps honest runs read back from the known chain."""
    cfg = ExperimentConfig(
        task="chain", game="mitigate", challenger="attack", trials=5, horizon=256,
        instance_seed=41, master_seed=43,
    )
    instance, batch = run_batch(cfg)
    assert all(t.aborted is None for t in batch)
    assert audit_conservation(instance) and audit_sequential_reach(instance)
    keys = instance.ivc
    state, commitment = keys.known_point(instance.reach)
    beyond = npl_step(state)
    keys._known.append((beyond, keys._commit(commitment, instance.reach + 1, beyond)))
    assert not audit_conservation(instance)
    assert audit_sequential_reach(instance)  # the point itself is genuine


def test_chain_instance_stores_each_step_once():
    """The built chain holds one (state, commitment) pair per step and
    nothing beside it: at most 250 B per step at horizon 4096."""
    tracemalloc.start()
    try:
        inst = TimeTaskInstance(b"chain-memory", 4096)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size / inst.reach <= 250


def test_audits_catch_registry_points_without_work():
    """Chain points forged straight into the keys, with no update behind them."""
    inst = TimeTaskInstance(b"audit-forgery", horizon=16)
    assert audit_conservation(inst) and audit_sequential_reach(inst)
    # the next canonical point, appended with no step behind it
    beyond = npl_step(inst.payload_at(inst.reach).config)
    inst.ivc._known.append((beyond, b"c" * 32))
    assert not audit_conservation(inst)
    assert audit_sequential_reach(inst)

    # an off-chain point, appended or written over a chain point
    inst = TimeTaskInstance(b"audit-forgery", horizon=16)
    inst.ivc._known.append((sha256(b"off-chain"), b"c" * 32))
    assert not audit_conservation(inst)
    assert not audit_sequential_reach(inst)
    # written over, the point verifies, but the audit recomputes the chain
    inst = TimeTaskInstance(b"audit-forgery", horizon=16)
    inst.ivc._known[3] = (sha256(b"off-chain"), b"c" * 32)
    assert ivc_verify(inst.ivc, 3, sha256(b"off-chain"), IvcProof(3, b"c" * 32))
    assert audit_conservation(inst)
    assert not audit_sequential_reach(inst)


def test_conservation_holds_the_points_past_the_base_to_the_hashed_steps():
    """The audit holds `len(keys) - 1`, the known points past the base, to the steps
    the keys hashed: points appended past the tip with no update behind them fail,
    and pass once as many steps are counted."""
    inst, forged = TimeTaskInstance(b"audit-forgery", horizon=16), 3
    keys, state = inst.ivc, inst.payload_at(inst.reach).config
    for _ in range(forged):
        state = npl_step(state)
        keys._known.append((state, b"c" * 32))
    assert len(keys) == len(keys.registry_entries()) == inst.reach + 1 + forged
    assert keys.steps_run == inst.reach
    assert not audit_conservation(inst)
    keys.steps_run += forged  # as if an update had hashed them
    assert audit_conservation(inst)


def _traced_peak(horizon: int, read) -> int:
    """Traced peak bytes while `read` runs on a chain instance of `horizon`, built first."""
    inst = TimeTaskInstance(b"chain-rows", horizon)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        read(inst)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _consume_public_rows(inst: TimeTaskInstance) -> None:
    _, _, rows = inst.public_state()
    for _ in rows:
        pass


def test_the_public_rows_are_made_one_at_a_time():
    """Reading the public file's chain rows holds one row at a time: the traced peak
    while they are consumed at horizon 2**14 is under twice the peak at 2**10."""
    _traced_peak(16, _consume_public_rows)  # first-call caches, outside both measures
    small, big = (_traced_peak(h, _consume_public_rows) for h in (2**10, 2**14))
    assert big < 2 * small, (small, big)


def test_the_sequential_reach_audit_holds_one_point_at_a_time():
    """The audit walks the known chain beside its recomputation, building no list of
    either: its traced peak at horizon 2**14 is under twice the peak at 2**10."""
    _traced_peak(16, audit_sequential_reach)  # first-call caches, outside both measures
    small, big = (_traced_peak(h, audit_sequential_reach) for h in (2**10, 2**14))
    assert big < 2 * small, (small, big)


def test_sequential_reach_audit_checks_the_largest_step_count():
    """A forged point at the largest step count fails the audit, written over
    the genuine point there or appended past it."""
    genuine = TimeTaskInstance(b"audit-top", horizon=16)
    top = genuine.ivc.registry_entries()[-1][0]
    assert top == genuine.reach and audit_sequential_reach(genuine)
    for t in (top, top + 1):
        inst = TimeTaskInstance(b"audit-top", horizon=16)
        point = (sha256(b"off-chain"), b"c" * 32)
        if t == top:
            inst.ivc._known[t] = point
        else:
            inst.ivc._known.append(point)
        assert inst.ivc.registry_entries()[-1][:2] == (t, point[0])
        assert not audit_sequential_reach(inst)


def test_sequential_reach_fails_a_corrupted_known_chain():
    """After honest trials the audit passes, and fails once any known point
    is overwritten: the known chain is the keys' only store."""
    inst = TimeTaskInstance(b"audit-corrupt", horizon=64)
    trainer = TimeTrainer(inst.horizon)
    for i in range(2):
        run_dbm_trial(
            inst, trainer, ChainClimbingAttacker(inst.horizon), ChainExtendingMitigator(),
            PARAMS, derive_trial_seed(89, i), i,
        )
    assert audit_sequential_reach(inst)
    known = inst.ivc._known
    for t in (1, len(known) // 2, len(known) - 1):
        state, commitment = known[t]
        known[t] = (sha256(b"junk" + state), commitment)
        assert not audit_sequential_reach(inst)
        known[t] = (state, commitment)
        assert audit_sequential_reach(inst)


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
    trainer = KeepTrained(TimeTrainer(inst.horizon))
    t = run_dbm_trial(
        inst, trainer, NatureChallenger(), ChainExtendingMitigator(),
        PARAMS, derive_trial_seed(80, 0), 0,
    )
    assert t.aborted is None
    assert t.ledgers["trainer"]["steps_used"] == 256
    assert t.ledgers["trainer"]["samples_used"] == 0
    model = trainer.model
    assert model.levels == [16 * j for j in range(1, 17)]
    assert model.cap == 256


def test_model_answers_from_grid(inst):
    trainer = KeepTrained(TimeTrainer(inst.horizon))
    t = run_dbm_trial(
        inst, trainer, NatureChallenger(), ChainExtendingMitigator(),
        PARAMS, derive_trial_seed(80, 1), 0,
    )
    model = trainer.model
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


RECALL = make_time_instance(b"recall", horizon=64)
_, RECALL_TABLE = TimeTrainer(RECALL.horizon).train(SimpleNamespace(meter=StepMeter(), task=RECALL))
OTHER = make_time_instance(b"recall-other", horizon=64)
OTHER_MODEL, _ = TimeTrainer(OTHER.horizon).train(SimpleNamespace(meter=StepMeter(), task=OTHER))
CORE = 101  # a chain payload's core; the rest of an answer is zero padding
QUERY_KINDS = ["input", "own", "core byte", "padding byte", "other", "arbitrary"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_model_answers_like_a_memoryless_one(data):
    """A model that keeps its answers answers every query as a fresh one would.

    Queries mix honest inputs, the model's own answers (BOTTOM too), those
    answers with a core byte changed or a padding byte made nonzero, another
    instance's answers and arbitrary bytes.
    """
    model = TimeModel(RECALL, RECALL_TABLE)
    answered: list[bytes] = []
    for _ in range(data.draw(st.integers(1, 24), label="queries")):
        kind = data.draw(st.sampled_from(QUERY_KINDS), label="kind")
        if kind == "other":
            x = OTHER_MODEL(OTHER.build_input(data.draw(st.integers(1, OTHER.horizon))))
        elif kind == "arbitrary":
            x = data.draw(st.binary(max_size=RECALL.width + 8), label="bytes")
        elif kind == "input" or not answered:
            x = RECALL.build_input(data.draw(st.integers(1, RECALL.reach), label="steps"))
        else:
            x = bytearray(data.draw(st.sampled_from(answered), label="answer"))
            if kind != "own":
                at = st.integers(0, CORE - 1) if kind == "core byte" else st.integers(CORE, len(x) - 1)
                x[data.draw(at, label="at")] ^= data.draw(st.integers(1, 255), label="flip")
            x = bytes(x)
        y = model(x)
        assert y == TimeModel(RECALL, RECALL_TABLE)(x)
        answered.append(y)


def test_attack_numbers_frozen(inst):
    trainer = TimeTrainer(inst.horizon)
    atk = ChainClimbingAttacker(inst.horizon)
    mit = ChainExtendingMitigator()
    t = run_dbm_trial(inst, trainer, atk, mit, PARAMS, derive_trial_seed(81, 0), 0)
    assert t.aborted is None
    assert t.notes["queries"] == 17  # climb 1 -> 16 -> 32 -> ... -> 256, then fail
    assert t.notes["level"] == 256
    assert t.ledgers["attacker"]["steps_used"] == 1  # one genuine step, ever
    assert t.ledgers["attacker"]["queries"] == 17
    # the mitigator survives the frontier payload: extends 256 -> 272
    assert t.err_y == 0.0 and t.flag == 0
    assert t.ledgers["mitigator"]["steps_used"] == 16


class _RefundingMitigator(ChainExtendingMitigator):
    """Tries to hand itself a step back before doing the honest work."""

    def mitigate(self, ctx, model, priv, xs):
        ctx.meter.charge(-1)
        return super().mitigate(ctx, model, priv, xs)


def test_a_negative_step_charge_aborts_the_party_that_made_it(inst):
    mit = _RefundingMitigator()
    assert mit.step_budget is None  # no limit clamps the charge
    t = run_dbm_trial(
        inst, TimeTrainer(inst.horizon), ChainClimbingAttacker(inst.horizon), mit,
        PARAMS, derive_trial_seed(81, 0), 0,
    )
    assert t.aborted == "mitigator"
    assert t.abort_reason == "fault: ValueError: steps must be >= 0, got -1"
    assert t.err_y is None and t.flag is None
    assert all(ledger["steps_used"] >= 0 for ledger in t.ledgers.values())


def test_attack_defeats_the_grid_model(inst):
    """Against a detection-style defense the frontier payload is a violation."""
    from detmit.sampleagents import NeverFlagDetector
    from detmit.core import run_dbd_trial

    trainer = TimeTrainer(inst.horizon)
    atk = ChainClimbingAttacker(inst.horizon)
    t = run_dbd_trial(
        inst, trainer, atk, NeverFlagDetector(), PARAMS, derive_trial_seed(81, 1), 0
    )
    assert t.err_fx == 1.0 and t.flag == 0


def test_attack_trial_reads_each_payload_once(inst, monkeypatch):
    """The model reads a query equal to its own answer without a decode or a
    check, and the attacker sends the bytes of its last accepted answer.

    Beyond one decode and one check per query, a trial adds the model's first
    query and `h` on the one challenge input; every encode is the attacker's
    step-1 payload or an answer of the model.
    """
    calls = {"decode": 0, "encode": 0, "verify": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    decode, encode = counting("decode", decode_payload), counting("encode", encode_payload)
    for module in (timetask, sampletask):  # the climb runs in `sampletask`
        monkeypatch.setattr(module, "decode_payload", decode)
        monkeypatch.setattr(module, "encode_payload", encode)
    monkeypatch.setattr(timetask, "ivc_verify", counting("verify", ivc_verify))
    for i in range(3):
        calls.update(dict.fromkeys(calls, 0))
        t = run_dbd_trial(
            inst, TimeTrainer(inst.horizon), ChainClimbingAttacker(inst.horizon),
            NeverFlagDetector(), PARAMS, derive_trial_seed(81, i), i,
        )
        queries = t.notes["queries"]
        assert t.aborted is None and queries == 17 and t.err_fx == 1.0
        assert calls["decode"] == queries + 3 and calls["verify"] <= queries + 3
        assert calls["encode"] == queries  # 16 answers and the step-1 payload


def test_mitigator_cost_is_exactly_sqrt(inst):
    trainer = TimeTrainer(inst.horizon)
    mit = ChainExtendingMitigator()
    for i, t_level in enumerate((1, 4, 100, 256)):
        tr = run_dbm_trial(
            inst, trainer, FixedChallenger([inst.build_input(t_level)]), mit,
            PARAMS, derive_trial_seed(82, i), i,
        )
        expect = int(t_level**0.5)
        assert tr.ledgers["mitigator"]["steps_used"] == expect
        assert tr.err_y == 0.0


def test_step_ledgers_count_this_trial_only():
    """Trials reusing a trial id on one instance each report their own steps."""
    inst = TimeTaskInstance(b"ledger", horizon=64)
    expected_total = inst.ivc.steps_run
    for i in range(3):
        t = run_dbm_trial(
            inst, TimeTrainer(inst.horizon), NatureChallenger(), ChainExtendingMitigator(),
            PARAMS, derive_trial_seed(86, i),
        )
        assert t.aborted is None
        trainer, mitigator = t.ledgers["trainer"], t.ledgers["mitigator"]
        assert trainer["steps_used"] == trainer["steps_allowed"] == 64
        level = decode_payload(t.challenge[0]).steps
        assert mitigator["steps_used"] == int(level**0.5)
    # the keys count only the steps they hashed, and honest trials hash none
    assert inst.ivc.steps_run == expected_total == inst.reach
    assert audit_conservation(inst)


def test_mitigator_refuses_forged_chains_for_free(inst):
    mit = ChainExtendingMitigator()
    forged = TimePayload(9, b"s" * 32, IvcProof(9, b"c" * 32))
    xb = encode_payload(forged, inst.width)

    ctx = SimpleNamespace(meter=StepMeter(), task=inst)
    ys, flag = mit.mitigate(ctx, lambda x: x, None, [xb])
    assert decode_payload(ys[0]) is None and flag == 0
    assert ctx.meter.used == 0  # zero steps


@pytest.mark.parametrize("claimed", [100, 10**4])
def test_mitigator_refuses_relabeled_chains_for_free(inst, claimed):
    """A genuine step-9 proof shipped under another step count costs nothing.

    The proof verifies for step 9 only, so h scores the input 0 (forged); the
    mitigator must not run isqrt(claimed) steps on it.
    """
    genuine = inst.payload_at(9)
    relabeled = TimePayload(claimed, genuine.config, genuine.proof)
    xb = encode_payload(relabeled, inst.width)
    assert inst.h(xb, bottom(inst.width)) == 0
    entries = inst.ivc.registry_entries()
    ctx = SimpleNamespace(meter=StepMeter(), task=inst)
    ys, flag = ChainExtendingMitigator().mitigate(ctx, lambda x: x, None, [xb])
    assert ys == [bottom(inst.width)] and flag == 0
    assert ctx.meter.used == 0
    assert inst.ivc.registry_entries() == entries


def test_trainer_runs_out_of_steps_mid_run():
    """The trainer's 7th run of 8 steps is granted 2 of them, then it aborts."""
    inst = TimeTaskInstance(b"short-trainer", horizon=64)
    trainer = TimeTrainer(inst.horizon)
    trainer.step_budget = 50
    for _ in range(2):  # the same trial id twice: each move has its own limit
        t = run_dbm_trial(
            inst, trainer, NatureChallenger(), ChainExtendingMitigator(),
            PARAMS, derive_trial_seed(87, 0), 0,
        )
        assert t.aborted == "trainer"
        assert t.abort_reason == "step budget 50 exhausted"
        ledger = t.ledgers["trainer"]
        assert ledger["steps_used"] == ledger["steps_allowed"] == 50
        assert list(t.ledgers) == ["trainer"]
    assert audit_conservation(inst) and audit_sequential_reach(inst)


def test_mitigator_runs_out_of_steps_mid_run(inst):
    """A level-36 input needs a run of 6 steps; a budget of 2 grants 2."""
    mit = ChainExtendingMitigator()
    mit.step_budget = 2
    t = run_dbm_trial(
        inst, TimeTrainer(inst.horizon), FixedChallenger([inst.build_input(36)]), mit,
        PARAMS, derive_trial_seed(88, 0), 0,
    )
    assert t.aborted == "mitigator"
    assert t.abort_reason == "step budget 2 exhausted"
    ledger = t.ledgers["mitigator"]
    assert ledger["steps_used"] == ledger["steps_allowed"] == 2
    assert t.err_y is None and t.response is None
    assert audit_conservation(inst) and audit_sequential_reach(inst)


def test_step_budget_enforced(inst):
    trainer = TimeTrainer(inst.horizon)
    atk = ChainClimbingAttacker(inst.horizon)
    atk.step_budget = 0  # cannot even start
    t = run_dbm_trial(
        inst, trainer, atk, ChainExtendingMitigator(),
        PARAMS, derive_trial_seed(83, 0), 0,
    )
    assert t.aborted == "attacker"


def test_audits_pass_on_honest_runs(inst):
    trainer = TimeTrainer(inst.horizon)
    for i in range(3):
        run_dbm_trial(
            inst, trainer, ChainClimbingAttacker(inst.horizon), ChainExtendingMitigator(),
            PARAMS, derive_trial_seed(84, i), i,
        )
    assert audit_conservation(inst)
    assert audit_sequential_reach(inst)


def test_non_square_horizon_still_works():
    inst = make_time_instance(b"odd", horizon=200)
    rng = HashDrbg(b"odd-pairs")
    x, y = inst.sample_pair(rng)
    assert inst.h(x, y) == 0
    trainer = TimeTrainer(inst.horizon)
    t = run_dbm_trial(
        inst, trainer, NatureChallenger(), ChainExtendingMitigator(),
        PARAMS, derive_trial_seed(85, 0), 0,
    )
    assert t.aborted is None and t.ledgers["trainer"]["steps_used"] == 200
