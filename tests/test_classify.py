"""Toy classification task and the detection<->mitigation bridges."""

from __future__ import annotations

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from detmit.classify import (
    ATTACK_POOL,
    NATURE_POOL,
    DetectorFromMitigator,
    LazyMitigator,
    MitigatorFromDetector,
    ToyAttacker,
    ToyClassificationInstance,
    ToyDetector,
    ToyMitigator,
    ToyTrainer,
    derived_flag,
    make_toy_instance,
)
from detmit.core import (
    GameParams,
    NatureChallenger,
    run_dbd_trial,
    run_dbm_trial,
)
from detmit.drbg import HashDrbg, derive_trial_seed
from detmit.wire import be32
from testkit import (
    KeepTrained,
    estimate_model_err,
    implication_holds,
    implication_premise,
    toy_label,
)

PARAMS = GameParams(epsilon=0.05, q=32)
INST = make_toy_instance(11)


def test_labels_deterministic_and_binary():
    x = b"\x00\x00\x00\x01"
    assert toy_label(INST.salt, x) in (b"\x00", b"\x01")
    assert toy_label(INST.salt, x) == toy_label(INST.salt, x)
    assert INST.h(x, toy_label(INST.salt, x)) == 0
    assert INST.h(x, b"\x02") == 1
    assert INST.h(b"bad", b"\x00") == 1  # malformed input is never answered right


@given(
    salt=st.binary(min_size=16, max_size=16),
    seed=st.integers(0, 2**64),
    move=st.sampled_from(["take", "skip"]),
    offset=st.integers(0, 40),
    draws=st.integers(1, 6),
)
def test_toy_draws_match_a_written_out_reference(salt, seed, move, offset, draws):
    """Draws from the nature table equal randrange + toy_label, and move the stream as far."""
    inst = ToyClassificationInstance(salt=salt)
    got, want = HashDrbg(seed), HashDrbg(seed)
    getattr(got, move)(offset)
    getattr(want, move)(offset)
    for _ in range(draws):
        x = be32(want.randrange(NATURE_POOL))
        assert inst.sample_pair(got) == (x, toy_label(salt, x))
        assert inst.sample_input(got) == be32(want.randrange(NATURE_POOL))
        assert inst.outsider_input(got) == be32(NATURE_POOL + want.randrange(ATTACK_POOL))
    assert got.take(32) == want.take(32)


@given(
    salt=st.binary(min_size=16, max_size=16),
    x=st.one_of(st.binary(min_size=4, max_size=4), st.binary(max_size=12)),
    y=st.one_of(st.sampled_from([b"\x00", b"\x01"]), st.binary(max_size=2)),
)
def test_labels_match_the_written_out_reference(salt, x, y):
    """`label`, `h` and the nature table label x as ``sha256(b"toy-label:" + salt + x)[0] & 1``."""
    inst = ToyClassificationInstance(salt=salt)
    want = bytes([hashlib.sha256(b"toy-label:" + salt + x).digest()[0] & 1])
    assert inst.label(x) == toy_label(salt, x) == want
    assert inst.h(x, y) == (0 if len(x) == 4 and y == want else 1)
    assert inst.label(x) == want  # labelling leaves the kept hash state as it was
    pool = [be32(i) for i in range(NATURE_POOL)]
    assert inst.nature == tuple((p, toy_label(salt, p)) for p in pool)


def test_nature_table_is_the_labelled_pool():
    pool = [be32(i) for i in range(NATURE_POOL)]
    assert INST.nature == tuple((x, toy_label(INST.salt, x)) for x in pool)
    assert ToyClassificationInstance(salt=INST.salt).nature == INST.nature
    for x, y in INST.nature:
        assert INST.h(x, y) == 0
        assert INST.h(x, bytes([y[0] ^ 1])) == 1


def test_trained_model_accurate_on_pool():
    trainer = KeepTrained(ToyTrainer())
    t = run_dbd_trial(
        INST, trainer, NatureChallenger(), ToyDetector(),
        PARAMS, derive_trial_seed(3, 0),
    )
    assert t.aborted is None and t.flag == 0
    est = estimate_model_err(INST, trainer.model, 400, seed=5)
    assert est.point <= PARAMS.epsilon


def test_attacker_batches_break_the_model():
    atk = ToyAttacker()
    t = run_dbm_trial(
        INST, ToyTrainer(), atk, LazyMitigator(), PARAMS, derive_trial_seed(3, 1),
    )
    assert t.err_fx > 7 * PARAMS.epsilon  # outsiders defeat memorization
    assert t.flag == 0


def test_detector_to_mitigator_preserves_flags():
    det = ToyDetector()
    wrapped = MitigatorFromDetector(det)
    for origin, challenger in (("nature", NatureChallenger()), ("attacker", ToyAttacker())):
        for i in range(25):
            seed = derive_trial_seed(4, i)
            td = run_dbd_trial(INST, ToyTrainer(), challenger, det, PARAMS, seed, i)
            tm = run_dbm_trial(INST, ToyTrainer(), challenger, wrapped, PARAMS, seed, i)
            assert td.flag == tm.flag, (origin, i)
            # the answers scored are the model's own
            assert tm.err_y == tm.err_fx


def test_mitigator_to_detector_stashes_inner_run():
    dm = DetectorFromMitigator(ToyMitigator())
    t = run_dbd_trial(
        INST, ToyTrainer(), NatureChallenger(), dm, PARAMS, derive_trial_seed(5, 0),
    )
    assert t.inner_flag in (0, 1)
    assert t.response is not None and len(t.response) == PARAMS.q
    assert t.err_y is not None


def test_implication_on_real_trials_including_weak_defense():
    for defense in (DetectorFromMitigator(ToyMitigator()), DetectorFromMitigator(LazyMitigator())):
        for challenger in (NatureChallenger(), ToyAttacker()):
            for i in range(20):
                t = run_dbd_trial(
                    INST, ToyTrainer(), challenger, defense, PARAMS,
                    derive_trial_seed(6, i), i,
                )
                assert implication_holds(t, PARAMS.epsilon)


def test_lazy_defense_gives_non_vacuous_cases():
    dm = DetectorFromMitigator(LazyMitigator())
    hits = sum(
        implication_premise(
            run_dbd_trial(
                INST, ToyTrainer(), ToyAttacker(), dm, PARAMS,
                derive_trial_seed(7, i), i,
            ),
            PARAMS.epsilon,
        )
        for i in range(30)
    )
    assert hits >= 20


@given(
    st.lists(
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
        min_size=1,
        max_size=64,
    ),
    st.booleans(),
    st.floats(min_value=1e-6, max_value=0.499, exclude_max=True),
)
def test_derived_flag_implication_for_arbitrary_worlds(points, inner_flag, epsilon):
    """The reduction's guarantee is pointwise and oracle-agnostic.

    Each point is (model answer wrong?, defense answer equals model's?,
    defense answer wrong?) — with the constraint that equal answers share
    their score.  Whatever the world, if the model's error tops 7eps while
    the derived flag stays down, the wrapped defense was itself violating
    at 3eps with its flag down.
    """
    n = len(points)
    err_fx = sum(fx for fx, _, _ in points) / n
    err_y = sum(fx if same else y for fx, same, y in points) / n
    drift = sum(not same for _, same, _ in points) / n
    b = int(inner_flag)
    bp = derived_flag(b, drift, epsilon)
    if err_fx > 7 * epsilon and bp == 0:
        assert err_y > 3 * epsilon and b == 0


@given(st.floats(0, 1), st.floats(min_value=1e-6, max_value=0.499))
def test_derived_flag_rule(drift, epsilon):
    assert derived_flag(1, drift, epsilon) == 1
    assert derived_flag(0, drift, epsilon) == (1 if drift > 4 * epsilon else 0)
