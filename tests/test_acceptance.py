"""End-to-end acceptance gates for the framework's headline guarantees.

One test per criterion.  `pytest -v` gives the pass/fail line per gate; each
test also prints its measured numbers (visible with `-s` or on failure), so a
run doubles as a results table.  Tolerances are fixed here and must not be
loosened: they are the contract the rest of the package is built against.
"""

from __future__ import annotations

import json
from collections import Counter
from hashlib import sha256
from math import isqrt, log, sqrt

from detmit.classify import (
    DetectorFromMitigator,
    LazyMitigator,
    MitigatorFromDetector,
    ToyAttacker,
    ToyDetector,
    ToyMitigator,
    ToyTrainer,
    make_toy_instance,
)
from detmit.cli import DEFENSES, ExperimentConfig, run_batch
from detmit.core import (
    GameParams,
    NatureChallenger,
    ResourceBudget,
    SampleOracle,
    TrialCtx,
    run_dbd_trial,
    run_dbm_trial,
    soundness_violation,
    wilson_interval,
)
from detmit.crypto import (
    FheSystem,
    IdentityCipher,
    NONCE_LEN,
    ProofToken,
    SnarkParams,
    TOKEN_LEN,
    WitnessError,
    sig_keygen,
    sig_sign_zero,
    sig_verify,
    snark_extract,
    snark_prove,
    snark_verify,
    statement_digest,
)
from detmit.drbg import HashDrbg, derive_trial_seed
from detmit.payloads import EncPayload, decode_payload
from detmit.sampleagents import (
    LadderTrainer,
    NeverFlagDetector,
    ProofExtendingMitigator,
    SelfIterationAttacker,
)
from detmit.sampletask import DataTaskInstance, LevelLaw
from detmit.timetask import (
    ChainClimbingAttacker,
    ChainExtendingMitigator,
    TimeTaskInstance,
    TimeTrainer,
    audit_conservation,
    audit_sequential_reach,
)
from testkit import (
    FixedChallenger,
    KeepTrained,
    build_clear_input,
    build_enc_input,
    estimate_model_err,
    implication_holds,
    implication_premise,
    ladder_detectors,
)

EPS, DELTA = 0.05, 0.02


def _report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. The two classification reductions, on the toy task.
# ---------------------------------------------------------------------------


def test_toy_reduction_bounds_and_flag_transport():
    params = GameParams(epsilon=EPS, q=32)
    inst = make_toy_instance(101)
    trainer = ToyTrainer()
    nature = NatureChallenger()
    attack = ToyAttacker()
    M = 500

    # Detection -> mitigation: the wrapper must forward flags bit for bit
    # and answer with the model itself (err_y == err_fx), on matched seeds.
    detector = ToyDetector()
    wrapped = MitigatorFromDetector(ToyDetector())
    flags_raised = 0
    for i in range(M):
        seed = derive_trial_seed(1001, i)
        chal = nature if i % 2 == 0 else attack
        td = run_dbd_trial(inst, trainer, chal, detector, params, seed, i)
        tm = run_dbm_trial(inst, trainer, chal, wrapped, params, seed, i)
        assert td.aborted is None and tm.aborted is None
        assert tm.flag == td.flag
        assert tm.err_y == tm.err_fx
        flags_raised += td.flag

    # Mitigation -> detection: completeness within 8*delta, soundness
    # within 2*delta, and the deterministic violation implication on
    # every trial.
    derived = DetectorFromMitigator(ToyMitigator())
    comp = 0
    impl_ok = 0
    for i in range(M):
        t = run_dbd_trial(inst, trainer, nature, derived, params, derive_trial_seed(1002, i), i)
        assert t.aborted is None
        comp += t.flag
        impl_ok += implication_holds(t, EPS)
    sound = 0
    for i in range(M):
        t = run_dbd_trial(inst, trainer, attack, derived, params, derive_trial_seed(1003, i), i)
        assert t.aborted is None
        sound += t.err_fx > EPS and t.flag == 0
        impl_ok += implication_holds(t, EPS)
    comp_low = wilson_interval(comp, M)[0]
    sound_low = wilson_interval(sound, M)[0]
    assert comp_low <= 8 * DELTA
    assert sound_low <= 2 * DELTA
    assert impl_ok == 2 * M

    # The implication must also hold non-vacuously: an unsound inner
    # mitigator under attack triggers the premise on every trial.
    lazy = DetectorFromMitigator(LazyMitigator())
    premises = 0
    for i in range(200):
        t = run_dbd_trial(inst, trainer, attack, lazy, params, derive_trial_seed(1004, i), i)
        assert implication_holds(t, EPS)
        premises += implication_premise(t, EPS)
    assert premises >= 100

    _report(
        "toy reduction",
        f"flags matched on {M} paired trials ({flags_raised} raised); "
        f"completeness Wilson-low {comp_low:.4f} <= {8 * DELTA}; "
        f"soundness Wilson-low {sound_low:.4f} <= {2 * DELTA}; "
        f"implication {impl_ok}/{2 * M}, non-vacuous on {premises}/200",
    )


# ---------------------------------------------------------------------------
# 2. Trained model correctness on the token-ladder task.
# ---------------------------------------------------------------------------


def test_ladder_trained_model_correctness():
    inst = DataTaskInstance(seed=202)
    params = GameParams(epsilon=EPS, q=1)
    trainer = KeepTrained(LadderTrainer(64))
    t = run_dbd_trial(
        inst, trainer, NatureChallenger(), NeverFlagDetector(),
        params, derive_trial_seed(2002, 0), 0,
    )
    assert t.aborted is None
    model = trainer.model

    est = estimate_model_err(inst, model, 10_000, seed=2003)
    assert est.successes == 0
    assert est.high < 1e-3  # Wilson upper for 0/10^4 is 3.8401e-4

    rng = HashDrbg(2004)
    for k in range(1, 58):  # every level the size-64 grid can serve
        for builder in (build_clear_input, build_enc_input):
            x = builder(inst, k, rng)
            assert inst.h(x, model(x)) == 0, f"level {k}"
    past = build_clear_input(inst, 58, rng)  # needs 65 > 64: out of reach
    assert inst.h(past, model(past)) == 1

    _report(
        "ladder correctness",
        f"0/10000 draw errors (Wilson upper {est.high:.3e} < 1e-3); "
        f"exhaustive clear+enc levels 1..57 all correct, 58 out of reach",
    )


# ---------------------------------------------------------------------------
# 3. The grid-climbing attack beats every baseline detector cheaply.
# ---------------------------------------------------------------------------


def _attack_rows(K: int, M: int) -> tuple[DataTaskInstance, list[tuple]]:
    """Gate 3's instance at K and its first M trials, each with what its detectors read.

    A row is (transcript, frontier level, output encrypted, model, private
    state).  The trials run in order on a fresh instance, so the first M rows
    are the same whatever M is.
    """
    params = GameParams(epsilon=EPS, q=1)
    inst = DataTaskInstance(seed=300 + K)
    trainer = KeepTrained(LadderTrainer(K))
    atk = SelfIterationAttacker()
    rows = []
    for i in range(M):
        t = run_dbd_trial(
            inst, trainer, atk, NeverFlagDetector(), params,
            derive_trial_seed(3000 + K, i), i,
        )
        rows.append((t, t.notes.get("level"), t.notes.get("output_encrypted"),
                     trainer.model, trainer.priv))
    return inst, rows


def _detector_ctx(inst: DataTaskInstance) -> TrialCtx:
    """A detector's context whose `task` is `inst`, the instance gate 3's trials ran on."""
    rng = HashDrbg(b"gate-3-detector")
    params = GameParams(epsilon=EPS, q=1)
    return TrialCtx(SampleOracle(inst, rng, ResourceBudget()), rng.child("local"), params, inst)


def _missed(det, ctx: TrialCtx, row: tuple) -> bool:
    """Gate 3's soundness verdict: `det` lets a batch through that the model gets wrong."""
    t, _, _, model, priv = row
    return t.err_fx > EPS and det.detect(ctx, model, priv, t.challenge) == 0


def test_ladder_attack_beats_baseline_detectors():
    M = 200
    details = []
    for K in (16, 400):
        inst, rows = _attack_rows(K, M)
        ctx = _detector_ctx(inst)
        done = [r for r in rows if r[0].aborted is None]
        assert len(done) >= 0.9 * M

        query_bound = 3 * isqrt(K) + 2
        for t, *_ in done:
            assert t.ledgers["attacker"]["queries"] <= query_bound
            assert t.ledgers["attacker"]["samples_used"] <= 8

        enc_branch = [r for r in done if r[2]]
        at_frontier = sum(r[1] == K for r in enc_branch)
        assert at_frontier >= 0.95 * len(enc_branch)

        # All four detectors are scored on the same stored challenges.
        rates = {}
        for name, det in ladder_detectors().items():
            viol = sum(_missed(det, ctx, r) for r in done)
            rates[name] = viol / len(done)
            assert rates[name] >= 0.35, f"K={K} detector {name}"
        max_q = max(r[0].ledgers["attacker"]["queries"] for r in done)
        details.append(
            f"K={K}: {len(done)}/{M} run, queries <= {max_q} (bound {query_bound}), "
            f"frontier {at_frontier}/{len(enc_branch)}, "
            "violations " + ", ".join(f"{n}={r:.2f}" for n, r in rates.items())
        )
    _report("ladder attack", "; ".join(details))


# ---------------------------------------------------------------------------
# 4. Proof-extending mitigation restores soundness against that attack.
# ---------------------------------------------------------------------------


class _Allowance:
    """Challenges as `party` does, under a sample allowance of `samples`."""

    def __init__(self, party, samples: int):
        self.party, self.origin, self.sample_budget = party, party.origin, samples

    def challenge(self, ctx, model):
        return self.party.challenge(ctx, model)


def test_ladder_mitigation_restores_soundness():
    K = 400
    params = GameParams(epsilon=EPS, q=1)
    inst = DataTaskInstance(seed=404)
    trainer = LadderTrainer(K)
    atk = _Allowance(SelfIterationAttacker(8), 10)
    mitigator = ProofExtendingMitigator(K)
    M = 200

    done = good = 0
    for i in range(M):
        t = run_dbm_trial(inst, trainer, atk, mitigator, params, derive_trial_seed(4004, i), i)
        if t.aborted is not None:
            continue
        assert t.ledgers["attacker"]["samples_allowed"] == 10
        assert t.ledgers["attacker"]["samples_used"] == 8
        assert t.ledgers["mitigator"]["samples_used"] <= 160
        done += 1
        good += t.err_y == 0.0 or t.flag == 1
    assert done >= 0.9 * M
    assert good / done >= 0.99

    # White-box probes at the coverage boundary: the strip of freshly
    # proved levels ends at K + 2*sqrt(K) = 440, so a level-420 input
    # (needs 440) is served exactly and a level-441 input is not.
    rng = HashDrbg(4005)
    served = run_dbm_trial(
        inst, trainer, FixedChallenger([build_clear_input(inst, 420, rng)]),
        mitigator, params, derive_trial_seed(4006, 0), 0,
    )
    assert served.err_y == 0.0
    beyond = run_dbm_trial(
        inst, trainer, FixedChallenger([build_clear_input(inst, 441, rng)]),
        mitigator, params, derive_trial_seed(4006, 1), 1,
    )
    assert beyond.err_y == 1.0

    _report(
        "ladder mitigation",
        f"err_y=0 or flagged on {good}/{done} non-aborted trials (>= 0.99); "
        f"boundary probes: level 420 served, 441 refused",
    )


# ---------------------------------------------------------------------------
# 5. Contract rates for the simulated primitives.
# ---------------------------------------------------------------------------


def test_crypto_contract_rates():
    rng = HashDrbg(505)
    key = sig_keygen(rng.child("kp"))

    tokens = [sig_sign_zero(key, rng.take(NONCE_LEN)) for _ in range(1000)]
    assert all(sig_verify(key, t) for t in tokens)

    forged_ok = 0
    for tok in tokens:
        raw = bytearray(tok.core)
        raw[rng.randrange(len(raw))] ^= 1 + rng.randrange(255)
        forged_ok += sig_verify(key, type(tok)(tok.nonce, bytes(raw)))
    assert forged_ok == 0

    snark = SnarkParams(rng.child("snark"), key)
    guessed_ok = 0
    for i in range(10_000):
        count = 1 + i % 20
        digest = statement_digest(count, snark.key_digest)
        fake = ProofToken(token=rng.take(TOKEN_LEN), statement_digest=digest)
        guessed_ok += snark_verify(snark, count, fake)
    assert guessed_ok == 0

    for s in range(1, 101):
        witness = [sig_sign_zero(key, rng.take(NONCE_LEN)) for _ in range(s)]
        proof = snark_prove(snark, s, witness)
        assert snark_extract(snark, proof) == tuple(witness)

    fhe = FheSystem(rng.child("fhe"))
    fn = lambda data: bytes(reversed(data))  # noqa: E731
    circuit = fhe.register_circuit(fn)
    for _ in range(100):
        identity, pt = rng.take(16), rng.take(48)
        cipher = IdentityCipher(fhe.keygen(identity))
        out = circuit(cipher.encrypt(pt, rng))
        assert cipher.decrypt(out) == fn(pt)

    cheated = 0
    for i in range(1000):
        s = 1 + i % 20
        if i % 2 == 0 or s == 1:
            witness = [sig_sign_zero(key, rng.take(NONCE_LEN)) for _ in range(s - 1)]
        else:
            witness = [sig_sign_zero(key, rng.take(NONCE_LEN)) for _ in range(s - 1)]
            witness.append(witness[0])  # right count, duplicated entry
        try:
            snark_prove(snark, s, witness)
            cheated += 1
        except WitnessError:
            pass
    assert cheated == 0

    _report(
        "crypto contracts",
        "1000/1000 round-trips, 0/1000 forgeries, 0/10000 guessed proofs, "
        "100 exact extractions, 100 transparent evals, 0/1000 short witnesses",
    )


# ---------------------------------------------------------------------------
# 6. The level law and the clear/encrypted mixture.
# ---------------------------------------------------------------------------


def test_level_law_and_mixture():
    law = LevelLaw(512)
    rng = HashDrbg(606)
    N = 100_000
    counts = Counter(law.sample(rng) for _ in range(N))
    worst = 0.0
    for k in range(1, 11):
        p = 2.0 ** -k
        sigma = sqrt(p * (1 - p) / N)
        pull = abs(counts[k] / N - p) / sigma
        worst = max(worst, pull)
        assert pull <= 3.0, f"level {k} off by {pull:.2f} sigma"

    inst = DataTaskInstance(seed=607)
    draw_rng = HashDrbg(608)
    enc = sum(
        isinstance(decode_payload(inst.sample_pair(draw_rng)[0]), EncPayload)
        for _ in range(10_000)
    )
    frac = enc / 10_000
    assert 0.48 <= frac <= 0.52

    _report(
        "level law",
        f"levels 1..10 within 3 sigma of 2^-k over {N} draws (worst {worst:.2f}); "
        f"encrypted fraction {frac:.4f} in [0.48, 0.52]",
    )


# ---------------------------------------------------------------------------
# 7. Step metering on the hash-chain task, plus both global audits.
# ---------------------------------------------------------------------------


def test_chain_metering_and_audits():
    T = 256
    params = GameParams(epsilon=EPS, q=1)
    inst = TimeTaskInstance(seed=707)
    trainer = TimeTrainer(inst.horizon)
    atk = ChainClimbingAttacker(inst.horizon)
    mitigator = ChainExtendingMitigator()

    for i in range(3):
        t = run_dbm_trial(inst, trainer, atk, mitigator, params, derive_trial_seed(7007, i), i)
        assert t.aborted is None
        assert t.ledgers["trainer"]["steps_used"] == T
        assert t.ledgers["attacker"]["queries"] <= 2 * isqrt(T) + 4
        assert t.ledgers["attacker"]["steps_used"] <= 2 * isqrt(T)
        assert t.flag == 0 and t.err_y == 0.0
    assert t.notes["queries"] == 17 and t.notes["level"] == T

    # Serving a level-t input costs the mitigator exactly isqrt(t) steps;
    # a forged proof costs nothing because verification precedes stepping.
    costs = []
    for level in (1, 9, 100, 255):
        t = run_dbm_trial(
            inst, trainer, FixedChallenger([inst.build_input(level)]),
            mitigator, params, derive_trial_seed(7008, level), 1000 + level,
        )
        assert t.err_y == 0.0
        assert t.ledgers["mitigator"]["steps_used"] == isqrt(level)
        costs.append(f"t={level}:{isqrt(level)}")
    forged = inst.build_input(31)
    forged = forged[:1] + b"\xff" * 8 + forged[9:]
    t = run_dbm_trial(
        inst, trainer, FixedChallenger([forged]), mitigator, params,
        derive_trial_seed(7009, 0), 2000,
    )
    assert t.ledgers["mitigator"]["steps_used"] == 0

    assert audit_conservation(inst)
    assert audit_sequential_reach(inst)

    _report(
        "chain metering",
        f"trainer paid exactly {T}; attack used 17 queries / 1 step "
        f"(bounds {2 * isqrt(T) + 4}/{2 * isqrt(T)}); serve costs {', '.join(costs)}; "
        "forged input cost 0; conservation and sequential-reach audits hold",
    )


# ---------------------------------------------------------------------------
# 8. Byte-identical transcripts for a fixed master seed, workers included.
# ---------------------------------------------------------------------------


def test_transcript_determinism():
    digests = []
    for base in (
        {"task": "ladder", "game": "detect", "challenger": "attack",
         "trials": 10, "level_target": 16, "instance_seed": 9, "master_seed": 10},
        {"task": "chain", "game": "mitigate", "challenger": "attack",
         "trials": 6, "instance_seed": 11, "master_seed": 12},
        {"task": "toy", "game": "mitigate", "challenger": "nature",
         "trials": 10, "instance_seed": 13, "master_seed": 14},
    ):
        streams = []
        for workers in (1, 1, 3):
            cfg = ExperimentConfig.model_validate({**base, "workers": workers})
            _, batch = run_batch(cfg)
            streams.append("\n".join(t.to_json() for t in batch).encode())
        assert streams[0] == streams[1] == streams[2]
        digests.append(f"{base['task']}:{sha256(streams[0]).hexdigest()[:12]}")
    _report("determinism", "stable across reruns and 3 workers — " + "; ".join(digests))


# ---------------------------------------------------------------------------
# 9. Resource curves: mitigation costs the square root of what training does.
# ---------------------------------------------------------------------------


def _log_log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log y on log x."""
    xs = [log(x) for x, _ in points]
    ys = [log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def test_resource_curves():
    """The paper's "significantly less resources" claim, as a curve.

    The resource is samples on the ladder (size K = level_target) and steps
    on the chain (size T = horizon).  At each size, a batch of attack trials
    per game: training costs 4K samples or T steps, mitigation 8*isqrt(K)
    samples or isqrt(T) steps, so their ratio falls with slope -1/2 on a
    log-log scale; the attacker stays within its query bound, mitigation is
    never unsound, and the never-flag detector is fooled at a rate whose
    Wilson lower bound clears 0.15.
    """
    laws = {
        # task -> (size key, resource, sizes, trials, trainer law, mitigator law, query bound)
        "ladder": ("level_target", "samples", (16, 64, 144, 256, 400, 484), 40,
                   lambda k: 4 * k, lambda k: 8 * isqrt(k), lambda k: 3 * sqrt(k) + 2),
        "chain": ("horizon", "steps", (256, 1024, 4096, 16384), 20,
                  lambda t: t, isqrt, lambda t: 2 * sqrt(t) + 4),
    }
    table = ["task size trainer mitigator ratio max_queries never_flag_sv (low) mitigate_sv"]
    for task, (key, resource, sizes, trials, train_law, mit_law, query_bound) in laws.items():
        used, ratios = f"{resource}_used", []
        for n in sizes:
            base = {"task": task, "challenger": "attack", "trials": trials, key: n,
                    "instance_seed": 11, "master_seed": 12}
            _, detect = run_batch(ExperimentConfig(**base, game="detect", detector="never_flag"))
            _, mitigate = run_batch(ExperimentConfig(**base, game="mitigate"))
            batch = detect + mitigate

            assert all(t.ledgers["trainer"][used] == train_law(n) for t in batch), n
            done = [t for t in mitigate if t.aborted is None]
            assert done and all(t.ledgers["mitigator"][used] == mit_law(n) for t in done), n
            queries = [t.ledgers["attacker"]["queries"] for t in batch if "attacker" in t.ledgers]
            assert max(queries) <= query_bound(n), n
            assert sum(soundness_violation(t, EPS) for t in mitigate) == 0, n
            fooled = sum(soundness_violation(t, EPS) for t in detect)
            low = wilson_interval(fooled, trials)[0]
            assert low >= 0.15, (n, fooled)

            ratios.append((n, mit_law(n) / train_law(n)))
            table.append(f"{task} {n} {train_law(n)} {mit_law(n)} {ratios[-1][1]:.4f} "
                         f"{max(queries)} {fooled}/{trials} ({low:.2f}) 0/{trials}")
        slope = _log_log_slope(ratios)
        assert -0.6 <= slope <= -0.4, slope
        table.append(f"{task}: log-log slope of mitigator/trainer {resource} = {slope:.3f}")
    print("\n".join(table))
    _report("resource curves", "every cost law, query bound and rate bound met")



# ---------------------------------------------------------------------------
# 10. On the generative tasks the derived detector is sound but incomplete.
# ---------------------------------------------------------------------------


def test_derived_detector_on_generative_tasks():
    """DbM -> DbD keeps soundness on the ladder and the chain but loses completeness.

    A sound mitigator wrapped in `DetectorFromMitigator` flags nature batches
    although every answer involved is correct: there are many correct answers,
    and the mitigator's differ from the model's.  Under attack no batch the
    model gets wrong goes unflagged.  The other direction transports flags
    bit for bit, so `MitigatorFromDetector` inherits gate 3's failures.
    """
    params = GameParams(epsilon=EPS, q=1)
    details = []
    # trials per batch: 0.9 needs 35 all flagged to clear it as a Wilson lower bound
    for task, size, N in (("ladder", 16, 30), ("ladder", 400, 30),
                          ("chain", 256, 40), ("chain", 4096, 40)):
        if task == "ladder":
            inst = DataTaskInstance(seed=1000 + size)
            trainer, atk = LadderTrainer(size), SelfIterationAttacker()
            derived, least = DetectorFromMitigator(ProofExtendingMitigator(size)), 0.25
        else:
            inst = TimeTaskInstance(seed=1000 + size, horizon=size)
            trainer, atk = TimeTrainer(inst.horizon), ChainClimbingAttacker(inst.horizon)
            derived, least = DetectorFromMitigator(ChainExtendingMitigator()), 0.9
        done = {}
        for name, challenger in (("nature", NatureChallenger()), ("attack", atk)):
            trials = [
                run_dbd_trial(inst, trainer, challenger, derived, params,
                              derive_trial_seed(10_000 + size, i), i)
                for i in range(N)
            ]
            done[name] = [t for t in trials if t.aborted is None]
            assert len(done[name]) >= 0.9 * N, (task, size, name)
        flagged = [t for t in done["nature"] if t.flag == 1]
        low = wilson_interval(len(flagged), len(done["nature"]))[0]
        assert low >= least, (task, size, len(flagged))
        assert all(t.err_fx == 0 and t.err_y == 0 for t in flagged), (task, size)
        # err_fx by name: soundness_violation scores err_y, which here holds
        # the wrapped mitigator's answers, not the model's
        wrong = [t for t in done["attack"] if t.err_fx > EPS]
        assert wrong and all(t.flag == 1 for t in wrong), (task, size)
        details.append(f"{task} {size}: nature flagged {len(flagged)}/{len(done['nature'])} "
                       f"(Wilson-low {low:.2f}), attack flagged all {len(wrong)} it broke")

    # MitigatorFromDetector over each ladder detector, on gate 3's first
    # trials: a fresh instance per detector runs the same trials in the same
    # order, so each challenge is byte for byte gate 3's.
    M = 20
    for K in (16, 400):
        gate3_inst, rows = _attack_rows(K, M)
        ctx = _detector_ctx(gate3_inst)
        inherited = []
        for name in DEFENSES["ladder", "detect"]:
            inst = DataTaskInstance(seed=300 + K)
            trainer, atk = LadderTrainer(K), SelfIterationAttacker()
            det = ladder_detectors()[name]
            wrapped = MitigatorFromDetector(det)
            for i, row in enumerate(rows):
                tm = run_dbm_trial(inst, trainer, atk, wrapped, params,
                                   derive_trial_seed(3000 + K, i), i)
                t = row[0]
                assert (tm.aborted, tm.challenge) == (t.aborted, t.challenge), (K, name, i)
                if t.aborted is None:
                    assert soundness_violation(tm, EPS) == _missed(det, ctx, row), (K, name, i)
                    inherited.append(soundness_violation(tm, EPS))
        assert any(inherited), K
        details.append(f"K={K}: MitigatorFromDetector matched gate 3 on {len(inherited)} "
                       f"detector-trials, {sum(inherited)} violations")
    _report("derived detector", "; ".join(details))


if __name__ == "__main__":
    raise SystemExit(json.dumps({"run": "use pytest"}))
