"""Totality: oracles, models and defenses take any bytes without raising.

The targets are both tasks' `h`, `genuine` and `answers`, `DataModel`,
`TimeModel`, both mitigators and the four ladder detectors.  Each `h` must
also equal its two public checks: 1 iff the input is genuine and the answer
does not answer it (on the ladder, for inputs that are not sealed, which
`h` decrypts first).  Inputs are honest payloads of both tasks and the
chain model's answers to them, each as it is or mutated byte by byte or
field by field, and arbitrary bytes; every input goes to both tasks'
targets.  The chain mitigator must also charge no step to an input that
fails `ivc_verify`.  Step counts and levels the mutations draw stay below
STEP_BOUND, so a mitigator that pays isqrt(claimed) steps for a relabeled
proof fails here after at most a thousand steps instead of running for
2**30 of them.
"""

from __future__ import annotations

from math import isqrt

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detmit.core import GameParams, ResourceBudget, SampleOracle, TrialCtx
from detmit.crypto import (
    Ciphertext,
    IvcProof,
    ProofToken,
    SignatureToken,
    StepMeter,
    ivc_verify,
)
from detmit.drbg import HashDrbg
from detmit.payloads import (
    ClearPayload,
    EncPayload,
    TimePayload,
    bottom,
    decode_payload,
    encode_payload,
    pad_to,
)
from detmit.sampleagents import LadderTrainer, ProofExtendingMitigator
from detmit.sampletask import make_data_instance
from detmit.timetask import ChainExtendingMitigator, TimeTrainer, make_time_instance
from detmit.wire import be64
from testkit import build_clear_input, build_enc_input, ladder_detectors

STEP_BOUND = 2**20
PARAMS = GameParams(q=4)

LADDER = make_data_instance(41).world(b"totality")
CHAIN = make_time_instance(41, horizon=64)


def _ctx(instance, agent, label: bytes) -> TrialCtx:
    rng = HashDrbg(label)
    budget = ResourceBudget(getattr(agent, "sample_budget", None))
    return TrialCtx(
        SampleOracle(instance, rng, budget), rng.child("local"), PARAMS, instance,
        StepMeter(getattr(agent, "step_budget", None)),
    )


_ladder_trainer = LadderTrainer(16)
LADDER_MODEL, LADDER_PRIV = _ladder_trainer.train(_ctx(LADDER, _ladder_trainer, b"lt"))
_chain_trainer = TimeTrainer(CHAIN.horizon)
CHAIN_MODEL, CHAIN_PRIV = _chain_trainer.train(_ctx(CHAIN, _chain_trainer, b"ct"))
DETECTORS = list(ladder_detectors().values())


def _honest() -> list[bytes]:
    rng = HashDrbg(b"totality-draws")
    ladder = [build_clear_input(LADDER, 5, rng), build_enc_input(LADDER, 5, rng)]
    for _ in range(4):
        ladder += LADDER.sample_pair(rng)
    ladder += [LADDER_MODEL(x) for x in ladder[:2]]
    chain = [CHAIN.build_input(t) for t in (1, 9, 16, 64, CHAIN.reach)]
    chain.append(CHAIN_MODEL(chain[1]))
    return ladder + chain


HONEST = _honest()
WIDTH = max(len(b) for b in HONEST)

steps = st.integers(1, STEP_BOUND)
blob16 = st.binary(min_size=16, max_size=16)
blob32 = st.binary(min_size=32, max_size=32)


def _field_mutation(data: st.DataObject, p) -> object:
    """`p` with one or more of its fields replaced."""
    if isinstance(p, TimePayload):
        n = data.draw(steps, label="steps")
        return data.draw(st.sampled_from([
            p._replace(steps=n),
            p._replace(proof=IvcProof(n, p.proof.commitment)),
            p._replace(steps=n, proof=IvcProof(n, p.proof.commitment)),
            p._replace(config=data.draw(blob32, label="config")),
            p._replace(proof=IvcProof(p.steps, data.draw(blob32, label="commitment"))),
        ]), label="time field")
    if isinstance(p, ClearPayload):
        return data.draw(st.sampled_from([
            p._replace(level=data.draw(steps, label="level")),
            p._replace(token=SignatureToken(p.token.nonce, data.draw(st.binary(max_size=80)))),
            p._replace(proof=ProofToken(data.draw(blob16), p.proof.statement_digest)),
        ]), label="clear field")
    field_bytes = st.binary(max_size=40)
    ct = p.ciphertext
    return data.draw(st.sampled_from([
        p._replace(id1=data.draw(field_bytes, label="id1")),
        p._replace(id2=data.draw(field_bytes, label="id2"), key2=data.draw(field_bytes)),
        p._replace(ciphertext=Ciphertext(data.draw(blob16), ct.body)),
        p._replace(ciphertext=Ciphertext(ct.identity_tag, data.draw(st.binary(max_size=200)))),
    ]), label="enc field")


def _byte_mutation(data: st.DataObject, buf: bytes) -> bytes:
    out = bytearray(buf)
    edits = st.tuples(st.integers(0, len(out) - 1), st.integers(0, 255))
    for i, v in data.draw(st.lists(edits, max_size=4), label="byte edits"):
        out[i] = v
    if data.draw(st.booleans(), label="write be64"):
        # a raw step count or level written over any 8 bytes
        at = data.draw(st.integers(0, len(out) - 8), label="be64 offset")
        out[at : at + 8] = be64(data.draw(steps, label="be64 value"))
    cut = data.draw(st.none() | st.integers(0, len(out)), label="cut")
    if cut is not None:
        del out[cut:]
    return bytes(out) + data.draw(st.binary(max_size=8), label="tail")


def _input(data: st.DataObject) -> bytes:
    kind = data.draw(st.sampled_from(["arbitrary", "honest", "bytes", "field"]), label="kind")
    if kind == "arbitrary":
        return data.draw(st.binary(max_size=WIDTH + 8), label="arbitrary")
    buf = data.draw(st.sampled_from(HONEST), label="honest")
    if data.draw(st.booleans(), label="chain answer"):
        # the chain model keeps its answers, so a query equal to one runs its recognition path
        buf = CHAIN_MODEL(buf)
    if kind == "bytes":
        return _byte_mutation(data, buf)
    p = decode_payload(buf)
    if kind == "honest" or p is None:
        return buf
    core = encode_payload(_field_mutation(data, p))
    return pad_to(core, len(buf)) if len(core) <= len(buf) else core


def _batch(data: st.DataObject) -> list[bytes]:
    return [_input(data) for _ in range(data.draw(st.integers(1, 4), label="q"))]


def _checks_are_bools(instance, x: bytes, y: bytes) -> tuple:
    """Decode `x` and `y`; both public checks give a bool on either order."""
    xp, yp = decode_payload(x), decode_payload(y)
    for p in (xp, yp):
        assert type(instance.genuine(p)) is bool
    for a, b in ((xp, yp), (yp, xp), (xp, xp)):
        assert type(instance.answers(a, b)) is bool
    return xp, yp


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(st.data())
def test_ladder_oracle_model_and_defenses_are_total(data):
    xs, ys = _batch(data), _batch(data)
    for x, y in zip(xs, ys):
        assert LADDER.h(x, y) in (0, 1)
        assert isinstance(LADDER_MODEL(x), bytes)
        xp, yp = _checks_are_bools(LADDER, x, y)
        if not isinstance(xp, EncPayload):
            assert LADDER.h(x, y) == int(LADDER.genuine(xp) and not LADDER.answers(xp, yp))
    ctx = _ctx(LADDER, None, b"detect")
    for detector in DETECTORS:
        assert detector.detect(ctx, LADDER_MODEL, LADDER_PRIV, xs) in (0, 1)
    mitigator = ProofExtendingMitigator(16)
    ctx = _ctx(LADDER, mitigator, b"mitigate")
    answers, flag = mitigator.mitigate(ctx, LADDER_MODEL, LADDER_PRIV, xs)
    assert flag == 0 and len(answers) == len(xs)
    assert all(isinstance(y, bytes) for y in answers)


@SETTINGS
@given(st.data())
def test_chain_oracle_model_and_mitigator_are_total(data):
    xs, ys = _batch(data), _batch(data)
    mitigator = ChainExtendingMitigator()
    for x, y in zip(xs, ys):
        assert CHAIN.h(x, y) in (0, 1)
        assert isinstance(CHAIN_MODEL(x), bytes)
        xp, yp = _checks_are_bools(CHAIN, x, y)
        assert CHAIN.h(x, y) == int(CHAIN.genuine(xp) and not CHAIN.answers(xp, yp))
        ctx = _ctx(CHAIN, mitigator, b"mitigate")
        answers, flag = mitigator.mitigate(ctx, CHAIN_MODEL, CHAIN_PRIV, [x])
        assert flag == 0 and len(answers) == 1
        p = decode_payload(x)
        if isinstance(p, TimePayload) and ivc_verify(CHAIN.ivc, p.steps, p.config, p.proof):
            assert ctx.meter.used == isqrt(p.steps)
            assert CHAIN.h(x, answers[0]) == 0
        else:
            assert ctx.meter.used == 0
            assert answers == [bottom(CHAIN.width)]
