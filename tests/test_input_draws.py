"""Partial draws move every stream alike: inputs without answers, tokens without payloads.

`sample_input` is `sample_pair(...)[0]`, and the ladder's `sample_token` is
the token of a clear `sample_input`.  Parties that never read y draw with
`SampleOracle.draw_input`, and parties that only collect tokens with
`draw_token`, so these tests are what lets them skip building what they
would throw away without moving a transcript byte.
"""

from __future__ import annotations

import pytest

from detmit.classify import make_toy_instance
from detmit.core import (
    BudgetExceededError,
    HarnessFault,
    ResourceBudget,
    SampleOracle,
    TaskInstance,
    TokenTaskInstance,
)
from detmit.crypto import Ciphertext, VerificationKey
from detmit.drbg import HashDrbg
from detmit.payloads import ClearPayload, EncPayload, decode_payload, encode_payload
from detmit.sampletask import make_data_instance
from detmit.timetask import make_time_instance
from testkit import seal_pair

DRAWS = 2_000
LADDER = make_data_instance(31)


def _same_inputs(sample_input, sample_pair, label: str) -> tuple[HashDrbg, HashDrbg]:
    rng_in, rng_pair = HashDrbg(label), HashDrbg(label)
    for i in range(DRAWS):
        assert sample_input(rng_in) == sample_pair(rng_pair)[0], i
    return rng_in, rng_pair


@pytest.mark.parametrize(
    "instance",
    [make_toy_instance(31), make_time_instance(31, horizon=64)],
    ids=["toy", "chain"],
)
def test_input_draws_match_pair_draws(instance):
    rng_in, rng_pair = _same_inputs(instance.sample_input, instance.sample_pair, "draws")
    assert rng_in.take(32) == rng_pair.take(32)


def test_ladder_input_draws_match_pair_draws():
    w_in, w_pair = LADDER.world(b"trial"), LADDER.world(b"trial")
    rng_in, rng_pair = _same_inputs(w_in.sample_input, w_pair.sample_pair, "draws")
    # the answer proofs of input draws are never registered
    assert len(w_in.snark.registry_entries()) == DRAWS
    assert len(w_pair.snark.registry_entries()) == 2 * DRAWS
    # the party's stream and the world's proof-token stream end up level
    assert rng_in.take(32) == rng_pair.take(32)
    assert w_in.prove_count(1).token == w_pair.prove_count(1).token


def test_draw_input_charges_one_sample_and_mixes_with_draw_pair():
    allowance = 40
    w_mix, w_pair = LADDER.world(b"oracle"), LADDER.world(b"oracle")
    mixed = SampleOracle(w_mix, HashDrbg(b"party"), ResourceBudget(samples_allowed=allowance))
    pairs = SampleOracle(w_pair, HashDrbg(b"party"), ResourceBudget())
    for i in range(allowance):
        if i % 3:
            x = mixed.draw_input()
        else:
            x, _ = mixed.draw_pair()
        assert mixed.budget.samples_used == i + 1
        assert x == pairs.draw_pair()[0]
    with pytest.raises(BudgetExceededError):
        mixed.draw_input()
    assert mixed.budget.samples_used == allowance
    # the refused draw took nothing from the party's stream
    mixed.budget.samples_allowed = None
    assert mixed.draw_input() == pairs.draw_pair()[0]


def _reference_pair(world, rng):
    """A ladder pair drawn step by step: level, clear pair, sealing bit, seal."""
    x, y = world.clear_pair_at(world.law.sample(rng), rng)
    if rng.bit():
        x, y = seal_pair(world, x, y, rng)
    return encode_payload(x, world.width), encode_payload(y, world.width)


def test_ladder_pair_draws_match_a_step_by_step_reference():
    w_pair, w_ref = LADDER.world(b"trial"), LADDER.world(b"trial")
    rng_pair, rng_ref = HashDrbg(b"ref-pairs"), HashDrbg(b"ref-pairs")
    for i in range(200):
        assert w_pair.sample_pair(rng_pair) == _reference_pair(w_ref, rng_ref), i


def _eval_nonce_probe(world) -> Ciphertext:
    """What the world's eval oracle returns next: a sealed failure marker."""
    handle = world.fhe.register_circuit(lambda pt: pt)
    return world.fhe.eval(handle, Ciphertext(bytes(16), bytes(40)))


def test_ladder_token_draws_read_the_token_of_input_draws(monkeypatch):
    w_tok, w_in = LADDER.world(b"trial"), LADDER.world(b"trial")
    rng_tok, rng_in = HashDrbg(b"draws"), HashDrbg(b"draws")
    macs, mac = [0], VerificationKey._mac

    def counting_mac(key, message):
        macs[0] += 1
        return mac(key, message)

    monkeypatch.setattr(VerificationKey, "_mac", counting_mac)
    forms = {ClearPayload: 0, EncPayload: 0}
    token_macs = 0
    for i in range(DRAWS):
        before = macs[0]
        token = w_tok.sample_token(rng_tok)
        token_macs += macs[0] - before
        p = decode_payload(w_in.sample_input(rng_in))
        forms[type(p)] += 1
        assert token == (p.token if isinstance(p, ClearPayload) else None), i
    assert min(forms.values()) > DRAWS // 3
    # a token draw MACs only the token it returns: a sealed draw makes none
    assert token_macs == forms[ClearPayload]
    # a token draw builds no proof
    assert w_tok.snark.registry_entries() == []
    # the party's stream, the proof-token stream and the eval-nonce stream are level
    assert rng_tok.take(32) == rng_in.take(32)
    assert w_tok.prove_count(1).token == w_in.prove_count(1).token
    assert _eval_nonce_probe(w_tok) == _eval_nonce_probe(w_in)


def test_draw_token_charges_one_sample_and_mixes_with_other_draws():
    allowance = 60
    w_mix, w_pair = LADDER.world(b"oracle"), LADDER.world(b"oracle")
    mixed = SampleOracle(w_mix, HashDrbg(b"party"), ResourceBudget(samples_allowed=allowance))
    pairs = SampleOracle(w_pair, HashDrbg(b"party"), ResourceBudget())
    for i in range(allowance):
        x, _ = pairs.draw_pair()
        p = decode_payload(x)
        if i % 3 == 0:
            want = p.token if isinstance(p, ClearPayload) else None
            assert mixed.draw_token() == want, i
        elif i % 3 == 1:
            assert mixed.draw_input() == x, i
        else:
            assert mixed.draw_pair()[0] == x, i
        assert mixed.budget.samples_used == i + 1
    with pytest.raises(BudgetExceededError):
        mixed.draw_token()
    assert mixed.budget.samples_used == allowance
    # the refused draw took nothing from the party's stream
    mixed.budget.samples_allowed = None
    assert mixed.draw_input() == pairs.draw_pair()[0]


class _FaultyTokens:
    def sample_token(self, rng):
        raise ValueError("broken draw")


@pytest.mark.parametrize(
    "instance, cause",
    [(_FaultyTokens(), ValueError), (make_toy_instance(31), AttributeError)],
    ids=["raises", "no-token-view"],
)
def test_a_failing_token_draw_is_a_harness_fault(instance, cause):
    oracle = SampleOracle(instance, HashDrbg(b"party"), ResourceBudget())
    with pytest.raises(HarnessFault, match=f"sample_token: {cause.__name__}") as info:
        oracle.draw_token()
    assert isinstance(info.value.__cause__, cause)
    assert oracle.budget.samples_used == 1


def test_only_the_ladder_task_offers_the_token_view():
    toy, chain = make_toy_instance(31), make_time_instance(31, horizon=64)
    assert all(isinstance(inst, TaskInstance) for inst in (LADDER, toy, chain))
    assert isinstance(LADDER, TokenTaskInstance)
    assert not isinstance(toy, TokenTaskInstance)
    assert not isinstance(chain, TokenTaskInstance)
