"""Input-only draws: `sample_input` is `sample_pair(...)[0]` and moves every stream alike.

Parties that never read y draw with `SampleOracle.draw_input`, so these tests
are what lets them skip the answer without moving a transcript byte.
"""

from __future__ import annotations

import pytest

from detmit.classify import make_toy_instance
from detmit.core import BudgetExceededError, ResourceBudget, SampleOracle
from detmit.drbg import HashDrbg
from detmit.sampletask import make_data_instance
from detmit.timetask import make_time_instance

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
