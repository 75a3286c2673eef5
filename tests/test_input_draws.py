"""Partial draws move every stream alike: inputs without answers, tokens without payloads.

`sample_input` is `sample_pair(...)[0]`, and the ladder's `sample_tokens` is
the first distinct tokens of clear `sample_input` draws.  Parties that never
read y draw with `SampleOracle.draw_input`, and parties that only collect
tokens with `draw_tokens`, so these tests are what lets them skip building
what they would throw away without moving a transcript byte.  A token batch
owes the draws after its last kept token; the oracle walks them only when
it draws again, so the tests read the party's stream after that next draw.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmit import drbg
from detmit.classify import make_toy_instance
from detmit.core import (
    BudgetExceededError,
    HarnessFault,
    ResourceBudget,
    SampleOracle,
)
from detmit.crypto import Ciphertext, SignatureToken, VerificationKey
from detmit.drbg import HashDrbg
from detmit.payloads import ClearPayload, EncPayload, decode_payload, encode_payload
from detmit.sampletask import make_data_instance
from detmit.timetask import make_time_instance
from testkit import CountingHashlib, CraftedDrbg, clear_pair_at, seal_pair, token_draws

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
    x, y = clear_pair_at(world, world.law.sample(rng), rng)
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
    return world.fhe.eval(lambda pt: pt, Ciphertext(bytes(16), bytes(40)))


def _streams_ahead(world, rng) -> tuple:
    """What the party's stream, the proof-token stream and the eval-nonce stream give next."""
    return rng.take(32), world.prove_count(1).token, _eval_nonce_probe(world)


class _CountingPad:
    """An HMAC outer pad state that adds one to `count` per copy: one copy per MAC."""

    def __init__(self, count: list[int], pad):
        self.count, self.pad = count, pad

    def copy(self):
        self.count[0] += 1
        return self.pad.copy()


@contextmanager
def _counted_macs(key: VerificationKey):
    """Counts the MACs `key` makes, through `_mac` or a bound signer alike.

    Every MAC copies the key's outer pad state once, so the count sits on a
    counting outer pad state put on the key, as `CraftedDrbg` swaps a
    stream's key state.
    """
    count, pad = [0], key._outer
    object.__setattr__(key, "_outer", _CountingPad(count, pad))
    try:
        yield count
    finally:
        object.__setattr__(key, "_outer", pad)


def _clear_tokens(world, rng, n: int) -> list[SignatureToken | None]:
    """The token of each of `n` decoded input draws, None for a sealed one."""
    payloads = [decode_payload(world.sample_input(rng)) for _ in range(n)]
    return [p.token if isinstance(p, ClearPayload) else None for p in payloads]


def test_ladder_token_draws_read_the_token_of_input_draws():
    w_tok, w_in = LADDER.world(b"trial"), LADDER.world(b"trial")
    rng_tok, rng_in = HashDrbg(b"draws"), HashDrbg(b"draws")
    oracle = SampleOracle(w_tok, rng_tok, ResourceBudget())
    with _counted_macs(w_tok.snark.verification_key) as macs:
        tokens = oracle.draw_tokens(DRAWS, DRAWS)
    clear = [t for t in _clear_tokens(w_in, rng_in, DRAWS) if t is not None]
    assert DRAWS // 3 < len(clear) < DRAWS - DRAWS // 3
    assert tokens == clear
    # a token draw MACs only the token of a clear draw: a sealed draw makes none
    assert macs[0] == len(clear)
    # a token draw builds no proof
    assert w_tok.snark.registry_entries() == []
    # the oracle's next draw stands where the next input draw does
    assert oracle.draw_input() == w_in.sample_input(rng_in)
    assert _streams_ahead(w_tok, rng_tok) == _streams_ahead(w_in, rng_in)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=120),
    want=st.integers(min_value=0, max_value=60),
    picks=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
    seed=st.binary(max_size=8),
    offset=st.integers(min_value=0, max_value=100),
    skip_first=st.booleans(),
)
@example(n=120, want=60, picks=[], seed=b"", offset=0, skip_first=False)
@example(n=40, want=3, picks=[0, 2], seed=b"k", offset=31, skip_first=True)
def test_token_batches_read_input_draws_with_fewer_macs(n, want, picks, seed, offset, skip_first):
    """`draw_tokens` returns the first `want` distinct clear-draw tokens not in `known`.

    It charges `n` samples, and MACs the clear draws up to the last token it
    returns, and no more.  By itself it hashes the blocks the written-out
    take/skip reference hashes through the draw of that token; once the
    oracle's next draw has walked the draws it owes, every stream stands
    where `n` input draws and that draw leave it, and the blocks hashed are
    the reference's.  `offset` bytes are taken, or skipped, from the party's
    stream first.
    """
    label = b"batch/" + seed
    w_tok, w_in, w_ref, w_part = (LADDER.world(label) for _ in range(4))
    rng_tok, rng_in, rng_ref, rng_part = rngs = [HashDrbg(seed) for _ in range(4)]
    for rng in rngs:
        (rng.skip if skip_first else rng.take)(offset)

    draws = _clear_tokens(w_in, rng_in, n)
    clear = [t for t in draws if t is not None]
    known = [clear[i % len(clear)] for i in picks] if clear else []
    known.append(SignatureToken(bytes(16), bytes(64)))  # no draw returns it
    # `read`: the draws through the one that gives the last token kept
    fresh, macs_due, read = [], 0, 0 if want == 0 else n
    for i, token in enumerate(draws):
        if token is None or len(fresh) == want:
            continue
        macs_due += 1
        if token not in known and token not in fresh:
            fresh.append(token)
            if len(fresh) == want:
                read = i + 1

    oracle = SampleOracle(w_tok, rng_tok, ResourceBudget(samples_allowed=n + 1))
    hashes, ref_hashes, part_hashes = CountingHashlib(), CountingHashlib(), CountingHashlib()
    with (
        _counted_macs(w_tok.snark.verification_key) as macs,
        patch.object(drbg, "sha256", hashes.sha256),
    ):
        tokens = oracle.draw_tokens(n, want, known)
    with patch.object(drbg, "sha256", part_hashes.sha256):
        token_draws(w_part, rng_part, read, want, known)

    assert tokens == fresh
    assert oracle.budget.samples_used == n
    assert macs[0] == macs_due
    assert hashes.blocks == part_hashes.blocks
    assert w_tok.snark.registry_entries() == []

    with patch.object(drbg, "sha256", hashes.sha256):
        x = oracle.draw_input()
    with patch.object(drbg, "sha256", ref_hashes.sha256):
        ref_tokens = token_draws(w_ref, rng_ref, n, want, known)
        x_ref = w_ref.sample_input(rng_ref)
    assert tokens == ref_tokens
    assert x == x_ref == w_in.sample_input(rng_in)
    assert hashes.blocks == ref_hashes.blocks
    ahead = _streams_ahead(w_in, rng_in)
    assert _streams_ahead(w_tok, rng_tok) == ahead
    assert _streams_ahead(w_ref, rng_ref) == ahead


class _FullWalk:
    """A ladder world whose token batches read every draw (`testkit.token_draws`)."""

    def __init__(self, world):
        self.world = world

    def sample_pair(self, rng):
        return self.world.sample_pair(rng)

    def sample_input(self, rng):
        return self.world.sample_input(rng)

    def sample_tokens(self, rng, n, want, known=()):
        return token_draws(self.world, rng, n, want, known), 0

    def walk_draws(self, rng, n):
        raise AssertionError("a full walk owes no draws")


_DRAW = st.one_of(
    st.tuples(
        st.just("tokens"),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=45),
        st.booleans(),
    ),
    st.tuples(st.sampled_from(["input", "pair"])),
)


def _call(oracle: SampleOracle, draw: tuple, kept: list) -> tuple:
    """What `draw` gives on `oracle`: its output, or the budget overrun it raises."""
    try:
        if draw[0] == "input":
            return ("x", oracle.draw_input())
        if draw[0] == "pair":
            return ("xy", oracle.draw_pair())
        _, n, want, reuse = draw
        tokens = oracle.draw_tokens(n, want, kept if reuse else ())
        kept.extend(tokens)
        return ("tokens", tokens)
    except BudgetExceededError as exc:
        return ("over", str(exc))


@settings(max_examples=40, deadline=None)
@given(
    draws=st.lists(_DRAW, max_size=8),
    allowance=st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
    seed=st.binary(max_size=8),
)
@example(
    draws=[("tokens", 30, 0, False), ("input",), ("tokens", 20, 45, True), ("pair",)],
    allowance=None,
    seed=b"",
)
@example(draws=[("tokens", 40, 2, False), ("tokens", 40, 3, True), ("input",)], allowance=50, seed=b"o")
def test_mixed_draws_match_a_full_walk(draws, allowance, seed):
    """Owed draws never show: each draw gives what a full walk of every batch gives.

    `want` may be 0 or above what the batch holds, and a batch may overrun
    the allowance.  After every draw the samples charged and the world's
    proof-token stream agree too.
    """
    label = b"mixed/" + seed
    w_tok, w_ref = LADDER.world(label), LADDER.world(label)
    oracle = SampleOracle(w_tok, HashDrbg(seed), ResourceBudget(samples_allowed=allowance))
    twin = SampleOracle(_FullWalk(w_ref), HashDrbg(seed), ResourceBudget(samples_allowed=allowance))
    kept, ref_kept = [], []
    for i, draw in enumerate(draws):
        assert _call(oracle, draw, kept) == _call(twin, draw, ref_kept), i
        assert oracle.budget.samples_used == twin.budget.samples_used, i
        assert w_tok.prove_count(1).token == w_ref.prove_count(1).token, i
    oracle.budget.samples_allowed = twin.budget.samples_allowed = None
    assert oracle.draw_input() == twin.draw_input()


def test_draw_tokens_charges_its_draws_and_mixes_with_other_draws():
    allowance = 60
    w_mix, w_pair = LADDER.world(b"oracle"), LADDER.world(b"oracle")
    mixed = SampleOracle(w_mix, HashDrbg(b"party"), ResourceBudget(samples_allowed=allowance))
    pairs = SampleOracle(w_pair, HashDrbg(b"party"), ResourceBudget())
    for size in (1, 4, 0, 9, 13, 21):
        xs = [pairs.draw_pair()[0] for _ in range(size)]
        clear = [p.token for p in map(decode_payload, xs) if isinstance(p, ClearPayload)]
        want = (size + 1) // 2
        assert mixed.draw_tokens(size, want) == clear[:want], size
        x, _ = pairs.draw_pair()
        assert mixed.draw_input() == x
        x, _ = pairs.draw_pair()
        assert mixed.draw_pair()[0] == x
    assert mixed.budget.samples_used == allowance
    with pytest.raises(BudgetExceededError):
        mixed.draw_tokens(1, 1)
    assert mixed.budget.samples_used == allowance
    # the refused batch took nothing from the party's stream
    mixed.budget.samples_allowed = None
    assert mixed.draw_input() == pairs.draw_pair()[0]


def test_a_token_batch_past_the_allowance_draws_what_is_left_then_raises():
    allowance, n = 30, 50
    w_tok, w_in = LADDER.world(b"oracle"), LADDER.world(b"oracle")
    rng_tok, rng_in = HashDrbg(b"party"), HashDrbg(b"party")
    oracle = SampleOracle(w_tok, rng_tok, ResourceBudget(samples_allowed=allowance))
    with pytest.raises(BudgetExceededError, match=f"sample budget {allowance} exhausted"):
        oracle.draw_tokens(n, n)
    assert oracle.budget.samples_used == oracle.budget.samples_allowed
    # exactly the allowance was drawn, as `n` single draws would have drawn it
    _clear_tokens(w_in, rng_in, allowance)
    assert _streams_ahead(w_tok, rng_tok) == _streams_ahead(w_in, rng_in)


class _FaultyTokens:
    def sample_tokens(self, rng, n, want, known=()):
        raise ValueError("broken draw")


@pytest.mark.parametrize(
    "instance, cause",
    [(_FaultyTokens(), ValueError), (make_toy_instance(31), AttributeError)],
    ids=["raises", "no-token-view"],
)
def test_a_failing_token_draw_is_a_harness_fault(instance, cause):
    oracle = SampleOracle(instance, HashDrbg(b"party"), ResourceBudget(samples_allowed=8))
    with pytest.raises(HarnessFault, match=f"sample_tokens: {cause.__name__}") as info:
        oracle.draw_tokens(5, 2)
    assert isinstance(info.value.__cause__, cause)
    assert oracle.budget.samples_used == 5


class _FaultyWalk:
    """Token batches that owe every draw, and a walk of them that fails."""

    def sample_pair(self, rng):
        return b"x", b"y"

    def sample_input(self, rng):
        return b"x"

    def sample_tokens(self, rng, n, want, known=()):
        return [], n

    def walk_draws(self, rng, n):
        raise ValueError("broken walk")


@pytest.mark.parametrize("draw", ["draw_input", "draw_pair", "draw_tokens"])
def test_a_failing_walk_of_owed_draws_is_a_harness_fault(draw):
    oracle = SampleOracle(_FaultyWalk(), HashDrbg(b"party"), ResourceBudget(samples_allowed=8))
    assert oracle.draw_tokens(5, 2) == []
    args = (1, 1) if draw == "draw_tokens" else ()
    with pytest.raises(HarnessFault, match="walk_draws: ValueError: broken walk") as info:
        getattr(oracle, draw)(*args)
    assert isinstance(info.value.__cause__, ValueError)
    # the walk comes before the next draw is charged
    assert oracle.budget.samples_used == 5


TASK_VIEW = ("sample_pair", "sample_input", "h")
TOKEN_VIEW = ("sample_tokens", "walk_draws")


def test_only_the_ladder_task_offers_the_token_view():
    toy, chain = make_toy_instance(31), make_time_instance(31, horizon=64)
    assert all(hasattr(inst, m) for inst in (LADDER, toy, chain) for m in TASK_VIEW)
    assert all(hasattr(LADDER, m) for m in TOKEN_VIEW)
    assert not any(hasattr(toy, m) for m in TOKEN_VIEW)
    assert not any(hasattr(chain, m) for m in TOKEN_VIEW)


# --- the walk's rare paths, on streams with chosen bytes ---

_NONCE = bytes(range(100, 116))  # the crafted draw's nonce


def _reference_walk(world, rng, n: int, want: int) -> tuple[list[SignatureToken], int, int]:
    """`testkit.token_draws` a draw at a time.

    Returns the tokens, the draws after the one that gives the `want`-th
    token, and the blocks `rng` had made when that draw was read.
    """
    fresh, owed, made = [], 0, rng.hashes.blocks
    for i in range(n):
        before = len(fresh)
        fresh += token_draws(world, rng, 1, want - len(fresh), fresh)
        if before < want == len(fresh):
            owed, made = n - 1 - i, rng.hashes.blocks
    return fresh, owed, made


def _walk_as_the_reference(prefix: bytes, start: int, take_start: bool) -> list[SignatureToken]:
    """Walk 30 draws for 8 tokens after `start` bytes of a stream that starts with `prefix`.

    The tokens, the owed count, the blocks made and, once the owed draws
    are walked, the stream's position must be the reference's.
    """
    worlds = [LADDER.world(b"crafted") for _ in range(2)]
    rng, ref = (CraftedDrbg(b"walk", prefix) for _ in range(2))
    for r in (rng, ref):
        (r.take if take_start else r.skip)(start)
    tokens, owed = worlds[0].sample_tokens(rng, 30, 8)
    assert (tokens, owed, rng.hashes.blocks) == _reference_walk(worlds[1], ref, 30, 8)
    worlds[0].walk_draws(rng, owed)
    assert rng.hashes.blocks == ref.hashes.blocks
    assert rng.take(64) == ref.take(64)
    return tokens


@pytest.mark.parametrize("take_start", [True, False], ids=["taken", "skipped"])
@pytest.mark.parametrize("sealed", [0, 1])
@pytest.mark.parametrize("before_end", range(1, 18))
def test_a_draw_starting_near_a_block_end_walks_as_takes_do(before_end, sealed, take_start):
    """The draw's first 18 bytes, a one-byte level, the nonce and the sealing byte, cross a block."""
    start = 32 - before_end
    tokens = _walk_as_the_reference(bytes(start) + b"\0" + _NONCE + bytes([sealed]), start, take_start)
    assert (tokens[0].nonce == _NONCE) == (not sealed)


@pytest.mark.parametrize("take_start", [True, False], ids=["taken", "skipped"])
@pytest.mark.parametrize("start, run", [(20, 11), (20, 12), (20, 13), (31, 1), (20, 44), (3, 200)])
def test_a_level_run_across_a_block_end_walks_as_takes_do(start, run, take_start):
    """`run` odd level bytes from `start` reach past a block end; the draw is clear."""
    prefix = bytes(start) + b"\1" * run + b"\0" + _NONCE + b"\0"
    assert _walk_as_the_reference(prefix, start, take_start)[0].nonce == _NONCE
    rng = CraftedDrbg(b"walk", prefix)
    rng.take(start)
    assert decode_payload(LADDER.world(b"crafted").sample_input(rng)).level == run + 1


@pytest.mark.parametrize("take_start", [True, False], ids=["taken", "skipped"])
@pytest.mark.parametrize("start", [0, 7])
@pytest.mark.parametrize("sealed", [0, 1])
def test_the_cap_level_walks_as_takes_do(start, sealed, take_start):
    """511 odd bytes give level 512, the cap: the byte after them is the nonce's first."""
    prefix = bytes(start) + b"\1" * 511 + _NONCE + bytes([sealed])
    tokens = _walk_as_the_reference(prefix, start, take_start)
    assert (tokens[0].nonce == _NONCE) == (not sealed)
    rng = CraftedDrbg(b"walk", prefix)
    rng.take(start)
    x = decode_payload(LADDER.world(b"crafted").sample_input(rng))
    assert sealed or x.level == 512
