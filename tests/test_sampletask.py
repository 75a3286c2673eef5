"""Token-ladder task: level law, sampling, quality oracle, builders."""

from __future__ import annotations

import hmac
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

import detmit.crypto as crypto
from detmit.crypto import (
    IdentityCipher,
    IdentityKey,
    NONCE_LEN,
    ProofToken,
    SignatureToken,
    VerificationKey,
    WitnessError,
    ZERO_MESSAGE,
    sig_keygen,
    sig_sign_zero,
    sig_verify,
    snark_extract,
)
from detmit.drbg import HashDrbg
from detmit.payloads import (
    ClearPayload,
    EncPayload,
    bottom,
    decode_payload,
    encode_payload,
)
from detmit.sampletask import (
    DataTaskInstance,
    LevelLaw,
    make_data_instance,
    next_level,
)
from testkit import (
    CraftedDrbg,
    build_clear_input,
    build_enc_input,
    clear_pair_at,
    inner_level,
    level_bits,
    seal_pair,
)

INST = make_data_instance(21)
R = HashDrbg(b"ladder-tests")


def test_next_level_values():
    assert [next_level(k) for k in (1, 2, 3, 4, 9, 16, 400, 512)] == [
        2, 3, 4, 6, 12, 20, 420, 534,
    ]


def pmf(law: LevelLaw, k: int) -> float:
    """Geometric(1/2) on {1, 2, ...} with the tail mass folded onto `law.cap`."""
    if not 1 <= k <= law.cap:
        return 0.0
    return 2.0 ** -(law.cap - 1) if k == law.cap else 2.0**-k


def test_level_law_pmf_and_cap():
    law = LevelLaw(cap=512)
    assert pmf(law, 1) == 0.5
    assert pmf(law, 5) == 2.0**-5
    assert pmf(law, 512) == 2.0**-511  # tail mass folds onto the cap
    assert pmf(law, 0) == 0.0 and pmf(law, 513) == 0.0
    assert abs(sum(pmf(law, k) for k in range(1, 513)) - 1.0) < 1e-15


def test_level_law_sampling_matches_pmf():
    law = LevelLaw(cap=8)
    rng = HashDrbg(b"law")
    n = 20_000
    counts = [0] * 9
    for _ in range(n):
        counts[law.sample(rng)] += 1
    for k in range(1, 9):
        expect = n * pmf(law, k)
        sigma = (n * pmf(law, k) * (1 - pmf(law, k))) ** 0.5
        assert abs(counts[k] - expect) <= 4 * sigma + 1, k


@pytest.mark.parametrize("take_start", [True, False], ids=["taken", "skipped"])
@pytest.mark.parametrize("start, run", [(0, 0), (31, 1), (20, 12), (30, 40), (5, 255), (9, 511), (2, 600)])
@pytest.mark.parametrize("cap", [4, 256, 512])
def test_level_law_reads_a_run_as_one_byte_takes_do(cap, start, run, take_start):
    """A run of `run` odd bytes from `start`, across a block end when it is long enough."""
    rng, ref = (CraftedDrbg(b"law", bytes(start) + b"\1" * run + b"\0") for _ in range(2))
    for r in (rng, ref):
        (r.take if take_start else r.skip)(start)
    assert LevelLaw(cap).sample(rng) == level_bits(cap, ref) == min(run + 1, cap)
    assert rng.hashes.blocks == ref.hashes.blocks
    assert rng.take(40) == ref.take(40)


@given(st.lists(st.sampled_from([0, 1, 1, 1, 3, 255]), max_size=80), st.integers(1, 40))
def test_level_law_draws_as_one_byte_takes_do(prefix, cap):
    """Successive levels from mostly odd bytes, each run wherever the last one ended."""
    rng, ref = (CraftedDrbg(b"law", bytes(prefix)) for _ in range(2))
    for _ in range(12):
        assert LevelLaw(cap).sample(rng) == level_bits(cap, ref)
        assert rng.hashes.blocks == ref.hashes.blocks
    assert rng.take(40) == ref.take(40)


def test_widths_cover_all_levels():
    assert INST.inner_width % 32 == 0 and INST.width % 32 == 0
    x, y = clear_pair_at(INST, INST.level_cap, R.child("wide"))
    assert len(encode_payload(x, INST.width)) == INST.width
    assert len(encode_payload(y, INST.inner_width)) == INST.inner_width


def test_sample_pair_forms_and_charging():
    rng = R.child("forms")
    forms = {type(decode_payload(INST.sample_pair(rng)[0])) for _ in range(64)}
    assert forms == {ClearPayload, EncPayload}


def test_clear_pair_is_correct_answer():
    rng = R.child("clear")
    x, y = clear_pair_at(INST, 5, rng)
    assert y.token == x.token and y.level == next_level(5)
    assert INST.h(encode_payload(x, INST.width), encode_payload(y, INST.width)) == 0


def test_enc_pair_is_correct_answer():
    rng = R.child("enc")
    x, y = clear_pair_at(INST, 3, rng)
    ex, ey = seal_pair(INST, x, y, rng)
    assert ex.id1 and ex.id2 and ex.key2
    assert ey.id1 == b"" and ey.id2 == b"" and ey.key2 == b""
    assert INST.h(encode_payload(ex, INST.width), encode_payload(ey, INST.width)) == 0


def test_h_malformed_input_scores_zero():
    assert INST.h(b"\x07garbage", b"anything") == 0
    assert INST.h(bottom(INST.width), b"") == 0


def test_h_wrong_answers_score_one():
    rng = R.child("wrong")
    x, y = clear_pair_at(INST, 4, rng)
    xb = encode_payload(x, INST.width)
    assert INST.h(xb, bottom(INST.width)) == 1  # refusing an answerable input
    assert INST.h(xb, b"junk") == 1
    # level below the required climb
    low = ClearPayload(x.token, x.level, x.proof)
    assert INST.h(xb, encode_payload(low, INST.width)) == 1
    # right level, wrong token
    other = sig_sign_zero(INST.snark.verification_key, rng.take(NONCE_LEN))
    swapped = ClearPayload(other, y.level, y.proof)
    assert INST.h(xb, encode_payload(swapped, INST.width)) == 1
    # unregistered proof
    fake = ClearPayload(x.token, y.level, ProofToken(rng.take(16), y.proof.statement_digest))
    assert INST.h(xb, encode_payload(fake, INST.width)) == 1


def test_h_statement_binding():
    # a proof for level n does not verify as a proof for level n+1
    rng = R.child("bind")
    x, y = clear_pair_at(INST, 4, rng)
    inflated = ClearPayload(x.token, y.level + 3, y.proof)
    assert INST.h(encode_payload(x, INST.width), encode_payload(inflated, INST.width)) == 1


def test_h_crypto_invalid_input_scores_zero():
    # parseable input whose own proof fails: forged, so no answer to it is
    # wrong — not even one built honestly for the level it claims
    rng = R.child("invalid")
    x, y = clear_pair_at(INST, 4, rng)
    bad_x = ClearPayload(x.token, 6, x.proof)  # proof is for level 4, not 6
    assert (
        INST.h(encode_payload(bad_x, INST.width), encode_payload(y, INST.width)) == 0
    )


def test_h_encrypted_edges():
    rng = R.child("edges")
    x, y = clear_pair_at(INST, 2, rng)
    ex, ey = seal_pair(INST, x, y, rng)
    exb = encode_payload(ex, INST.width)
    # clear answer to an encrypted input leaks nothing useful: scores 1
    assert INST.h(exb, encode_payload(y, INST.width)) == 1
    # answer under the wrong identity fails to decrypt: scores 1
    other_id = rng.take(16)
    cipher = IdentityCipher(INST.fhe.keygen(other_id))
    ct = cipher.encrypt(encode_payload(y, INST.inner_width), rng)
    wrong = EncPayload(ct, b"", b"", b"")
    assert INST.h(exb, encode_payload(wrong, INST.width)) == 1
    # undecryptable x: defense is off the hook
    from detmit.crypto import Ciphertext

    junk = EncPayload(Ciphertext(ex.id1, rng.take(64)), ex.id1, ex.id2, ex.key2)
    assert INST.h(encode_payload(junk, INST.width), b"") == 0


def test_build_inputs_and_levels():
    rng = R.child("build")
    xb = build_clear_input(INST, 10, rng)
    xp = decode_payload(xb)
    assert isinstance(xp, ClearPayload) and xp.level == 10
    eb = build_enc_input(INST, 10, rng)
    p = decode_payload(eb)
    assert isinstance(p, EncPayload)
    key1 = INST.fhe.keygen(p.id1)
    assert inner_level(eb, key1) == 10


def test_prove_count_range():
    with pytest.raises(ValueError):
        INST.prove_count(0)
    with pytest.raises(ValueError):
        INST.prove_count(INST.max_provable_level + 1)


def test_shipped_key_pair_works():
    # the (id2, key2) pair inside an encrypted draw really decrypts for id2
    rng = R.child("shipped")
    x, y = clear_pair_at(INST, 2, rng)
    ex, _ = seal_pair(INST, x, y, rng)
    key = IdentityKey(ex.id2, ex.key2)
    cipher = IdentityCipher(key)
    ct = cipher.encrypt(b"smuggled", rng)
    assert cipher.decrypt(ct) == b"smuggled"
    assert key == INST.fhe.keygen(ex.id2)


def test_distinct_instances_dont_cross_verify():
    # another instance's input is forged here, so even its own answer scores 0
    other = make_data_instance(22)
    rng = R.child("cross")
    x, y = clear_pair_at(INST, 3, rng)
    assert INST.h(encode_payload(x, INST.width), encode_payload(y, INST.width)) == 0
    assert other.h(encode_payload(x, other.width), encode_payload(y, other.width)) == 0
    # and its answers do not verify for an input of this instance
    x2, _ = clear_pair_at(other, 3, rng)
    answer = ClearPayload(x.token, y.level, x2.proof)
    assert INST.h(encode_payload(x, INST.width), encode_payload(answer, INST.width)) == 1


@pytest.mark.parametrize("sealed", [False, True], ids=["clear", "sealed"])
def test_replayed_draw_at_a_higher_level_scores_zero(sealed):
    # a zero-query forger: one clear draw replayed at level + 1 with its old
    # proof, in the clear or sealed under the key an encrypted draw ships
    world = INST.world(b"forger")
    rng = R.child("forger")
    x, _ = clear_pair_at(world, 5, rng, answer=False)
    forged = ClearPayload(x.token, x.level + 1, x.proof)
    _, y = clear_pair_at(world, forged.level, rng)  # a proof at the level forged needs
    answer = ClearPayload(x.token, y.level, y.proof)
    shipped = decode_payload(build_enc_input(world, 2, rng))
    cipher = IdentityCipher(IdentityKey(shipped.id2, shipped.key2))

    def wire(p):
        if sealed:
            ct = cipher.encrypt(encode_payload(p, world.inner_width), rng)
            p = EncPayload(ct, shipped.id2, b"", b"")
        return encode_payload(p, world.width)

    for yb in (bottom(world.width), b"junk", wire(answer)):
        assert world.h(wire(forged), yb) == 0
    # the draw at its own level is genuine: refusing it is wrong, answering right
    assert world.h(wire(x), bottom(world.width)) == 1
    assert world.h(wire(x), wire(answer)) == 0


@pytest.fixture()
def pool_checks(monkeypatch):
    """Every token the count provers check, in order."""
    checked = []

    def counting_verify(vk, tok):
        checked.append(tok)
        return sig_verify(vk, tok)

    monkeypatch.setattr(crypto, "sig_verify", counting_verify)
    return checked


def test_world_checks_each_pool_token_at_most_once(pool_checks):
    world = INST.world(b"once")
    for count in (3, 1, 9, 9, 4, 12, 2):
        proof = world.prove_count(count)
        assert snark_extract(world.snark, proof) == INST._pool[:count]
    assert pool_checks == list(INST._pool[:12])


def test_worlds_check_their_own_prefix(pool_checks):
    a, b = INST.world(b"a"), INST.world(b"b")
    a.prove_count(7)
    b.prove_count(4)
    a.prove_count(5)
    assert pool_checks == [*INST._pool[:7], *INST._pool[:4]]
    assert a.snark.registry_entries() and b.snark.registry_entries()
    assert set(a.snark.registry_entries()).isdisjoint(b.snark.registry_entries())


def test_world_with_a_corrupted_pool_token_proves_nothing_short():
    inst = make_data_instance(23)
    pool = inst._pool
    bad = SignatureToken(pool[3].nonce, bytes(64))
    inst._pool = (*pool[:3], bad, *pool[4:])
    world = inst.world(b"corrupt")
    with pytest.raises(WitnessError):
        world.prove_count(inst.max_provable_level)
    assert world.snark.registry_entries() == []
    # counts the valid tokens still cover are proved without the bad one
    proof = world.prove_count(5)
    assert snark_extract(world.snark, proof) == (*pool[:3], *pool[4:6])


# --- a world's key recognizes the tokens it signed --------------------------------

WORLD, OTHER_WORLD = INST.world(b"keys"), INST.world(b"other-keys")
WORLD_DRAWN = WORLD.sample_tokens(HashDrbg(b"key-draws"), 64, 64)[0]
SIGNERS = {
    "this-world": WORLD.snark.verification_key,
    "other-world": OTHER_WORLD.snark.verification_key,
    "instance": INST.snark.verification_key,
    "other-key": sig_keygen(HashDrbg(b"another-key")),
}


def mac_check(token: SignatureToken) -> bool:
    """`sig_verify` on the instance's key, computed afresh with `hmac`."""
    sk = INST.snark.verification_key._mac_key
    mac = hmac.digest(sk, ZERO_MESSAGE + token.nonce, "sha512")
    return len(token.nonce) == NONCE_LEN and hmac.compare_digest(token.core, mac)


@st.composite
def tokens_to_check(draw) -> SignatureToken:
    signer = draw(st.sampled_from([*SIGNERS, "drawn", "pool"]))
    if signer == "drawn":
        token = draw(st.sampled_from(WORLD_DRAWN))
    elif signer == "pool":
        token = draw(st.sampled_from(INST._pool[:32]))
    else:  # some nonces of the wrong length, signed all the same
        nonce = draw(st.binary(min_size=16, max_size=16) | st.binary(max_size=20))
        token = sig_sign_zero(SIGNERS[signer], nonce)
    nonce, core = token
    change = draw(st.sampled_from(["none", "nonce", "core", "short-core", "nonce-length"]))
    if change in ("nonce", "core"):
        field = bytearray(token.nonce if change == "nonce" else core)
        if field:
            field[draw(st.integers(0, len(field) - 1))] ^= draw(st.integers(1, 255))
        token = token._replace(**{change: bytes(field)})
    elif change == "short-core":
        token = token._replace(core=core[: draw(st.integers(0, len(core) - 1))])
    elif change == "nonce-length":
        token = token._replace(nonce=nonce + b"\x00" if draw(st.booleans()) else nonce[:-1])
    return token


@given(tokens_to_check())
def test_a_world_key_verifies_as_the_mac_does(token):
    for world in (WORLD, OTHER_WORLD):
        assert sig_verify(world.snark.verification_key, token) == mac_check(token)
    assert sig_verify(INST.snark.verification_key, token) == mac_check(token)


def test_a_world_key_checks_its_own_tokens_without_a_mac():
    world = INST.world(b"no-mac")
    assert world.snark.verification_key.digest == INST.snark.verification_key.digest
    tokens = world.sample_tokens(HashDrbg(b"own"), 16, 16)[0]
    mine = decode_payload(world.sample_input(HashDrbg(b"own-input")))
    others = OTHER_WORLD.sample_tokens(HashDrbg(b"others"), 16, 16)[0]
    macs, mac = [], VerificationKey._mac
    with patch.object(VerificationKey, "_mac", lambda key, m: macs.append(m) or mac(key, m)):
        assert all(sig_verify(world.snark.verification_key, t) for t in tokens)
        if isinstance(mine, ClearPayload):
            assert world.genuine(mine)
        assert macs == []
        assert all(sig_verify(world.snark.verification_key, t) for t in others)
        assert len(macs) == len(others)


def test_signing_through_the_instance_records_nothing():
    inst = make_data_instance(24)  # gen-instance emits its pairs through the instance
    rng = HashDrbg(b"emit")
    for _ in range(16):
        inst.sample_pair(rng)
    inst.prove_count(40)
    assert inst.snark.verification_key._signed is None
    world = inst.world(b"w")
    world.sample_pair(rng)
    assert world.snark.verification_key._signed and inst.snark.verification_key._signed is None
