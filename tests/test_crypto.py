"""Contracts of the simulated cryptographic backends."""

from __future__ import annotations

import hmac
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detmit.crypto as crypto
from detmit.crypto import (
    EVAL_FAILED,
    Ciphertext,
    CountProver,
    FheSystem,
    IdentityCipher,
    IdentityKey,
    IvcKeys,
    IvcProof,
    NONCE_LEN,
    ProofChainError,
    ProofToken,
    SignatureToken,
    SnarkParams,
    StepMeter,
    StepsExhausted,
    VerificationKey,
    WitnessError,
    ZERO_MESSAGE,
    ivc_update,
    ivc_verify,
    npl_step,
    sha256,
    sig_keygen,
    sig_sign_zero,
    sig_verify,
    snark_extract,
    snark_prove,
    snark_verify,
    statement_digest,
)
from detmit.drbg import HashDrbg
from detmit.payloads import TimePayload, decode_payload, encode_payload
from detmit.wire import pack_fields
from testkit import ivc_prove, meter_run, proof_token_from_bytes, signature_token_from_bytes


@pytest.fixture(scope="module")
def rng():
    return HashDrbg(b"crypto-tests")


@pytest.fixture(scope="module")
def vk(rng):
    return sig_keygen(rng.child("kp"))


# --- signatures -----------------------------------------------------------------


def test_sign_verify_roundtrip(rng, vk):
    tok = sig_sign_zero(vk, rng.child("t1").take(NONCE_LEN))
    assert sig_verify(vk, tok)
    assert signature_token_from_bytes(pack_fields(tok.nonce, tok.core)) == tok


def test_tokens_are_distinct(rng, vk):
    r = rng.child("distinct")
    toks = {
        pack_fields(tok.nonce, tok.core)
        for tok in (sig_sign_zero(vk, r.take(NONCE_LEN)) for _ in range(64))
    }
    assert len(toks) == 64


def test_mutated_tokens_rejected(rng, vk):
    tok = sig_sign_zero(vk, rng.child("t2").take(NONCE_LEN))
    flipped_nonce = SignatureToken(
        bytes([tok.nonce[0] ^ 1]) + tok.nonce[1:], tok.core
    )
    flipped_core = SignatureToken(
        tok.nonce, bytes([tok.core[0] ^ 1]) + tok.core[1:]
    )
    assert not sig_verify(vk, flipped_nonce)
    assert not sig_verify(vk, flipped_core)
    assert not sig_verify(vk, SignatureToken(tok.nonce, tok.core[:-1]))
    other = sig_keygen(rng.child("kp2"))
    assert not sig_verify(other, tok)


def test_verification_key_shows_only_its_digest(vk):
    assert len(vk.digest) == 32
    assert repr(vk) == f"VerificationKey(digest={vk.digest!r})"


class _Fixed:
    """A stand-in stream that hands out one given byte string."""

    def __init__(self, data: bytes):
        self.data = data

    def take(self, n: int) -> bytes:
        assert n == len(self.data)
        return self.data


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=16, max_size=16))
def test_token_core_is_hmac_sha512_of_zero_message_and_nonce(sk, nonce):
    vk = sig_keygen(_Fixed(sk))
    tok = sig_sign_zero(vk, nonce)
    assert tok == SignatureToken(nonce, hmac.digest(sk, ZERO_MESSAGE + nonce, "sha512"))
    assert sig_verify(vk, tok)


@given(st.lists(st.binary(max_size=NONCE_LEN + 4), max_size=12))
def test_a_bound_signer_signs_as_sig_sign_zero(nonces):
    """`zero_signer` makes `sig_sign_zero`'s token for each nonce; a fork's
    signer records them in the fork's set, and the key it forks records none."""
    key = sig_keygen(HashDrbg(b"bound-signer"))
    want = [sig_sign_zero(key, nonce) for nonce in nonces]
    sign = key.zero_signer()
    assert [sign(nonce) for nonce in nonces] == want
    fork = key.fork()
    sign = fork.zero_signer()
    assert [sign(nonce) for nonce in nonces] == want
    assert fork._signed == set(want)
    assert key._signed is None
    for token in want:
        assert sig_verify(fork, token) == sig_verify(key, token) == (len(token.nonce) == NONCE_LEN)


@pytest.mark.parametrize(
    "key, data, mac",
    [
        pytest.param(
            b"\x0b" * 20, b"Hi There",
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854",
            id="case-1",
        ),
        pytest.param(
            b"Jefe", b"what do ya want for nothing?",
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554"
            "9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737",
            id="case-2",
        ),
        pytest.param(
            b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
            "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f352"
            "6b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598",
            id="case-6-long-key",
        ),
    ],
)
def test_pad_state_mac_passes_rfc4231(key, data, mac):
    vk = VerificationKey(digest=sha256(key), _mac_key=key)
    assert vk._mac(data).hex() == mac
    # the pad states are only copied, so a second MAC is the same
    assert vk._mac(data).hex() == mac


def test_bad_nonce_length_rejected(vk):
    assert not sig_verify(vk, SignatureToken(b"short", b"x" * 64))


# --- count proofs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def snark(rng, vk):
    return SnarkParams(rng.child("snark"), vk)


@pytest.fixture(scope="module")
def tokens(rng, vk):
    r = rng.child("pool")
    return [sig_sign_zero(vk, r.take(NONCE_LEN)) for _ in range(24)]


def test_prove_verify_extract(snark, tokens):
    proof = snark_prove(snark, 5, tokens[:5])
    assert snark_verify(snark, 5, proof)
    assert snark_extract(snark, proof) == tuple(tokens[:5])
    assert proof_token_from_bytes(pack_fields(proof.token, proof.statement_digest)) == proof


def test_extract_finds_no_witness_for_a_proof_no_registry_holds(snark, tokens, rng):
    """A fabricated token, and a proof registered in another world, extract to None."""
    proof = snark_prove(snark, 5, tokens[:5])
    fabricated = ProofToken(rng.child("fabricated").take(len(proof.token)), proof.statement_digest)
    assert snark_extract(snark, fabricated) is None
    world, sibling = snark.fork(b"world"), snark.fork(b"sibling")
    elsewhere = snark_prove(world, 5, tokens[:5])
    assert snark_extract(world, elsewhere) == tuple(tokens[:5])
    assert snark_extract(sibling, elsewhere) is None
    assert snark_extract(snark, elsewhere) is None


def test_proof_bound_to_statement(snark, tokens):
    proof = snark_prove(snark, 3, tokens[:3])
    assert not snark_verify(snark, 4, proof)


def test_insufficient_witness_rejected(snark, tokens, vk, rng):
    with pytest.raises(WitnessError):
        snark_prove(snark, 5, tokens[:4])
    # duplicates don't count twice
    with pytest.raises(WitnessError):
        snark_prove(snark, 3, [tokens[0], tokens[0], tokens[1]])
    # invalid tokens don't count at all
    bad = SignatureToken(tokens[0].nonce, b"\x00" * 64)
    with pytest.raises(WitnessError):
        snark_prove(snark, 2, [tokens[0], bad])


def test_prove_counts_equals_successive_single_proofs(rng, vk, tokens):
    bad = SignatureToken(tokens[1].nonce, b"\x00" * 64)
    witness = [tokens[0], tokens[0], bad, *tokens[1:10]]
    valid = tokens[:10]  # the distinct valid tokens, in witness order
    counts = [3, 1, 7, 5]
    batch = SnarkParams(rng.child("counts"), vk)
    single = SnarkParams(rng.child("counts"), vk)
    proofs = CountProver(batch, witness).prove(counts)
    assert proofs == [snark_prove(single, c, witness) for c in counts]
    for count, proof in zip(counts, proofs):
        assert snark_verify(batch, count, proof)
        assert snark_extract(batch, proof) == tuple(valid[:count])


def test_prove_counts_short_witness_registers_nothing(rng, vk, tokens):
    params = SnarkParams(rng.child("short"), vk)
    with pytest.raises(WitnessError):
        CountProver(params, tokens[:5]).prove([2, 6])
    assert params.registry_entries() == []
    # nor did it take from the proof-token stream
    fresh = SnarkParams(rng.child("short"), vk)
    assert CountProver(params, tokens).prove([2]) == CountProver(fresh, tokens).prove([2])


def test_count_prover_checks_each_witness_token_once(rng, vk, tokens, monkeypatch):
    bad = SignatureToken(tokens[1].nonce, b"\x00" * 64)
    witness = (tokens[0], tokens[0], bad, *tokens[1:10])
    counts = [3, 1, 7, 2, 7, 5]
    single = SnarkParams(rng.child("once"), vk)
    wants = [snark_prove(single, c, list(witness)) for c in counts]

    checked = []

    def counting_verify(vk, tok):
        checked.append(tok)
        return sig_verify(vk, tok)

    monkeypatch.setattr(crypto, "sig_verify", counting_verify)
    prover = CountProver(SnarkParams(rng.child("once"), vk), witness)
    for count, want in zip(counts, wants):
        assert prover.prove([count]) == [want]
        assert snark_extract(prover.params, want) == tuple(tokens[:count])
    # the repeat of tokens[0] is never checked, nor anything past the 7th valid token
    assert checked == [tokens[0], bad, *tokens[1:7]]


def test_extended_prover_checks_only_what_is_new(rng, vk, tokens, monkeypatch):
    bad = SignatureToken(tokens[1].nonce, b"\x00" * 64)
    head = [tokens[0], tokens[0], bad, *tokens[1:6]]
    more = [tokens[3], *tokens[6:12]]  # a repeat of a head token, then new ones
    checked = []

    def counting_verify(vk, tok):
        checked.append(tok)
        return sig_verify(vk, tok)

    monkeypatch.setattr(crypto, "sig_verify", counting_verify)
    fresh = CountProver(SnarkParams(rng.child("extended"), vk), head + more)
    wants = [*fresh.prove([4]), *fresh.prove([9, 7])]
    fresh_checks, checked[:] = list(checked), []

    base = CountProver(SnarkParams(rng.child("extended"), vk), head)
    got = base.prove([4])
    base_checks, checked[:] = list(checked), []
    head[7] = bad  # the prover holds its own witness, not the caller's list
    extended = base.extended(more)
    got += extended.prove([9, 7])
    assert got == wants
    for proof in got:
        assert snark_extract(extended.params, proof) == snark_extract(fresh.params, proof)
    # the extension checks exactly what a fresh prover would, less the base's checks
    assert base_checks == [tokens[0], bad, *tokens[1:4]]
    assert checked == fresh_checks[len(base_checks):] == [*tokens[4:6], *tokens[6:9]]
    # the base prover is left as it was
    checked[:] = []
    assert snark_extract(base.params, base.prove([5])[0]) == tuple(tokens[:5])
    assert checked == [tokens[4]]


def test_count_prover_short_witness_registers_nothing(rng, vk, tokens):
    params = SnarkParams(rng.child("prover-short"), vk)
    prover = CountProver(params, tokens[:4])
    with pytest.raises(WitnessError):
        prover.prove([2, 5])
    assert params.registry_entries() == []
    fresh = SnarkParams(rng.child("prover-short"), vk)
    assert prover.prove([2]) == CountProver(fresh, tokens).prove([2])


def _first_distinct_valid(vk, witness, count) -> tuple[SignatureToken, ...]:
    """The first `count` pairwise-distinct valid tokens of `witness`, written out."""
    distinct: list[SignatureToken] = []
    for tok in witness:
        if tok not in distinct and sig_verify(vk, tok):
            distinct.append(tok)
    return tuple(distinct[:count])


# indexes into a pool of 10 valid tokens then 4 invalid ones
_WITNESS = st.lists(st.integers(min_value=0, max_value=13), max_size=20)


@settings(max_examples=80, deadline=None)
@given(
    head=_WITNESS,
    more=_WITNESS,
    ops=st.lists(
        st.tuples(st.booleans(), st.lists(st.integers(1, 16), min_size=1, max_size=3)),
        max_size=8,
    ),
    extend_at=st.integers(min_value=0, max_value=8),
)
@example(  # checks on, raises partway, extends, proves on from both, raises on the extension
    head=[0, 1, 10, 1, 2], more=[3, 2, 11, 4],
    ops=[(False, [2]), (False, [3, 5]), (True, [5, 4]), (False, [1, 3]), (True, [6]), (False, [2])],
    extend_at=2,
)
def test_registered_witnesses_stay_the_prefix_their_count_names(
    vk, tokens, head, more, ops, extend_at
):
    """The registry holds a proof's witness by reference: every registered proof
    extracts to the first `count` distinct valid tokens of its prover's witness
    after each later step, whether the same prover checks further tokens, an
    `extended()` prover proves on, or an `_extend` raises partway through."""
    pool = [*tokens[:10], *(SignatureToken(t.nonce, bytes(64)) for t in tokens[10:14])]
    witness = {False: [pool[i] for i in head]}
    witness[True] = witness[False] + [pool[i] for i in more]
    params = SnarkParams(HashDrbg(b"by-reference"), vk)
    provers = {False: CountProver(params, witness[False])}
    registered: list[tuple[ProofToken, tuple[SignatureToken, ...]]] = []
    for step, (on_extension, counts) in enumerate(ops):
        if step == extend_at:
            provers[True] = provers[False].extended(witness[True][len(head):])
        which = on_extension and True in provers
        try:
            proofs = provers[which].prove(counts)
        except WitnessError:
            assert len(_first_distinct_valid(vk, witness[which], max(counts))) < max(counts)
        else:
            registered += [
                (proof, _first_distinct_valid(vk, witness[which], count))
                for proof, count in zip(proofs, counts)
            ]
        for proof, want in registered:
            assert snark_extract(params, proof) == want
    assert len(params.registry_entries()) == len(registered)


def test_random_proof_tokens_rejected(snark):
    r = HashDrbg(b"random-proofs")
    digest = statement_digest(2, snark.key_digest)
    assert all(
        not snark_verify(snark, 2, ProofToken(r.take(16), digest))
        for _ in range(1000)
    )


def test_statement_digest_binds_count_and_key():
    a = statement_digest(3, sha256(b"k1"))
    assert a != statement_digest(4, sha256(b"k1"))
    assert a != statement_digest(3, sha256(b"k2"))


# --- identity encryption -----------------------------------------------------------


@pytest.fixture(scope="module")
def fhe(rng):
    return FheSystem(rng.child("fhe"))


def test_encrypt_decrypt_roundtrip(fhe, rng):
    r = rng.child("enc")
    identity = r.take(16)
    ct = IdentityCipher(fhe.keygen(identity)).encrypt(b"hello payload", r)
    assert ct.identity_tag == identity
    # identity keys are derived, so a cipher built afresh opens it
    assert IdentityCipher(fhe.keygen(identity)).decrypt(ct) == b"hello payload"


def test_decrypt_wrong_identity_fails(fhe, rng):
    r = rng.child("enc2")
    id_a, id_b = r.take(16), r.take(16)
    ct = IdentityCipher(fhe.keygen(id_a)).encrypt(b"secret", r)
    assert IdentityCipher(fhe.keygen(id_b)).decrypt(ct) is None
    # forged tag on a real body fails authentication
    forged = Ciphertext(id_b, ct.body)
    assert IdentityCipher(fhe.keygen(id_b)).decrypt(forged) is None


def test_eval_transparency(fhe, rng):
    r = rng.child("eval")
    identity = r.take(16)
    cipher = IdentityCipher(fhe.keygen(identity))
    out = fhe.eval(lambda pt: pt[::-1], cipher.encrypt(b"abcdef", r))
    assert cipher.decrypt(out) == b"fedcba"


def test_a_registered_circuit_is_eval_bound_to_it_and_stores_nothing(fhe, rng):
    """`register_circuit` returns `eval` with the circuit bound; the system keeps no table."""
    r = rng.child("bound")
    ct = IdentityCipher(fhe.keygen(r.take(16))).encrypt(b"abcdef", r)
    fn = lambda pt: pt[::-1]  # noqa: E731
    bound, direct = fhe.fork(b"twin"), fhe.fork(b"twin")
    state = dict(vars(bound))
    circuit = bound.register_circuit(fn)
    assert vars(bound) == state
    assert [circuit(ct), circuit(ct)] == [direct.eval(fn, ct), direct.eval(fn, ct)]


def test_eval_bad_ciphertext_yields_failure_marker(fhe, rng):
    r = rng.child("eval2")
    identity = r.take(16)
    garbage = Ciphertext(identity, r.take(40))
    out = fhe.eval(lambda pt: pt, garbage)
    assert IdentityCipher(fhe.keygen(identity)).decrypt(out) == EVAL_FAILED


def test_eval_keeps_one_cipher_per_identity_in_its_own_world(rng):
    """A world's eval answers as a fresh cipher would, building one per identity it sees."""
    r = rng.child("cipher-table")
    fhe = FheSystem(r.child("fhe"))
    id_a, id_b = r.take(16), r.take(16)
    valid = IdentityCipher(fhe.keygen(id_a)).encrypt(b"abcdef", r)
    fhe.eval(bytes, valid)  # the instance's own table holds id_a
    world, sibling = fhe.fork(b"world"), fhe.fork(b"sibling")
    assert world._ciphers == {} and sibling._ciphers == {}
    assert world._ciphers is not sibling._ciphers
    circuit = world.register_circuit(lambda pt: pt[::-1])

    nonces = fhe._drbg.child(b"world")  # the world's eval nonces, drawn apart
    wrong_tag, undecryptable = Ciphertext(id_b, valid.body), Ciphertext(id_a, r.take(40))
    for ct in (valid, wrong_tag, undecryptable, valid, wrong_tag):
        fresh = IdentityCipher(fhe.keygen(ct.identity_tag))
        plaintext = fresh.decrypt(ct)
        expect = fresh.encrypt(EVAL_FAILED if plaintext is None else plaintext[::-1], nonces)
        assert circuit(ct) == expect
    assert fresh.decrypt(expect) == EVAL_FAILED  # the wrong tag's marker, sealed under id_b
    failed = circuit(undecryptable)
    assert failed.identity_tag == id_a
    assert IdentityCipher(fhe.keygen(id_a)).decrypt(failed) == EVAL_FAILED
    assert set(world._ciphers) == {id_a, id_b}
    assert sibling._ciphers == {} and set(fhe._ciphers) == {id_a}

    with pytest.raises(ValueError):
        circuit(Ciphertext(bytes(15), valid.body))
    assert set(world._ciphers) == {id_a, id_b}


def test_identity_keys_are_sha256_of_master_secret_and_tag(fhe, rng):
    r = rng.child("idkeys")
    world = fhe.fork(b"world")
    for identity in (r.take(16), r.take(16), bytes(16)):
        key = sha256(b"fhe-id-key:" + fhe._msk + identity)
        assert fhe.keygen(identity) == world.keygen(identity) == IdentityKey(identity, key)


def test_keygen_requires_16_byte_tag(fhe):
    with pytest.raises(ValueError):
        fhe.keygen(b"short")


# --- step meter ---------------------------------------------------------------------


def test_meter_attributes_and_limits():
    meter = StepMeter()
    state = sha256(b"s0")
    out = meter_run(meter, state, 5)
    ref = state
    for _ in range(5):
        ref = npl_step(ref)
    assert out == ref
    assert (meter.used, meter.limit) == (5, None)
    bob = StepMeter(2)
    bob.step(state)
    bob.step(state)
    with pytest.raises(StepsExhausted, match="step budget 2 exhausted"):
        bob.step(state)
    assert bob.used == 2
    assert bob.charge(3) == 0 and bob.used == 2
    # a run is granted up to the limit left
    carol = StepMeter(4)
    assert carol.charge(3) == 3 and carol.charge(3) == 1 and carol.used == 4


@pytest.mark.parametrize("limit", [None, 8])
def test_meter_refuses_a_negative_charge(limit):
    meter = StepMeter(limit)
    meter.charge(5)
    with pytest.raises(ValueError, match="steps must be >= 0, got -10"):
        meter.charge(-10)
    assert meter.used == 5


# --- chain proofs ---------------------------------------------------------------------


def test_ivc_prove_verify(rng):
    meter = StepMeter()
    start = sha256(b"start")
    keys = IvcKeys(rng.child("ivc"), b"base", start)
    state, proof = ivc_prove(keys, 10, meter)
    assert proof.steps == 10
    assert ivc_verify(keys, 10, state, proof)
    ref = start
    for _ in range(10):
        ref = npl_step(ref)
    assert state == ref
    assert meter.used == 10
    assert keys.steps_run == 10
    # a proof travels inside a chain payload, beside the state it proves
    payload = TimePayload(steps=10, config=state, proof=proof)
    assert decode_payload(encode_payload(payload)) == payload


def test_ivc_rejects_forgeries(rng):
    keys = IvcKeys(rng.child("ivc2"), b"base", sha256(b"start2"))
    state, proof = ivc_prove(keys, 4)
    assert not ivc_verify(keys, 5, state, proof)  # wrong step count
    assert not ivc_verify(keys, 4, sha256(b"other"), proof)  # wrong state
    fake = IvcProof(4, sha256(b"fake"))
    assert not ivc_verify(keys, 4, state, fake)  # wrong commitment
    with pytest.raises(ProofChainError):
        ivc_update(keys, state, fake, StepMeter())  # cannot extend a forged chain


def test_ivc_update_charges_exactly_one_step(rng):
    meter = StepMeter()
    start = sha256(b"start3")
    keys = IvcKeys(rng.child("ivc3"), b"base", start)
    proof = keys.base_proof()
    assert meter.used == keys.steps_run == 0
    state, proof = ivc_update(keys, start, proof, meter)
    assert meter.used == keys.steps_run == 1
    assert ivc_verify(keys, 1, state, proof)


# --- runs of chain steps ---------------------------------------------------------------


def _chain_at(start_steps: int) -> tuple[IvcKeys, bytes, IvcProof]:
    """Fresh keys, plus a genuine proof `start_steps` steps in."""
    keys = IvcKeys(HashDrbg(b"ivc-runs"), b"base", sha256(b"run-start"))
    state, proof = ivc_prove(keys, start_steps)
    return keys, state, proof


def _after(keys, meter, run) -> tuple:
    try:
        out, exhausted = run(), False
    except StepsExhausted:
        out, exhausted = None, True
    return out, exhausted, meter.used, keys.steps_run, keys.registry_entries()


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 40), n=st.integers(0, 300), data=st.data())
def test_ivc_run_equals_single_steps(start, n, data):
    limit = data.draw(st.none() | st.integers(0, n + 5), label="limit")
    (ka, sa, pa), (kb, sb, pb) = _chain_at(start), _chain_at(start)
    ma, mb = StepMeter(limit), StepMeter(limit)

    def one_by_one():
        state, proof = sb, pb
        for _ in range(n):
            state, proof = ivc_update(kb, state, proof, mb)
        return state, proof

    run = _after(ka, ma, lambda: ivc_update(ka, sa, pa, ma, n))
    assert run == _after(kb, mb, one_by_one)
    granted = n if limit is None else min(n, limit)
    assert run[1] == (granted < n)
    assert run[2] == granted
    assert run[3] == start + granted
    assert sum(t > start for t, _, _ in run[4]) == granted


def test_ivc_run_from_forged_proof_charges_and_registers_nothing():
    keys, state, _ = _chain_at(3)
    entries = keys.registry_entries()
    forged = IvcProof(3, sha256(b"forged"))
    meter = StepMeter()
    with pytest.raises(ProofChainError):
        ivc_update(keys, state, forged, meter, 50)
    assert meter.used == 0 and keys.steps_run == 3
    assert keys.registry_entries() == entries
    # a run of 0 steps checks nothing and hands its input back
    assert ivc_update(keys, state, forged, meter, 0) == (state, forged)


# --- the known chain against a written-out reference --------------------------------

ROOT = sha256(b"run-start")


def _written_out_chain(keys: IvcKeys, start: bytes, n: int) -> list[tuple[bytes, bytes]]:
    """(state, commitment) at steps 0..n from `start`: one npl_step and one commitment each."""
    state, commitment = start, keys._commit(keys.base_tag, 0, start)
    chain = [(state, commitment)]
    for t in range(1, n + 1):
        state = npl_step(state)
        commitment = keys._commit(commitment, t, state)
        chain.append((state, commitment))
    return chain


def _reference_run(keys, state, proof, limit, n) -> tuple:
    """What `ivc_update(keys, state, proof, StepMeter(limit), n)` must leave, worked
    out step by step from the registry entries before the run: (result or exception
    type, meter.used, steps_run, registry entries, known chain length).

    A run that gets past the tip extends the chain to its last point, and
    `steps_run` counts only the steps past the tip: those the run hashed.
    """
    registry = {(t, s): c for t, s, c in keys.registry_entries()}
    steps_run, tip = keys.steps_run, max(t for t, _ in registry)

    def outcome(out, granted, end=tip):
        entries = sorted((t, s, c) for (t, s), c in registry.items())
        return out, granted, steps_run + max(0, end - tip), entries, max(tip, end) + 1

    if n == 0:
        return outcome((state, proof), 0)
    if registry.get((proof.steps, state)) != proof.commitment:
        return outcome(ProofChainError, 0)
    granted = n if limit is None else min(n, limit)
    t, commitment = proof.steps, proof.commitment
    for _ in range(granted):
        t += 1
        state = npl_step(state)
        commitment = keys._commit(commitment, t, state)
        registry[(t, state)] = commitment
    out = StepsExhausted if granted < n else (state, IvcProof(t, commitment))
    return outcome(out, granted, t)


def _actual_run(keys, state, proof, limit, n, run=ivc_update) -> tuple:
    """What `run(keys, state, proof, StepMeter(limit), n)` leaves, in `_reference_run`'s shape."""
    meter = StepMeter(limit)
    try:
        out = run(keys, state, proof, meter, n)
    except (StepsExhausted, ProofChainError) as exc:
        out = type(exc)
    return out, meter.used, keys.steps_run, keys.registry_entries(), len(keys._known)


def _start(tip, chain, t0, n) -> tuple:
    """Keys and a start at step `t0`: (keys, canonical chain, state, proof).

    The keys know the canonical chain from ROOT out to step `tip`.  `chain`
    picks the start: the canonical point at `t0`, or the same point under a
    forged commitment.  A canonical point past the tip is genuine bytes that
    no update hashed, so it verifies no more than a forged one.  The
    canonical chain is written out to `max(tip, t0) + n`.
    """
    keys = IvcKeys(HashDrbg(b"ivc-reference"), b"base", ROOT)
    canon = _written_out_chain(keys, ROOT, max(tip, t0) + n)
    assert ivc_update(keys, ROOT, keys.base_proof(), StepMeter(), tip) == (
        canon[tip][0], IvcProof(tip, canon[tip][1])
    )
    state, commitment = canon[t0]
    if chain == "forged":
        commitment = sha256(b"forged")
    return keys, canon, state, IvcProof(t0, commitment)


def _check_run(tip, chain, t0, n, limit=None) -> None:
    """A run of `n` steps from step `t0` (see `_start`) equals the written-out reference."""
    keys, canon, state, proof = _start(tip, chain, t0, n)
    length = tip + 1
    assert len(keys._known) == length
    assert [keys.known_point(t) for t in range(length)] == canon[:length]

    expected = _reference_run(keys, state, proof, limit, n)
    assert _actual_run(keys, state, proof, limit, n) == expected
    length = len(keys._known)
    assert [keys.known_point(t) for t in range(length)] == canon[:length]
    with pytest.raises(IndexError):
        keys.known_point(length)


RUN_CASES = [
    ("canonical", 3, 4, None),  # before the tip, ends before it
    ("canonical", 7, 9, None),  # crosses the tip
    ("canonical", 10, 5, None),  # at the tip
    ("canonical", 13, 5, None),  # past the tip: genuine bytes, never hashed
    ("canonical", 16, 6, None),  # further past the tip
    ("canonical", 0, 25, None),  # the whole known chain and past it
    ("canonical", 8, 9, 4),  # cut short by the meter after crossing the tip
    ("canonical", 2, 9, 3),  # cut short before the tip
    ("canonical", 10, 3, 0),  # granted nothing
    ("forged", 5, 3, None),
    ("forged", 5, 0, None),  # a run of 0 steps checks nothing
]


# ids end in "-None" so the cases keep the names they had when they also took
# a tampered registry entry, which no call can write any more
@pytest.mark.parametrize(
    "chain, t0, n, limit", RUN_CASES, ids=["-".join(map(str, c)) + "-None" for c in RUN_CASES]
)
def test_ivc_run_equals_written_out_reference(chain, t0, n, limit):
    _check_run(10, chain, t0, n, limit)


@settings(max_examples=120, deadline=None)
@given(
    tip=st.integers(0, 20),
    chain=st.sampled_from(["canonical", "forged"]),
    n=st.integers(0, 40),
    data=st.data(),
)
def test_ivc_runs_equal_written_out_reference(tip, chain, n, data):
    t0 = data.draw(st.integers(0, tip + 3), label="t0")
    limit = data.draw(st.none() | st.integers(0, n + 5), label="limit")
    _check_run(tip, chain, t0, n, limit)


# --- one run with stops against successive runs ---------------------------------------


def _successive(keys, state, proof, meter, stops) -> list:
    """The point at each stop, one run from stop to stop."""
    points, at = [], 0
    for stop in stops:
        state, proof = ivc_update(keys, state, proof, meter, stop - at)
        points.append((state, proof))
        at = stop
    return points


def _check_stops(tip, chain, t0, stops, limit=None) -> None:
    """One run with `stops` from step `t0` (see `_start`) equals successive runs on twin keys."""
    n = stops[-1] if stops else 0
    (ka, _, sa, pa), (kb, _, sb, pb) = (_start(tip, chain, t0, n) for _ in "ab")
    run = _actual_run(ka, sa, pa, limit, stops)
    assert run == _actual_run(kb, sb, pb, limit, stops, _successive)
    granted = n if limit is None else min(n, limit)
    if n and (chain == "forged" or t0 > tip):
        assert run[0] is ProofChainError and run[1] == 0
    elif granted < n:
        assert run[0] is StepsExhausted and run[1] == granted
    else:
        assert [proof.steps for _, proof in run[0]] == [t0 + stop for stop in stops]


@pytest.mark.parametrize(
    "chain, t0, stops, limit",
    [
        ("canonical", 2, [2, 7, 7, 16], None),  # on the known chain, then past its tip
        ("canonical", 12, [1, 5, 6], None),  # past the tip: never hashed, so refused
        ("canonical", 2, [3, 6, 9], 7),  # cut short by the meter after crossing the tip
        ("canonical", 12, [4, 8], 5),  # refused past the tip before any charge
        ("forged", 2, [0, 4], None),  # a forged start
        ("forged", 2, [0, 0], None),  # stops at 0 check nothing
    ],
)
def test_a_run_with_stops_equals_successive_runs(chain, t0, stops, limit):
    _check_stops(10, chain, t0, stops, limit)


@settings(max_examples=150, deadline=None)
@given(
    tip=st.integers(0, 20),
    chain=st.sampled_from(["canonical", "forged"]),
    gaps=st.lists(st.integers(0, 12), max_size=5),
    data=st.data(),
)
def test_runs_with_stops_equal_successive_runs(tip, chain, gaps, data):
    stops = list(accumulate(gaps))
    t0 = data.draw(st.integers(0, tip + 3), label="t0")
    limit = data.draw(st.none() | st.integers(0, sum(gaps) + 5), label="limit")
    _check_stops(tip, chain, t0, stops, limit)


def test_stops_must_ascend():
    keys, state, proof = _chain_at(3)
    meter = StepMeter()
    for stops in ([4, 2], [-1, 3], [-2]):
        with pytest.raises(ValueError, match="ascending"):
            ivc_update(keys, state, proof, meter, stops)
    assert meter.used == 0 and keys.steps_run == 3
    assert ivc_update(keys, state, proof, meter, []) == []
    assert ivc_update(keys, state, proof, meter, [0, 0]) == [(state, proof)] * 2
