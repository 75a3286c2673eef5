"""Payload codec: round-trips, padding agnosticism, total decoding."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from detmit.crypto import Ciphertext, IvcProof, ProofToken, SignatureToken
from detmit.drbg import HashDrbg
from detmit.payloads import (
    BOTTOM,
    TAG_CLEAR,
    TAG_ENC,
    ClearPayload,
    EncPayload,
    PayloadTooWide,
    TimePayload,
    bottom,
    decode_payload,
    encode_payload,
    pad_to,
)
from detmit.sampletask import make_data_instance
from detmit.timetask import make_time_instance
from detmit.wire import be64, pack_fields
from testkit import seal_pair

R = HashDrbg(b"payload-tests")


def clear_payload(level=7):
    return ClearPayload(
        token=SignatureToken(R.take(16), R.take(64)),
        level=level,
        proof=ProofToken(R.take(16), R.take(32)),
    )


def enc_payload(empty_answer=False):
    ct = Ciphertext(R.take(16), R.take(50))
    if empty_answer:
        return EncPayload(ct, b"", b"", b"")
    return EncPayload(ct, R.take(16), R.take(16), R.take(32))


def time_payload(steps=9):
    return TimePayload(steps=steps, config=R.take(32), proof=IvcProof(steps, R.take(32)))


@pytest.mark.parametrize(
    "payload",
    [
        clear_payload(),
        clear_payload(level=1),
        enc_payload(),
        enc_payload(empty_answer=True),
        time_payload(),
        time_payload(steps=1),
    ],
    ids=["clear", "clear-l1", "enc", "enc-answer", "time", "time-s1"],
)
def test_roundtrip_unpadded_and_padded(payload):
    raw = encode_payload(payload)
    assert decode_payload(raw) == payload
    padded = encode_payload(payload, 512)
    assert len(padded) == 512
    assert decode_payload(padded) == payload


def test_width_overflow_raises():
    with pytest.raises(PayloadTooWide):
        encode_payload(clear_payload(), 8)


def test_bottom_never_decodes():
    assert decode_payload(BOTTOM) is None
    assert decode_payload(bottom(256)) is None
    assert len(bottom(256)) == 256


def test_nonzero_padding_rejected():
    buf = encode_payload(clear_payload(), 300)
    tampered = buf[:-1] + b"\x01"
    assert decode_payload(tampered) is None


def test_field_width_rules():
    ok = enc_payload()
    buf = encode_payload(
        EncPayload(ok.ciphertext, b"x" * 5, ok.id2, ok.key2)
    )
    assert decode_payload(buf) is None  # id1 must be empty or 16 bytes
    buf = encode_payload(EncPayload(ok.ciphertext, ok.id1, ok.id2, b"k" * 7))
    assert decode_payload(buf) is None  # key2 must be empty or 32 bytes
    level_zero = encode_payload(time_payload(steps=1))
    assert decode_payload(level_zero) is not None


def test_zero_level_and_steps_rejected():
    c = clear_payload()
    raw = bytearray(encode_payload(ClearPayload(c.token, 1, c.proof)))
    # level field sits after tag + length-prefixed token; force it to zero
    token_len = 4 + len(c.token.to_bytes())
    level_off = 1 + token_len + 4
    raw[level_off : level_off + 8] = bytes(8)
    assert decode_payload(bytes(raw)) is None


@given(st.binary(max_size=400))
def test_decode_is_total(buf):
    decode_payload(buf)  # never raises, whatever the bytes


def test_unknown_tag():
    assert decode_payload(b"\x09" + b"\x00" * 64) is None
    assert decode_payload(b"") is None


def test_retired_chain_enc_tag_decodes_to_nothing_and_scores_zero():
    # 0x04 once tagged an encrypted chain payload; it is now an unknown tag
    ladder, chain = make_data_instance(31), make_time_instance(31, horizon=16)
    rng = R.child("tag-04")
    x, y = ladder.clear_pair_at(3, rng)
    ex, ey = seal_pair(ladder, x, y, rng)
    exb, eyb = encode_payload(ex, ladder.width), encode_payload(ey, ladder.width)
    assert ladder.h(exb, encode_payload(y, ladder.width)) == 1  # a wrong answer to the genuine input
    retagged = bytes([0x04]) + exb[1:]
    assert decode_payload(retagged) is None
    assert decode_payload(bytes([0x04]) + encode_payload(enc_payload())[1:]) is None
    for answer in (eyb, bytes([0x04]) + eyb[1:], bottom(ladder.width)):
        assert ladder.h(retagged, answer) == 0
    cx, cy = chain.sample_pair(HashDrbg(b"chain-04"))
    assert chain.h(retagged, cy) == 0
    assert chain.h(bytes([0x04]) + cx[1:], cy) == 0


def _lp(field: bytes) -> bytes:
    """One length-prefixed field, written out apart from `pack_fields`."""
    return len(field).to_bytes(4, "big") + field


def reference_encoding(payload, width):
    """The wire layout spelled out field by field with `_lp` and `pack_fields`."""
    if isinstance(payload, ClearPayload):
        tok, proof = payload.token, payload.proof
        core = (
            bytes([TAG_CLEAR])
            + _lp(pack_fields(tok.nonce, tok.core))
            + _lp(be64(payload.level))
            + _lp(pack_fields(proof.token, proof.statement_digest))
        )
    else:
        ct = payload.ciphertext
        core = (
            bytes([TAG_ENC])
            + _lp(pack_fields(ct.identity_tag, ct.body))
            + _lp(payload.id1)
            + _lp(payload.id2)
            + _lp(payload.key2)
        )
    return pad_to(core, width)


# attacker-built payloads may carry fields of any length, not just the honest ones
field = st.binary(max_size=80)
clear_payloads = st.builds(
    ClearPayload,
    token=st.builds(SignatureToken, field, field),
    level=st.integers(min_value=0, max_value=2**64 - 1),
    proof=st.builds(ProofToken, field, field),
)
enc_payloads = st.builds(
    EncPayload,
    ciphertext=st.builds(Ciphertext, field, field),
    id1=field,
    id2=field,
    key2=field,
)
SAMPLE_CLEAR = ClearPayload(SignatureToken(b"n" * 16, b"s" * 64), 7, ProofToken(b"t" * 16, b"d" * 32))
SAMPLE_ENC = EncPayload(Ciphertext(b"i" * 16, b"b" * 40), b"", b"j" * 16, b"k" * 32)


@given(st.one_of(clear_payloads, enc_payloads), st.none() | st.integers(0, 600))
@example(SAMPLE_CLEAR, None)  # unpadded
@example(SAMPLE_CLEAR, 256)  # padded
@example(SAMPLE_CLEAR, 40)  # too wide
@example(SAMPLE_ENC, None)
@example(SAMPLE_ENC, 256)
@example(SAMPLE_ENC, 40)
def test_flat_encoder_matches_reference_layout(payload, width):
    try:
        want = reference_encoding(payload, width)
    except PayloadTooWide:
        with pytest.raises(PayloadTooWide):
            encode_payload(payload, width)
        return
    assert encode_payload(payload, width) == want
