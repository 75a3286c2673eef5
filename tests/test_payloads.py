"""Payload codec: round-trips, padding agnosticism, total decoding."""

from __future__ import annotations

import pytest

import detmit.payloads as payloads
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmit.crypto import Ciphertext, IdentityKey, IvcProof, ProofToken, SignatureToken
from detmit.drbg import HashDrbg
from detmit.payloads import (
    BOTTOM,
    TAG_CLEAR,
    TAG_ENC,
    TAG_TIME_CLEAR,
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
from testkit import clear_pair_at, reference_ladder_decode, seal_pair, unpack_exact, unpack_fields

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
    token_len = 4 + len(pack_fields(c.token.nonce, c.token.core))
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
    x, y = clear_pair_at(ladder, 3, rng)
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
    elif isinstance(payload, TimePayload):
        proof = payload.proof
        core = (
            bytes([TAG_TIME_CLEAR])
            + _lp(be64(payload.steps))
            + _lp(payload.config)
            + _lp(pack_fields(be64(proof.steps), proof.commitment))
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
u64 = st.integers(min_value=0, max_value=2**64 - 1)
time_payloads = st.builds(
    TimePayload, steps=u64, config=field, proof=st.builds(IvcProof, u64, field)
)
SAMPLE_CLEAR = ClearPayload(SignatureToken(b"n" * 16, b"s" * 64), 7, ProofToken(b"t" * 16, b"d" * 32))
SAMPLE_ENC = EncPayload(Ciphertext(b"i" * 16, b"b" * 40), b"", b"j" * 16, b"k" * 32)
SAMPLE_TIME = TimePayload(4096, b"c" * 32, IvcProof(4096, b"m" * 32))


@given(st.one_of(clear_payloads, enc_payloads, time_payloads), st.none() | st.integers(0, 600))
@example(SAMPLE_CLEAR, None)  # unpadded
@example(SAMPLE_CLEAR, 256)  # padded
@example(SAMPLE_CLEAR, 40)  # too wide
@example(SAMPLE_ENC, None)
@example(SAMPLE_ENC, 256)
@example(SAMPLE_ENC, 40)
@example(SAMPLE_TIME, None)
@example(SAMPLE_TIME, 256)
@example(SAMPLE_TIME, 100)  # the 101-byte core is one byte too wide
@example(TimePayload(2**64 - 1, b"", IvcProof(0, b"x" * 70)), None)  # off-width fields
def test_flat_encoder_matches_reference_layout(payload, width):
    try:
        want = reference_encoding(payload, width)
    except PayloadTooWide:
        with pytest.raises(PayloadTooWide):
            encode_payload(payload, width)
        return
    assert encode_payload(payload, width) == want


# each form's bytes fields, in the order its record nests them, at the widths
# honest parties write: nonce, token core, proof token, statement digest; identity
# tag, ciphertext body, id1, id2, key2 (each also empty in answer position);
# configuration, commitment.  The core and the body are free parts, any width.
HONEST_WIDTHS = {
    ClearPayload: (16, 64, 16, 32),
    EncPayload: (16, 300, 16, 16, 32),
    TimePayload: (32, 32),
}


# (form, field index, one byte less or more): every honest width, missed by one
OFF_WIDTHS = [
    (form, i, d) for form, widths in HONEST_WIDTHS.items() for i in range(len(widths)) for d in (-1, 1)
]


@st.composite
def wire_payloads(draw, form, off=None) -> ClearPayload | EncPayload | TimePayload:
    """A `form` payload with every bytes field at an honest width and any u64
    level or step counts; `off`, a field index and a delta, moves one width."""
    widths = list(HONEST_WIDTHS[form])
    if form is EncPayload:
        widths[2:] = [w if off and off[0] == i else draw(st.sampled_from([0, w]))
                      for i, w in enumerate(widths[2:], 2)]
    if off:
        widths[off[0]] += off[1]
    f = [draw(st.binary(min_size=w, max_size=w)) for w in widths]
    if form is ClearPayload:
        return ClearPayload(SignatureToken(f[0], f[1]), draw(u64), ProofToken(f[2], f[3]))
    if form is EncPayload:
        return EncPayload(Ciphertext(f[0], f[1]), *f[2:])
    return TimePayload(draw(u64), f[0], IvcProof(draw(u64), f[1]))


def _decodable(payload) -> bool:
    """Whether the decoder accepts `payload`'s level or step count (the ladder's
    encrypted form has none)."""
    return getattr(payload, "level", getattr(payload, "steps", 1)) >= 1


@pytest.mark.parametrize("form", list(HONEST_WIDTHS), ids=lambda form: form.__name__)
@settings(max_examples=50)
@given(data=st.data(), width=st.none() | st.just(512))
def test_honest_widths_encode_as_the_reference_and_round_trip(form, data, width):
    payload = data.draw(wire_payloads(form))
    raw = encode_payload(payload, width)
    assert raw == reference_encoding(payload, width)
    assert decode_payload(raw) == (payload if _decodable(payload) else None)


@pytest.mark.parametrize(
    "form, field, delta", OFF_WIDTHS, ids=lambda v: getattr(v, "__name__", str(v))
)
@settings(max_examples=15)
@given(data=st.data(), width=st.none() | st.just(512))
def test_off_widths_encode_as_the_reference_and_decode_as_the_reference(
    form, field, delta, data, width
):
    payload = data.draw(wire_payloads(form, (field, delta)))
    raw = encode_payload(payload, width)
    assert raw == reference_encoding(payload, width)
    got = decode_payload(raw)
    reference = reference_chain_decode if form is TimePayload else reference_ladder_decode
    assert got == reference(raw)
    # only a free part (token core, ciphertext body) may be off and still decode
    assert got in (payload, None)


@pytest.mark.parametrize("count", [-1, 2**64])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: SAMPLE_CLEAR._replace(level=n),
        lambda n: SAMPLE_TIME._replace(steps=n),
        lambda n: SAMPLE_TIME._replace(proof=IvcProof(n, b"m" * 32)),
    ],
    ids=["level", "steps", "proof-steps"],
)
def test_counts_outside_u64_raise_overflow(build, count):
    with pytest.raises(OverflowError):
        encode_payload(build(count))


def test_honest_payloads_encode_without_the_join(monkeypatch):
    """Honest payloads of all three forms are packed through the Structs: with
    `be32` and `be64` made to raise, they still encode as the reference."""
    honest = [SAMPLE_CLEAR, SAMPLE_ENC, EncPayload(SAMPLE_ENC.ciphertext, b"", b"", b""), SAMPLE_TIME]
    want = [reference_encoding(p, 512) for p in honest]

    def refuse(n):
        raise AssertionError("be32/be64 called")

    monkeypatch.setattr(payloads, "be32", refuse)
    monkeypatch.setattr(payloads, "be64", refuse)
    assert [encode_payload(p, 512) for p in honest] == want
    with pytest.raises(AssertionError, match="be32/be64 called"):  # an off width takes the join
        encode_payload(SAMPLE_TIME._replace(config=b"c" * 31))


def reference_chain_decode(buf: bytes) -> TimePayload | None:
    """The chain form read field by field with `unpack_fields`, as nested prefixes."""
    if buf[:1] != bytes([TAG_TIME_CLEAR]):
        return None
    parsed = unpack_fields(buf[1:], 3)
    if parsed is None:
        return None
    (steps_b, config_b, proof_b), rest = parsed
    if rest.count(0) != len(rest) or len(steps_b) != 8 or len(config_b) != 32:
        return None
    inner = unpack_exact(proof_b, 2)
    if inner is None or len(inner[0]) != 8 or len(inner[1]) != 32:
        return None
    steps = int.from_bytes(steps_b, "big")
    if steps < 1:
        return None
    return TimePayload(steps, config_b, IvcProof(int.from_bytes(inner[0], "big"), inner[1]))


CHAIN_CORE = 101
# the tag and the five length prefixes of the chain core
CHAIN_HEADER = [0, *range(1, 5), *range(13, 17), *range(49, 57), *range(65, 69)]
honest_chains = st.builds(
    TimePayload,
    steps=u64,  # 0 included: the decoders must both refuse it
    config=st.binary(min_size=32, max_size=32),
    proof=st.builds(IvcProof, u64, st.binary(min_size=32, max_size=32)),
)


@st.composite
def mutated_chain_encodings(draw) -> bytes:
    buf = bytearray(encode_payload(draw(honest_chains), draw(st.none() | st.integers(101, 200))))
    kind = draw(st.sampled_from(["none", "flip", "truncate", "pad", "dirty"]))
    if kind == "flip":
        buf[draw(st.sampled_from(CHAIN_HEADER))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del buf[draw(st.integers(0, len(buf) - 1)):]
    elif kind == "pad":
        buf += bytes(draw(st.integers(1, 64)))
    elif kind == "dirty":
        if len(buf) == CHAIN_CORE:
            buf += bytes(draw(st.integers(1, 64)))
        buf[draw(st.integers(CHAIN_CORE, len(buf) - 1))] = draw(st.integers(1, 255))
    return bytes(buf)


@given(mutated_chain_encodings() | st.binary(max_size=200).map(lambda b: b"\x03" + b))
@example(encode_payload(SAMPLE_TIME))
@example(encode_payload(SAMPLE_TIME, 160)[:-1] + b"\x01")  # nonzero padding
@example(encode_payload(TimePayload(0, b"c" * 32, IvcProof(0, b"m" * 32))))  # steps 0
@example(encode_payload(SAMPLE_TIME)[:100])  # one byte short
def test_chain_decode_matches_the_nested_reference(buf):
    assert decode_payload(buf) == reference_chain_decode(buf)


def test_chain_decode_matches_the_reference_on_every_flipped_core_byte():
    honest = encode_payload(SAMPLE_TIME, 128)
    assert decode_payload(honest) == SAMPLE_TIME
    for offset in range(CHAIN_CORE):
        for mask in (0x01, 0x80, 0xFF):
            buf = bytearray(honest)
            buf[offset] ^= mask
            got = decode_payload(bytes(buf))
            assert got == reference_chain_decode(bytes(buf)), (offset, mask)
            if offset in CHAIN_HEADER:
                assert got is None, (offset, mask)


binary16 = st.binary(min_size=16, max_size=16)
# the free part is the token core or the ciphertext body, of any length
free_part = st.binary(max_size=80)
honest_clears = st.builds(
    ClearPayload,
    token=st.builds(SignatureToken, binary16, free_part),
    level=u64,  # 0 included: the decoders must both refuse it
    proof=st.builds(ProofToken, binary16, st.binary(min_size=32, max_size=32)),
)
# id and key fields of the lengths the decoders accept, and of others
short_field = st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
honest_encs = st.builds(
    EncPayload,
    ciphertext=st.builds(Ciphertext, binary16, free_part),
    id1=short_field,
    id2=short_field,
    key2=short_field,
)


def ladder_headers(payload) -> list[int]:
    """The offsets of the tag and of every length prefix of `payload`'s core."""
    n = len(payload[0][1])  # the token core or the ciphertext body
    offsets = [0, *range(1, 9), *range(25, 29)]
    if isinstance(payload, ClearPayload):
        return offsets + [29 + n + i for i in (*range(4), *range(12, 20), *range(36, 40))]
    pos = 29 + n
    for field in payload[1:]:
        offsets += range(pos, pos + 4)
        pos += 4 + len(field)
    return offsets


def ladder_prefixes(payload) -> list[int]:
    """The offsets of the length prefixes of `payload`'s core, nested ones included."""
    return ladder_headers(payload)[1::4]


def rewritten_prefixes(payload, width=None) -> list[bytes]:
    """`payload` encoded per length prefix, that prefix plus one, then minus one (mod 2**32)."""
    honest, out = encode_payload(payload, width), []
    for at in ladder_prefixes(payload):
        old = int.from_bytes(honest[at : at + 4], "big")
        for new in (old + 1, (old - 1) % 2**32):
            out.append(honest[:at] + new.to_bytes(4, "big") + honest[at + 4 :])
    return out


@st.composite
def mutated_ladder_encodings(draw) -> bytes:
    payload = draw(honest_clears | honest_encs)
    buf = bytearray(encode_payload(payload))
    core = len(buf)
    if draw(st.booleans()):
        buf += bytes(draw(st.integers(0, 64)))
    kinds = ["none", "flip", "flip-any", "length", "truncate", "pad", "dirty"]
    kind = draw(st.sampled_from(kinds))
    if kind == "flip":
        buf[draw(st.sampled_from(ladder_headers(payload)))] ^= draw(st.integers(1, 255))
    elif kind == "flip-any":
        buf[draw(st.integers(0, core - 1))] ^= draw(st.integers(1, 255))
    elif kind == "length":
        at = draw(st.sampled_from(ladder_prefixes(payload)))
        old = int.from_bytes(buf[at : at + 4], "big")
        new = draw(st.integers(max(0, old - 40), old + 40) | st.integers(0, 2**32 - 1))
        buf[at : at + 4] = new.to_bytes(4, "big")
    elif kind == "truncate":
        del buf[draw(st.integers(0, len(buf) - 1)):]
    elif kind == "pad":
        buf += bytes(draw(st.integers(1, 64)))
    elif kind == "dirty":
        if len(buf) == core:
            buf += bytes(draw(st.integers(1, 64)))
        buf[draw(st.integers(core, len(buf) - 1))] = draw(st.integers(1, 255))
    return bytes(buf)


@settings(max_examples=1000)
@given(mutated_ladder_encodings() | st.builds(
    lambda tag, rest: tag + rest, st.sampled_from([b"\x01", b"\x02"]), st.binary(max_size=200)
))
@example(encode_payload(SAMPLE_CLEAR))
@example(encode_payload(SAMPLE_ENC, 160))
@example(encode_payload(SAMPLE_CLEAR, 256)[:-1] + b"\x01")  # nonzero padding
@example(encode_payload(SAMPLE_ENC)[:-1])  # one byte short
@example(encode_payload(SAMPLE_CLEAR._replace(level=0)))
@example(encode_payload(SAMPLE_ENC._replace(id1=b"i" * 15)))
def test_ladder_decode_matches_the_nested_reference(buf):
    assert decode_payload(buf) == reference_ladder_decode(buf)


for _buf in rewritten_prefixes(SAMPLE_CLEAR) + rewritten_prefixes(SAMPLE_ENC, 256):
    test_ladder_decode_matches_the_nested_reference = example(_buf)(
        test_ladder_decode_matches_the_nested_reference
    )


@pytest.mark.parametrize(
    "payload",
    [
        SAMPLE_CLEAR,
        SAMPLE_CLEAR._replace(token=SignatureToken(b"n" * 16, b"")),
        SAMPLE_ENC,
        EncPayload(Ciphertext(b"i" * 16, b""), b"a" * 16, b"", b""),
        EncPayload(Ciphertext(b"i" * 16, b"b" * 80), b"a" * 16, b"c" * 16, b"k" * 32),
    ],
    ids=["clear", "clear-empty-core", "enc", "enc-empty-body", "enc-full"],
)
def test_ladder_decode_matches_the_reference_on_every_flipped_byte_cut_and_prefix(payload):
    honest, core = encode_payload(payload, 256), len(encode_payload(payload))
    assert decode_payload(honest) == payload
    for cut in range(core):
        assert decode_payload(honest[:cut]) is reference_ladder_decode(honest[:cut]) is None
    for buf in rewritten_prefixes(payload, 256):
        assert decode_payload(buf) is reference_ladder_decode(buf) is None
    headers = set(ladder_headers(payload))
    for offset in range(core):
        for mask in (0x01, 0x80, 0xFF):
            buf = bytearray(honest)
            buf[offset] ^= mask
            got = decode_payload(bytes(buf))
            assert got == reference_ladder_decode(bytes(buf)), (offset, mask)
            if offset in headers:
                assert got is None, (offset, mask)


# --- wire records are values ------------------------------------------------------


def _through_the_wire(record):
    """`record` encoded and decoded again; None for an IdentityKey, which has no wire form."""
    if isinstance(record, (ClearPayload, EncPayload, TimePayload)):
        return decode_payload(encode_payload(record, 256))
    if isinstance(record, IvcProof):
        return decode_payload(encode_payload(TimePayload(record.steps, b"c" * 32, record))).proof
    if isinstance(record, SignatureToken):
        return decode_payload(encode_payload(SAMPLE_CLEAR._replace(token=record))).token
    if isinstance(record, ProofToken):
        return decode_payload(encode_payload(SAMPLE_CLEAR._replace(proof=record))).proof
    if isinstance(record, Ciphertext):
        return decode_payload(encode_payload(SAMPLE_ENC._replace(ciphertext=record))).ciphertext
    return None


def _classes(record) -> tuple:
    """The class of `record` and of every record nested in it."""
    return (type(record), *(_classes(f) for f in record if isinstance(f, tuple)))


@pytest.mark.parametrize(
    "record",
    [
        SignatureToken(R.take(16), R.take(64)),
        ProofToken(R.take(16), R.take(32)),
        IdentityKey(R.take(16), R.take(32)),
        Ciphertext(R.take(16), R.take(50)),
        IvcProof(9, R.take(32)),
        clear_payload(),
        enc_payload(),
        time_payload(),
    ],
    ids=lambda record: type(record).__name__,
)
def test_wire_records_keep_value_semantics(record):
    decoded = _through_the_wire(record)
    if decoded is not None:
        assert decoded == record and decoded is not record
        assert _classes(decoded) == _classes(record)
    twin = decoded if decoded is not None else type(record)(**record._asdict())
    assert hash(twin) == hash(record)
    assert {record, twin} == {record}
    name, value = record._fields[0], record[0]
    other = record._replace(**{name: value + 1 if isinstance(value, int) else value[:-1]})
    assert other != record and len({record, twin, other}) == 2
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1
