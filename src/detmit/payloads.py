"""Payload wire format shared by the two generative tasks.

A payload is one form-tag byte, the form's fields length-prefixed in
declared order, then zero padding out to the instance width so lengths are
non-informative.  Decoding is total and padding-agnostic: any violation
(unknown tag, truncated field, nonzero padding, bad field width) yields
``None`` instead of raising, because the quality oracle scores arbitrary
bytes.

Both directions use one :class:`~struct.Struct` per form: the encoder packs
each form's fixed parts with the same ``Struct`` objects the decoder reads
them with.  The clear (``0x01``) and
encrypted (``0x02``) ladder forms share a 28-byte head after the tag,
where n is the length of the free part:

====== ===== ==============================================
offset bytes field
====== ===== ==============================================
0      1     tag ``0x01`` or ``0x02``
1      4     ``be32(24 + n)``, the first field's length
5      4     ``be32(16)``
9      16    token nonce; identity tag
25     4     ``be32(n)``
29     n     token core; ciphertext body
====== ===== ==============================================

The clear form (signature token, level, count proof) goes on with a fixed
72-byte tail:

====== ===== ==============================================
29+n   4     ``be32(8)``
33+n   8     level, big-endian, at least 1
41+n   8     ``be32(56) + be32(16)``, the proof's lengths
49+n   16    proof token
65+n   4     ``be32(32)``
69+n   32    statement digest
====== ===== ==============================================

The encrypted container goes on with id1, id2 and key2 (all empty in answer
position); :func:`sealed` builds both kinds and :func:`unseal` opens one.
The decoder reads the all-present and the all-empty tail in one step each,
and any other tail field by field:

======== ===== ==========================================
29+n     4     ``be32(a)``, a = 0 or 16
33+n     a     id1
33+n+a   4     ``be32(b)``, b = 0 or 16
37+n+a   b     id2
37+n+a+b 4     ``be32(c)``, c = 0 or 32
41+n+a+b c     key2
======== ===== ==========================================

The clear chain form (``0x03``: step count, configuration, chain proof)
has the same 101-byte core every time:

====== ===== ==================================================
offset bytes field
====== ===== ==================================================
0      1     tag ``0x03``
1      4     ``be32(8)``
5      8     step count, big-endian, at least 1
13     4     ``be32(32)``
17     32    configuration
49     4     ``be32(48)``, the proof's length
53     4     ``be32(8)``
57     8     the proof's step count, big-endian
65     4     ``be32(32)``
69     32    the proof's commitment
====== ===== ==================================================

The reserved "no answer" marker :data:`BOTTOM` begins with tag ``0x00`` and
therefore never decodes; models emit it (padded) when they cannot answer.
"""

from __future__ import annotations

from struct import Struct, error as StructError
from typing import NamedTuple

from .crypto import Ciphertext, IdentityCipher, IdentityKey, IvcProof, ProofToken, SignatureToken
from .wire import be32, be64

TAG_CLEAR = 0x01
TAG_ENC = 0x02
TAG_TIME_CLEAR = 0x03

BOTTOM = b"\x00bottom"

IDENTITY_KEY_LEN = 32


class PayloadTooWide(ValueError):
    """An honest payload exceeded the instance width."""


class ClearPayload(NamedTuple):
    token: SignatureToken
    level: int
    proof: ProofToken


class EncPayload(NamedTuple):
    ciphertext: Ciphertext
    id1: bytes
    id2: bytes
    key2: bytes


class TimePayload(NamedTuple):
    steps: int
    config: bytes
    proof: IvcProof


Payload = ClearPayload | EncPayload | TimePayload


_CLEAR_TAG = bytes([TAG_CLEAR])
_ENC_TAG = bytes([TAG_ENC])
_TIME_TAG = bytes([TAG_TIME_CLEAR])
_INT_LEN = be32(8)  # the prefix of a level or a step count
_DIGEST_LEN = be32(32)  # the prefix of a configuration, commitment or statement digest
_PROOF_HEAD = be32(48) + _INT_LEN  # a chain proof's prefix, then its step count's
_TIME_CORE_LEN = 101
# the chain core after its tag, one item per row of the module docstring's
# table, the two length prefixes at offset 49 read as one 8-byte item
_TIME_CORE = Struct(">4sQ4s32s8sQ4s32s")
# the ladder head after its tag, then the clear tail, each as its table reads
_LADDER_HEAD = Struct(">II16sI")
_HEAD_END = 1 + _LADDER_HEAD.size
_CLEAR_TAIL = Struct(">4sQ8s16s4s32s")
_TOKEN_HEAD = be32(56) + be32(16)
# the allowed length prefixes of id1, id2 and key2, and the lengths they give;
# the encoder reads them the other way, length to prefix
_ENC_TAIL = tuple({be32(0): 0, be32(n): n} for n in (16, 16, IDENTITY_KEY_LEN))
_ENC_PREFIX = tuple({n: prefix for prefix, n in widths.items()} for widths in _ENC_TAIL)
# the encrypted tail with id1, id2 and key2 all present, as its table reads
_FULL_TAIL = Struct(">4s16s4s16s4s32s")
_ID_PREFIX, _KEY_PREFIX = be32(16), be32(IDENTITY_KEY_LEN)
# the records decode_payload builds, made without their NamedTuple __new__
_new = tuple.__new__


def pad_to(core: bytes, width: int | None) -> bytes:
    if width is None:
        return core
    if len(core) > width:
        raise PayloadTooWide(f"{len(core)} bytes > width {width}")
    return core + b"\x00" * (width - len(core))


def bottom(width: int | None = None) -> bytes:
    return pad_to(BOTTOM, width)


def encode_payload(payload: Payload, width: int | None = None) -> bytes:
    # Each form packs its fixed parts with the Structs decode_payload reads.
    # A Struct pads or cuts a field to its width and refuses an integer
    # outside [0, 2**64), so an attacker-built payload with another width or
    # integer is written by `_joined`, which computes every prefix from the
    # fields (the same bytes) and raises OverflowError as `be64` does.
    try:
        if isinstance(payload, TimePayload):
            steps, config, (proof_steps, commitment) = payload
            if len(config) == 32 and len(commitment) == 32:
                return pad_to(_TIME_TAG + _TIME_CORE.pack(
                    _INT_LEN, steps, _DIGEST_LEN, config,
                    _PROOF_HEAD, proof_steps, _DIGEST_LEN, commitment,
                ), width)
        elif isinstance(payload, ClearPayload):
            (nonce, sig), level, (token, digest) = payload
            if len(nonce) == 16 and len(token) == 16 and len(digest) == 32:
                n = len(sig)
                return pad_to(b"".join((
                    _CLEAR_TAG, _LADDER_HEAD.pack(24 + n, 16, nonce, n), sig,
                    _CLEAR_TAIL.pack(_INT_LEN, level, _TOKEN_HEAD, token, _DIGEST_LEN, digest),
                )), width)
        elif isinstance(payload, EncPayload):
            (tag, body), id1, id2, key2 = payload
            at1, at2, at3 = _ENC_PREFIX
            p1, p2, p3 = at1.get(len(id1)), at2.get(len(id2)), at3.get(len(key2))
            if len(tag) == 16 and p1 and p2 and p3:
                n = len(body)
                return pad_to(b"".join((
                    _ENC_TAG, _LADDER_HEAD.pack(24 + n, 16, tag, n), body,
                    p1, id1, p2, id2, p3, key2,
                )), width)
    except StructError:  # an integer outside [0, 2**64), or a field Struct refuses
        pass
    return pad_to(_joined(payload), width)


def _joined(payload: Payload) -> bytes:
    """`payload`'s core as one join of its length-prefixed fields, of any widths."""
    if isinstance(payload, ClearPayload):
        nonce, sig = payload.token.nonce, payload.token.core
        token, digest = payload.proof.token, payload.proof.statement_digest
        return b"".join((
            _CLEAR_TAG,
            be32(8 + len(nonce) + len(sig)), be32(len(nonce)), nonce, be32(len(sig)), sig,
            _INT_LEN, be64(payload.level),
            be32(8 + len(token) + len(digest)), be32(len(token)), token,
            be32(len(digest)), digest,
        ))
    if isinstance(payload, EncPayload):
        ct = payload.ciphertext
        tag, body = ct.identity_tag, ct.body
        id1, id2, key2 = payload.id1, payload.id2, payload.key2
        return b"".join((
            _ENC_TAG,
            be32(8 + len(tag) + len(body)), be32(len(tag)), tag, be32(len(body)), body,
            be32(len(id1)), id1, be32(len(id2)), id2, be32(len(key2)), key2,
        ))
    if isinstance(payload, TimePayload):
        config, proof = payload.config, payload.proof
        commitment = proof.commitment
        return b"".join((
            _TIME_TAG,
            _INT_LEN, be64(payload.steps),
            be32(len(config)), config,
            be32(16 + len(commitment)), _INT_LEN, be64(proof.steps),
            be32(len(commitment)), commitment,
        ))
    raise TypeError(f"not a payload: {payload!r}")


def decode_payload(buf: bytes) -> Payload | None:
    if len(buf) < 1:
        return None
    tag = buf[0]
    if tag == TAG_TIME_CLEAR:
        # The fixed 101-byte core of the module docstring, read in one unpack:
        # the five length prefixes are compared, the fields taken as they are.
        if len(buf) < _TIME_CORE_LEN or buf.count(0, _TIME_CORE_LEN) != len(buf) - _TIME_CORE_LEN:
            return None
        (steps_len, steps, config_len, config,
         proof_head, proof_steps, commitment_len, commitment) = _TIME_CORE.unpack_from(buf, 1)
        if (
            steps_len != _INT_LEN
            or config_len != _DIGEST_LEN
            or proof_head != _PROOF_HEAD
            or commitment_len != _DIGEST_LEN
            or steps < 1
        ):
            return None
        return _new(TimePayload, (steps, config, _new(IvcProof, (proof_steps, commitment))))
    if (tag != TAG_CLEAR and tag != TAG_ENC) or len(buf) < _HEAD_END:
        return None
    # the ladder head of the module docstring; n is `free`
    field_len, first_len, first, free = _LADDER_HEAD.unpack_from(buf, 1)
    end = _HEAD_END + free
    if field_len != 24 + free or first_len != 16:
        return None
    if tag == TAG_CLEAR:
        pad = end + _CLEAR_TAIL.size
        if len(buf) < pad or buf.count(0, pad) != len(buf) - pad:
            return None
        int_len, level, token_head, token, digest_len, digest = _CLEAR_TAIL.unpack_from(buf, end)
        if (int_len != _INT_LEN or token_head != _TOKEN_HEAD or digest_len != _DIGEST_LEN
                or level < 1):
            return None
        sig = _new(SignatureToken, (first, buf[_HEAD_END:end]))
        return _new(ClearPayload, (sig, level, _new(ProofToken, (token, digest))))
    ciphertext, size = _new(Ciphertext, (first, buf[_HEAD_END:end])), len(buf)
    # the honest tails in one read each: id1, id2 and key2 all present, or all empty
    pad = end + _FULL_TAIL.size
    if size >= pad:
        p1, id1, p2, id2, p3, key2 = _FULL_TAIL.unpack_from(buf, end)
        if p1 == p2 == _ID_PREFIX and p3 == _KEY_PREFIX:
            if buf.count(0, pad) != size - pad:
                return None
            return _new(EncPayload, (ciphertext, id1, id2, key2))
    if size - end >= 12 and buf.count(0, end) == size - end:  # three zero prefixes, padding
        return _new(EncPayload, (ciphertext, b"", b"", b""))
    fields, pos = [ciphertext], end  # any other tail, field by field
    for widths in _ENC_TAIL:
        width = widths.get(buf[pos : pos + 4])
        if width is None or pos + 4 + width > size:
            return None
        fields.append(buf[pos + 4 : pos + 4 + width])
        pos += 4 + width
    if buf.count(0, pos) != size - pos:
        return None
    return _new(EncPayload, fields)


def sealed(ct: Ciphertext, shipped: IdentityKey | None = None) -> EncPayload:
    """The container of `ct`: an input for `ct`'s identity shipping `shipped`; else an answer."""
    if shipped is None:
        return EncPayload(ct, b"", b"", b"")
    return EncPayload(ct, ct.identity_tag, shipped.tag, shipped.key)


def unseal(cipher: IdentityCipher, p: Payload | None) -> Payload | None:
    """What container `p` seals under `cipher`; None if it is none or fails to open."""
    if not isinstance(p, EncPayload):
        return None
    inner = cipher.decrypt(p.ciphertext)
    return None if inner is None else decode_payload(inner)
