"""Payload wire format shared by the two generative tasks.

A payload is one form-tag byte, the form's fields length-prefixed in
declared order, then zero padding out to the instance width so lengths are
non-informative.  Decoding is total and padding-agnostic: any violation
(unknown tag, truncated field, nonzero padding, bad field width) yields
``None`` instead of raising, because the quality oracle scores arbitrary
bytes.

Forms:

* ``0x01`` clear ladder payload   — signature token, level, count proof
* ``0x02`` encrypted container    — ciphertext, id1, id2, key2 (ids/key may
  be empty in answer position)
* ``0x03`` clear chain payload    — step count, configuration, chain proof

A chain payload decodes only with fixed field widths, so every one that
decodes has the same 101-byte core, read at fixed offsets:

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

from struct import Struct
from typing import NamedTuple

from .crypto import IDENTITY_LEN, Ciphertext, IvcProof, ProofToken, SignatureToken
from .wire import be32, be64, unpack_fields

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
_DIGEST_LEN = be32(32)  # the prefix of a chain configuration or commitment
_PROOF_HEAD = be32(48) + _INT_LEN  # a chain proof's prefix, then its step count's
_TIME_CORE_LEN = 101
# the chain core after its tag, one item per row of the module docstring's
# table, the two length prefixes at offset 49 read as one 8-byte item
_TIME_CORE = Struct(">4sQ4s32s8sQ4s32s")


def pad_to(core: bytes, width: int | None) -> bytes:
    if width is None:
        return core
    if len(core) > width:
        raise PayloadTooWide(f"{len(core)} bytes > width {width}")
    return core + b"\x00" * (width - len(core))


def bottom(width: int | None = None) -> bytes:
    return pad_to(BOTTOM, width)


def encode_payload(payload: Payload, width: int | None = None) -> bytes:
    # Each form is written in one join of its length-prefixed fields, nested
    # ones flattened in place.  Attacker-built payloads may carry fields of
    # any length, so the prefixes are computed, never assumed.
    if isinstance(payload, ClearPayload):
        nonce, sig = payload.token.nonce, payload.token.core
        token, digest = payload.proof.token, payload.proof.statement_digest
        core = b"".join((
            _CLEAR_TAG,
            be32(8 + len(nonce) + len(sig)), be32(len(nonce)), nonce, be32(len(sig)), sig,
            _INT_LEN, be64(payload.level),
            be32(8 + len(token) + len(digest)), be32(len(token)), token,
            be32(len(digest)), digest,
        ))
    elif isinstance(payload, EncPayload):
        ct = payload.ciphertext
        tag, body = ct.identity_tag, ct.body
        id1, id2, key2 = payload.id1, payload.id2, payload.key2
        core = b"".join((
            _ENC_TAG,
            be32(8 + len(tag) + len(body)), be32(len(tag)), tag, be32(len(body)), body,
            be32(len(id1)), id1, be32(len(id2)), id2, be32(len(key2)), key2,
        ))
    elif isinstance(payload, TimePayload):
        config, proof = payload.config, payload.proof
        commitment = proof.commitment
        core = b"".join((
            _TIME_TAG,
            _INT_LEN, be64(payload.steps),
            be32(len(config)), config,
            be32(16 + len(commitment)), _INT_LEN, be64(proof.steps),
            be32(len(commitment)), commitment,
        ))
    else:  # pragma: no cover - exhaustive by type
        raise TypeError(f"not a payload: {payload!r}")
    return pad_to(core, width)


def _zero_padding(rest: bytes) -> bool:
    return rest.count(0) == len(rest)


def decode_payload(buf: bytes) -> Payload | None:
    if len(buf) < 1:
        return None
    tag = buf[0]
    if tag == TAG_CLEAR:
        parsed = unpack_fields(buf[1:], 3)
        if parsed is None:
            return None
        (token_b, level_b, proof_b), rest = parsed
        if not _zero_padding(rest) or len(level_b) != 8:
            return None
        token = SignatureToken.from_bytes(token_b)
        proof = ProofToken.from_bytes(proof_b)
        level = int.from_bytes(level_b, "big")
        if token is None or proof is None or level < 1:
            return None
        return ClearPayload(token=token, level=level, proof=proof)
    if tag == TAG_TIME_CLEAR:
        # The fixed 101-byte core of the module docstring, read in one unpack:
        # the five length prefixes are compared, the fields taken as they are.
        if len(buf) < _TIME_CORE_LEN or not _zero_padding(buf[_TIME_CORE_LEN:]):
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
        return TimePayload(steps, config, IvcProof(proof_steps, commitment))
    if tag == TAG_ENC:
        parsed = unpack_fields(buf[1:], 4)
        if parsed is None:
            return None
        (ct_b, id1, id2, key2), rest = parsed
        if not _zero_padding(rest):
            return None
        if len(id1) not in (0, IDENTITY_LEN) or len(id2) not in (0, IDENTITY_LEN):
            return None
        if len(key2) not in (0, IDENTITY_KEY_LEN):
            return None
        ct = Ciphertext.from_bytes(ct_b)
        if ct is None:
            return None
        return EncPayload(ciphertext=ct, id1=id1, id2=id2, key2=key2)
    return None
