"""Length-prefixed binary framing shared by tokens, ciphertexts and payloads.

All multi-field byte layouts in the simulator use the same convention:
fields concatenated in declared order, each prefixed with a big-endian
32-bit length.  The payload codec packs and reads them through one
``Struct`` per form (see :mod:`detmit.payloads`).
"""

from __future__ import annotations


def be32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def be64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def pack_fields(*fields: bytes) -> bytes:
    return b"".join(be32(len(f)) + f for f in fields)
