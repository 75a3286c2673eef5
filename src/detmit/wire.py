"""Length-prefixed binary framing shared by tokens, ciphertexts and payloads.

All multi-field byte layouts in the simulator use the same convention:
fields concatenated in declared order, each prefixed with a big-endian
32-bit length.  Decoding is total: malformed input yields ``None`` rather
than an exception, because the quality oracle must score arbitrary bytes.
"""

from __future__ import annotations


def be32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def be64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def pack_fields(*fields: bytes) -> bytes:
    return b"".join(be32(len(f)) + f for f in fields)


def unpack_fields(buf: bytes, count: int) -> tuple[list[bytes], bytes] | None:
    """Read exactly `count` length-prefixed fields; returns (fields, rest)."""
    fields: list[bytes] = []
    end, size = 0, len(buf)
    for _ in range(count):
        start = end + 4
        # a short length prefix leaves start > size, so one check covers both
        end = start + int.from_bytes(buf[end:start], "big")
        if end > size:
            return None
        fields.append(buf[start:end])
    return fields, buf[end:]


def unpack_exact(buf: bytes, count: int) -> list[bytes] | None:
    """Like unpack_fields but requires the buffer to be fully consumed."""
    parsed = unpack_fields(buf, count)
    if parsed is None or parsed[1] != b"":
        return None
    return parsed[0]
