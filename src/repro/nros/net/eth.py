"""Ethernet framing: a frame is bytes, read and written field by field."""

from __future__ import annotations

import struct

ETHERTYPE_IPV4 = 0x0800
BROADCAST = b"\xff" * 6
HEADER_LEN = 14

# destination MAC, source MAC, ethertype
_HEADER = struct.Struct(">6s6sH")


class FrameError(Exception):
    pass


def encode(dst: bytes, src: bytes, ethertype: int, payload: bytes) -> bytes:
    # `6s` pads or truncates silently: a wrong-length MAC is refused here
    if len(dst) != 6 or len(src) != 6:
        raise FrameError("MAC addresses are 6 bytes")
    if not 0 <= ethertype <= 0xFFFF:
        raise FrameError(f"bad ethertype {ethertype:#x}")
    return _HEADER.pack(dst, src, ethertype) + payload


def decode(data: bytes) -> tuple[bytes, bytes, int, bytes]:
    """-> (dst, src, ethertype, payload)."""
    if len(data) < HEADER_LEN:
        raise FrameError(f"frame too short: {len(data)} bytes")
    return _HEADER.unpack_from(data) + (data[HEADER_LEN:],)
