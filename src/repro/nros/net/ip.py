"""IPv4 packets with a real header checksum.

No options, no fragmentation (links carry whole datagrams; the MTU of the
simulated fabric is generous), but the header layout and the ones'-
complement checksum are the real thing — corrupted headers are detected and
dropped, which the lossy-link tests rely on."""

from __future__ import annotations

import struct

PROTO_UDP = 17
HEADER_LEN = 20


class PacketError(Exception):
    pass


def checksum16(data: bytes = b"", fields: int = 0) -> int:
    """RFC 1071 ones'-complement sum of header `fields`, then `data`.

    Read as one big-endian integer, `data` is the sum of its 16-bit
    words each scaled by a power of 2**16; 2**16 = 1 (mod 0xFFFF), so
    that integer is congruent to the plain word sum, and folding carries
    end-around is reduction mod 0xFFFF with one difference — a non-zero
    multiple of 0xFFFF folds to 0xFFFF, not to 0.  For the same reason a
    header need not be packed to be summed: `fields` is the plain sum of
    its 16- and 32-bit fields (two byte fields count as one word), and
    the result is that of `checksum16(<the packed header> + data)`."""
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8     # the odd trailing byte is the high half of its word
    total += fields
    return ~(total % 0xFFFF or (0xFFFF if total else 0)) & 0xFFFF


# version/IHL, TOS, total length, identification, flags/fragment, TTL,
# protocol, header checksum, source, destination
_HEADER = struct.Struct(">BBHHHBBHII")


def encode(src: int, dst: int, proto: int, payload: bytes,
           ttl: int = 64) -> bytes:
    """One packet from 32-bit source and destination addresses."""
    total_len = HEADER_LEN + len(payload)
    cksum = checksum16(fields=0x4500 + total_len + (ttl << 8 | proto)
                       + src + dst)
    return _HEADER.pack(
        0x45, 0, total_len, 0, 0, ttl, proto, cksum, src, dst) + payload


def decode(data: bytes) -> tuple[int, int, int, int, bytes]:
    """-> (src, dst, proto, ttl, payload)."""
    if len(data) < HEADER_LEN:
        raise PacketError("packet shorter than IPv4 header")
    (vihl, tos, total_len, ident, frag, ttl, proto, cksum,
     src, dst) = _HEADER.unpack_from(data)
    if vihl != 0x45:
        raise PacketError(f"unsupported version/IHL {vihl:#x}")
    if total_len > len(data):
        raise PacketError("truncated packet")
    if total_len < HEADER_LEN:
        raise PacketError(
            f"total length {total_len} is shorter than the header")
    # the header as received (TOS, identification and fragment bits
    # included) but for its checksum field
    if checksum16(fields=(vihl << 8 | tos) + total_len + ident + frag
                  + (ttl << 8 | proto) + src + dst) != cksum:
        raise PacketError("header checksum mismatch")
    return src, dst, proto, ttl, data[HEADER_LEN:total_len]


def ip_str(addr: int) -> str:
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def ip_addr(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        byte = int(part)
        if not 0 <= byte <= 255:
            raise ValueError(f"bad IPv4 address {dotted!r}")
        value = (value << 8) | byte
    return value
