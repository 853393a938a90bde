"""IPv4 packets with a real header checksum.

No options, no fragmentation (links carry whole datagrams; the MTU of the
simulated fabric is generous), but the header layout and the ones'-
complement checksum are the real thing — corrupted headers are detected and
dropped, which the lossy-link tests rely on."""

from __future__ import annotations

import struct
from dataclasses import dataclass

PROTO_UDP = 17
HEADER_LEN = 20


class PacketError(Exception):
    pass


def checksum16(data: bytes) -> int:
    """RFC 1071 ones'-complement sum.

    Read as one big-endian integer, `data` is the sum of its 16-bit
    words each scaled by a power of 2**16; 2**16 = 1 (mod 0xFFFF), so
    that integer is congruent to the plain word sum, and folding carries
    end-around is reduction mod 0xFFFF with one difference — a non-zero
    multiple of 0xFFFF folds to 0xFFFF, not to 0."""
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8     # the odd trailing byte is the high half of its word
    return ~(total % 0xFFFF or (0xFFFF if total else 0)) & 0xFFFF


# version/IHL, TOS, total length, identification, flags/fragment, TTL,
# protocol, header checksum, source, destination
_HEADER = struct.Struct(">BBHHHBBHII")


@dataclass(frozen=True)
class Ipv4Packet:
    src: int        # 32-bit address
    dst: int
    proto: int
    payload: bytes
    ttl: int = 64

    def encode(self) -> bytes:
        total_len = HEADER_LEN + len(self.payload)
        cksum = checksum16(_HEADER.pack(
            0x45, 0, total_len, 0, 0, self.ttl, self.proto, 0,
            self.src, self.dst))
        return _HEADER.pack(
            0x45, 0, total_len, 0, 0, self.ttl, self.proto, cksum,
            self.src, self.dst) + self.payload

    @staticmethod
    def decode(data: bytes) -> "Ipv4Packet":
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
        # included) with its checksum field zeroed
        if checksum16(_HEADER.pack(vihl, tos, total_len, ident, frag, ttl,
                                   proto, 0, src, dst)) != cksum:
            raise PacketError("header checksum mismatch")
        return Ipv4Packet(
            src=src, dst=dst, proto=proto,
            payload=data[HEADER_LEN:total_len], ttl=ttl,
        )


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
