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

    The big-endian 16-bit words are summed in one pass and the carries
    folded at the end: ones'-complement addition is associative, so the
    result equals the word-at-a-time end-around-carry loop's."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass(frozen=True)
class Ipv4Packet:
    src: int        # 32-bit address
    dst: int
    proto: int
    payload: bytes
    ttl: int = 64

    def encode(self) -> bytes:
        total_len = HEADER_LEN + len(self.payload)
        header = struct.pack(
            ">BBHHHBBHII",
            0x45, 0, total_len, 0, 0, self.ttl, self.proto, 0,
            self.src, self.dst,
        )
        cksum = checksum16(header)
        header = header[:10] + cksum.to_bytes(2, "big") + header[12:]
        return header + self.payload

    @staticmethod
    def decode(data: bytes) -> "Ipv4Packet":
        if len(data) < HEADER_LEN:
            raise PacketError("packet shorter than IPv4 header")
        (vihl, _tos, total_len, _ident, _frag, ttl, proto, cksum,
         src, dst) = struct.unpack(">BBHHHBBHII", data[:HEADER_LEN])
        if vihl != 0x45:
            raise PacketError(f"unsupported version/IHL {vihl:#x}")
        if total_len > len(data):
            raise PacketError("truncated packet")
        header_zeroed = data[:10] + b"\x00\x00" + data[12:HEADER_LEN]
        if checksum16(header_zeroed) != cksum:
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
