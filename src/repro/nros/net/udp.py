"""UDP datagrams with the pseudo-header checksum."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.nros.net.ip import PROTO_UDP, checksum16

HEADER_LEN = 8


class DatagramError(Exception):
    pass


_HEADER = struct.Struct(">HHHH")  # source port, destination port, length, checksum
# what the checksum covers ahead of the payload: the IPv4 pseudo-header
# (source, destination, zero, protocol, UDP length), then the header
_CHECKED = struct.Struct(">IIBBHHHHH")


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: bytes

    def encode(self, src_ip: int, dst_ip: int) -> bytes:
        length = HEADER_LEN + len(self.payload)
        cksum = checksum16(
            _CHECKED.pack(src_ip, dst_ip, 0, PROTO_UDP, length,
                          self.src_port, self.dst_port, length, 0)
            + self.payload)
        return (_HEADER.pack(self.src_port, self.dst_port, length, cksum)
                + self.payload)

    @staticmethod
    def decode(data: bytes, src_ip: int, dst_ip: int) -> "UdpDatagram":
        if len(data) < HEADER_LEN:
            raise DatagramError("datagram shorter than UDP header")
        src_port, dst_port, length, cksum = _HEADER.unpack_from(data)
        if length > len(data):
            raise DatagramError("truncated datagram")
        if length < HEADER_LEN:
            raise DatagramError(
                f"length {length} is shorter than the header")
        payload = data[HEADER_LEN:length]
        if checksum16(
                _CHECKED.pack(src_ip, dst_ip, 0, PROTO_UDP, length,
                              src_port, dst_port, length, 0)
                + payload) != cksum:
            raise DatagramError("UDP checksum mismatch")
        return UdpDatagram(src_port=src_port, dst_port=dst_port,
                           payload=payload)
