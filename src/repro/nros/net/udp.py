"""UDP datagrams with the pseudo-header checksum."""

from __future__ import annotations

import struct

from repro.nros.net.ip import PROTO_UDP, checksum16

HEADER_LEN = 8


class DatagramError(Exception):
    pass


_HEADER = struct.Struct(">HHHH")  # source port, destination port, length, checksum


def _covered(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
             length: int) -> int:
    """The fields the checksum covers ahead of the payload: the IPv4
    pseudo-header (source, destination, zero, protocol, UDP length),
    then the header but for its checksum."""
    return src_ip + dst_ip + PROTO_UDP + length + src_port + dst_port + length


def encode(src_ip: int, dst_ip: int, src_port: int, dst_port: int,
           payload: bytes) -> bytes:
    """One datagram, checksummed over the IPv4 pseudo-header."""
    length = HEADER_LEN + len(payload)
    cksum = checksum16(
        payload, _covered(src_ip, dst_ip, src_port, dst_port, length))
    return _HEADER.pack(src_port, dst_port, length, cksum) + payload


def decode(data: bytes, src_ip: int, dst_ip: int) -> tuple[int, int, bytes]:
    """-> (src_port, dst_port, payload)."""
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
            payload,
            _covered(src_ip, dst_ip, src_port, dst_port, length)) != cksum:
        raise DatagramError("UDP checksum mismatch")
    return src_port, dst_port, payload
