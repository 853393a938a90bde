"""Network stack tests: framing, checksums, UDP, RDP over lossy links."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.devices.nic import Nic
from repro.nros.net import eth, ip, udp
from repro.nros.net.arp import ETHERTYPE_ARP, request
from repro.nros.net.eth import BROADCAST, FrameError
from repro.nros.net.ip import PacketError, checksum16, ip_addr, ip_str
from repro.nros.net.link import Hub, Link
from repro.nros.net.rdp import RdpSegment, RdpError, TYPE_DATA
from repro.nros.net.stack import NetError, NetStack
from repro.nros.net.udp import DatagramError

MAC_A = bytes.fromhex("020000000001")
MAC_B = bytes.fromhex("020000000002")
IP_A = ip_addr("10.0.0.1")
IP_B = ip_addr("10.0.0.2")


def make_pair(drop_rate=0.0, seed=0):
    nic_a, nic_b = Nic(MAC_A), Nic(MAC_B)
    stack_a, stack_b = NetStack(IP_A, nic_a), NetStack(IP_B, nic_b)
    stack_a.add_neighbour(IP_B, MAC_B)
    stack_b.add_neighbour(IP_A, MAC_A)
    link = Link(nic_a, nic_b, drop_rate=drop_rate, seed=seed)
    return stack_a, stack_b, link


def rfc1071_reference(data: bytes) -> int:
    """The word-at-a-time end-around-carry loop of RFC 1071 — the
    reference `checksum16` must agree with bit for bit."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pump(link, *stacks, rounds=1):
    for _ in range(rounds):
        link.pump()
        for stack in stacks:
            stack.poll()


def reference_frame(dst_mac, src_mac, src_ip, dst_ip, src_port, dst_port,
                    payload):
    """The Ethernet + IPv4 + UDP frame `udp_send` must put on the wire,
    laid out field by field with `struct` and `rfc1071_reference`."""
    length = 8 + len(payload)
    pseudo = struct.pack(">IIBBH", src_ip, dst_ip, 0, 17, length)
    udp_cksum = rfc1071_reference(
        pseudo + struct.pack(">HHHH", src_port, dst_port, length, 0)
        + payload)
    datagram = struct.pack(">HHHH", src_port, dst_port, length,
                           udp_cksum) + payload
    fields = [0x45, 0, 20 + len(datagram), 0, 0, 64, 17, 0, src_ip, dst_ip]
    fields[7] = rfc1071_reference(struct.pack(">BBHHHBBHII", *fields))
    packet = struct.pack(">BBHHHBBHII", *fields) + datagram
    return dst_mac + src_mac + b"\x08\x00" + packet


class TestEth:
    def test_roundtrip(self):
        raw = eth.encode(MAC_A, MAC_B, 0x0800, b"payload")
        assert eth.decode(raw) == (MAC_A, MAC_B, 0x0800, b"payload")

    def test_short_frame(self):
        with pytest.raises(FrameError, match="frame too short: 5 bytes"):
            eth.decode(b"short")

    def test_bad_mac(self):
        """`struct`'s `6s` would pad a short MAC and cut a long one: the
        explicit length check is what refuses them."""
        for mac in (b"xx", MAC_A[:5], MAC_A + b"\x00"):
            with pytest.raises(FrameError, match="MAC addresses are 6 bytes"):
                eth.encode(mac, MAC_B, 0x0800, b"")
            with pytest.raises(FrameError, match="MAC addresses are 6 bytes"):
                eth.encode(MAC_A, mac, 0x0800, b"")

    @pytest.mark.parametrize("ethertype", [-1, 0x10000])
    def test_ethertype_out_of_range(self, ethertype):
        with pytest.raises(FrameError, match="bad ethertype"):
            eth.encode(MAC_A, MAC_B, ethertype, b"")

    def test_add_neighbour_refuses_a_bad_mac_at_the_call(self):
        a, _, _ = make_pair()
        for mac in (MAC_B[:5], MAC_B + b"\x00"):
            with pytest.raises(FrameError, match="MAC addresses are 6 bytes"):
                a.add_neighbour(IP_B, mac)
        assert a.neighbours[IP_B] == MAC_B


class TestIp:
    def test_roundtrip(self):
        raw = ip.encode(IP_A, IP_B, 17, b"hi")
        assert ip.decode(raw) == (IP_A, IP_B, 17, 64, b"hi")

    def test_checksum_detects_corruption(self):
        data = bytearray(ip.encode(IP_A, IP_B, 17, b"hi"))
        data[12] ^= 0xFF  # flip src address bits
        with pytest.raises(PacketError, match="checksum"):
            ip.decode(bytes(data))

    def test_checksum16_known_value(self):
        # RFC 1071 example bytes
        assert checksum16(bytes.fromhex("00010203")) == ~((0x0001 + 0x0203)) & 0xFFFF

    @pytest.mark.parametrize("data", [
        b"", b"\x00", b"\xff", b"\x00" * 7, b"\x00" * 64,
        b"\xff" * 2, b"\xff" * 3, b"\xff" * 2048,     # sum is k * 0xFFFF
        b"\xff\xff\x00\x01", b"\x00\x01" + b"\xff\xff" * 40,  # carry chains
        b"\x80\x00" * 2, b"\xff\xfe\x00\x01\x00\x01", b"\x12\x34\x56",
    ], ids=lambda data: f"{len(data)}B-{data[:3].hex()}")
    def test_checksum16_matches_reference_on_edge_cases(self, data):
        assert checksum16(data) == rfc1071_reference(data)

    def test_checksum16_is_ffff_only_for_all_zero_input(self):
        assert checksum16(b"") == checksum16(b"\x00" * 9) == 0xFFFF
        assert checksum16(b"\xff" * 2048) == 0  # never the other zero

    @given(st.binary(max_size=2048))
    @settings(max_examples=300)
    def test_checksum16_matches_reference_property(self, data):
        assert checksum16(data) == rfc1071_reference(data)

    @given(st.lists(st.integers(0, 0xFFFF), max_size=4),
           st.lists(st.integers(0, 0xFFFF_FFFF), max_size=4),
           st.binary(max_size=64))
    @settings(max_examples=300)
    def test_checksum16_of_summed_fields_is_that_of_the_packed_header(
            self, words, longs, data):
        header = struct.pack(f">{len(words)}H{len(longs)}I", *words, *longs)
        assert checksum16(data, sum(words) + sum(longs)) == \
            rfc1071_reference(header + data)

    def test_decode_verifies_the_header_as_received(self):
        """TOS / identification / fragment bits we never send are still
        covered by the checksum of a packet that carries them."""
        fields = [0x45, 0x10, 22, 0x1234, 0x4000, 9, 17, 0, IP_A, IP_B]
        fields[7] = rfc1071_reference(struct.pack(">BBHHHBBHII", *fields))
        data = struct.pack(">BBHHHBBHII", *fields) + b"hi"
        assert ip.decode(data) == (IP_A, IP_B, 17, 9, b"hi")
        for index in (1, 4, 6):     # tos, identification, fragment bits
            damaged = bytearray(data)
            damaged[index] ^= 0x01
            with pytest.raises(PacketError, match="checksum"):
                ip.decode(bytes(damaged))

    def test_trailing_bytes_beyond_total_len_are_not_payload(self):
        data = ip.encode(IP_A, IP_B, 17, b"hi") + b"padding"
        assert ip.decode(data)[4] == b"hi"

    def test_total_len_smaller_than_the_header_is_malformed(self):
        """`total_len = 8` with a header checksum that is *right*: only
        the length check can refuse it."""
        fields = [0x45, 0, 8, 0, 0, 64, 17, 0, IP_A, IP_B]
        fields[7] = rfc1071_reference(struct.pack(">BBHHHBBHII", *fields))
        data = struct.pack(">BBHHHBBHII", *fields) + b"vanishing payload"
        with pytest.raises(PacketError, match="total length 8"):
            ip.decode(data)

    def test_ip_str_addr_roundtrip(self):
        assert ip_str(ip_addr("192.168.1.200")) == "192.168.1.200"
        with pytest.raises(ValueError):
            ip_addr("300.0.0.1")
        with pytest.raises(ValueError):
            ip_addr("1.2.3")

    @given(st.binary(max_size=100))
    @settings(max_examples=40)
    def test_roundtrip_property(self, payload):
        assert ip.decode(ip.encode(IP_A, IP_B, 17, payload))[4] == payload


class TestUdp:
    def test_roundtrip(self):
        raw = udp.encode(IP_A, IP_B, 1234, 80, b"data")
        assert udp.decode(raw, IP_A, IP_B) == (1234, 80, b"data")

    def test_checksum_includes_pseudo_header(self):
        encoded = udp.encode(IP_A, IP_B, 1, 2, b"x")
        # decoding with different addresses must fail the checksum
        with pytest.raises(DatagramError, match="UDP checksum mismatch"):
            udp.decode(encoded, IP_A, IP_A)

    def test_truncated(self):
        with pytest.raises(DatagramError, match="shorter than UDP header"):
            udp.decode(b"\x00\x01", IP_A, IP_B)

    def test_trailing_bytes_beyond_length_are_not_payload(self):
        data = udp.encode(IP_A, IP_B, 1, 2, b"abc") + b"padding"
        assert udp.decode(data, IP_A, IP_B)[2] == b"abc"

    def test_length_smaller_than_the_header_is_malformed(self):
        """A length field of 4, checksummed over that same length the
        way the decoder does (pseudo-header + header, no payload): only
        the length check can refuse it."""
        pseudo = struct.pack(">IIBBH", IP_A, IP_B, 0, 17, 4)
        header = struct.pack(">HHHH", 1234, 80, 4, 0)
        cksum = rfc1071_reference(pseudo + header)
        data = struct.pack(">HHHH", 1234, 80, 4, cksum) + b"vanishing payload"
        with pytest.raises(DatagramError, match="length 4"):
            udp.decode(data, IP_A, IP_B)

    def test_undersized_lengths_count_as_bad_frames(self):
        a, b, link = make_pair()
        sock = b.udp_bind(80)
        pseudo = struct.pack(">IIBBH", IP_A, IP_B, 0, 17, 4)
        cksum = rfc1071_reference(pseudo + struct.pack(">HHHH", 1, 80, 4, 0))
        bad_udp = struct.pack(">HHHH", 1, 80, 4, cksum) + b"lost"
        a._send_ip(IP_B, bad_udp)
        pump(link, a, b)
        assert (b.stats_bad, b.stats_rx, list(sock.recv_queue)) == (1, 0, [])


class TestUdpSockets:
    def test_send_recv(self):
        a, b, link = make_pair()
        sock = b.udp_bind(7777)
        a.udp_send(5555, IP_B, 7777, b"ping")
        pump(link, a, b)
        assert list(sock.recv_queue) == [(IP_A, 5555, b"ping")]

    def test_unbound_port_drops(self):
        a, b, link = make_pair()
        a.udp_send(5555, IP_B, 9999, b"nobody")
        pump(link, a, b)  # no exception, no crash

    def test_double_bind(self):
        a, _, _ = make_pair()[0], None, None
        a.udp_bind(80)
        with pytest.raises(NetError):
            a.udp_bind(80)

    def test_unknown_destination_triggers_arp(self):
        a, _, _ = make_pair()
        a.udp_send(1, ip_addr("10.9.9.9"), 2, b"x")
        # datagram queued pending resolution, ARP request broadcast
        assert a.stats_arp_requests == 1
        assert ip_addr("10.9.9.9") in a._arp_pending


def _ipv4_frame(packet):
    return eth.encode(MAC_B, MAC_A, 0x0800, packet)


def _bad_ip_checksum():
    packet = bytearray(ip.encode(IP_A, IP_B, 17,
                                 udp.encode(IP_A, IP_B, 1, 80, b"x")))
    packet[10] ^= 0x01
    return _ipv4_frame(bytes(packet))


# one frame of each kind a host is handed, built against B (10.0.0.2)
# with a socket on port 80 and an RDP listener on port 9000
REFUSED_OR_TAKEN = {
    "runt": lambda: b"\x02" * 9,
    "bad_ip_checksum": _bad_ip_checksum,
    "bad_udp_checksum": lambda: _ipv4_frame(ip.encode(
        IP_A, IP_B, 17, udp.encode(IP_A, IP_A, 1, 80, b"x"))),
    "foreign_ethertype": lambda: eth.encode(MAC_B, MAC_A, 0x86DD, b"v6"),
    "other_host": lambda: _ipv4_frame(ip.encode(
        IP_A, ip_addr("10.0.0.9"), 17,
        udp.encode(IP_A, ip_addr("10.0.0.9"), 1, 80, b"x"))),
    "not_udp": lambda: _ipv4_frame(ip.encode(IP_A, IP_B, 6, b"tcp")),
    "dead_port": lambda: _ipv4_frame(ip.encode(
        IP_A, IP_B, 17, udp.encode(IP_A, IP_B, 1, 81, b"x"))),
    "rdp_garbage": lambda: _ipv4_frame(ip.encode(
        IP_A, IP_B, 17, udp.encode(IP_A, IP_B, 1, 9000, b"?"))),
    "rdp_unknown_conn": lambda: _ipv4_frame(ip.encode(
        IP_A, IP_B, 17, udp.encode(IP_A, IP_B, 1, 9000,
                                   RdpSegment(TYPE_DATA, 7, 0, 0).encode()))),
    "arp": lambda: eth.encode(BROADCAST, MAC_A, ETHERTYPE_ARP,
                              request(MAC_A, IP_A, IP_B).encode()),
    "delivered": lambda: _ipv4_frame(ip.encode(
        IP_A, IP_B, 17, udp.encode(IP_A, IP_B, 1, 80, b"x"))),
}


class TestRefusedFrames:
    """Every frame a host refuses is counted once: `stats_bad` if it is
    malformed, `stats_dropped` if it is well formed but nobody here
    wants it.  `stats_rx` counts well-formed datagrams, taken or not."""

    def _host(self):
        _, b, _ = make_pair()
        b.rdp_listen(9000)
        return b, b.udp_bind(80)

    @pytest.mark.parametrize("kind, moved", [
        ("runt", (0, 1, 0)),
        ("bad_ip_checksum", (0, 1, 0)),
        ("bad_udp_checksum", (0, 1, 0)),
        ("foreign_ethertype", (0, 0, 1)),
        ("other_host", (0, 0, 1)),
        ("not_udp", (0, 0, 1)),
        ("dead_port", (1, 0, 1)),
        ("rdp_garbage", (1, 1, 0)),
        ("rdp_unknown_conn", (1, 0, 1)),
        ("arp", (0, 0, 0)),
        ("delivered", (1, 0, 0)),
    ])
    def test_each_kind_moves_only_its_counter(self, kind, moved):
        b, sock = self._host()
        b.nic.deliver(REFUSED_OR_TAKEN[kind]())
        b.poll()
        assert (b.stats_rx, b.stats_bad, b.stats_dropped) == moved
        assert len(sock.recv_queue) == (kind == "delivered")

    @given(st.lists(st.sampled_from(sorted(set(REFUSED_OR_TAKEN)
                                           - {"rdp_garbage",
                                              "rdp_unknown_conn"})),
                    max_size=60))
    @settings(max_examples=50)
    def test_every_polled_frame_is_accounted_for(self, kinds):
        b, sock = self._host()
        for kind in kinds:
            b.nic.deliver(REFUSED_OR_TAKEN[kind]())
        handled = b.poll()
        arp_frames = kinds.count("arp")
        assert handled == len(sock.recv_queue)
        assert len(kinds) == (arp_frames + b.stats_bad + b.stats_dropped
                              + len(sock.recv_queue))


macs = st.binary(min_size=6, max_size=6)
addrs = st.integers(0, 0xFFFF_FFFF)
ports = st.integers(0, 0xFFFF)


class TestCrossLayer:
    """`udp_send` through Ethernet, IPv4 and UDP against the reference
    layout above, and the peer's receive path against single-byte
    damage anywhere the IPv4 header checksum or the UDP checksum
    covers."""

    @given(mac_a=macs, mac_b=macs, ip_a=addrs, ip_b=addrs, src_port=ports,
           dst_port=ports, payload=st.binary(max_size=1472),
           mask=st.integers(1, 0xFF))
    @settings(max_examples=40, deadline=None)
    def test_udp_send_frame_and_single_byte_flips(
            self, mac_a, mac_b, ip_a, ip_b, src_port, dst_port, payload,
            mask):
        if ip_a == ip_b:
            ip_b ^= 1
        a, b = NetStack(ip_a, Nic(mac_a)), NetStack(ip_b, Nic(mac_b))
        a.add_neighbour(ip_b, mac_b)
        sock = b.udp_bind(dst_port)
        a.udp_send(src_port, ip_b, dst_port, payload)
        frame = a.nic.tx_ring.popleft()
        assert frame == reference_frame(mac_b, mac_a, ip_a, ip_b, src_port,
                                        dst_port, payload)
        b.nic.deliver(frame)
        b.poll()
        assert list(sock.recv_queue) == [(ip_a, src_port, payload)]

        # IPv4 header 14..34, UDP ports 34..38, UDP checksum 40..42,
        # payload 42..
        covered = [*range(14, 38), 40, 41, *range(42, len(frame))]
        for index in covered:
            damaged = bytearray(frame)
            damaged[index] ^= mask
            b.nic.deliver(bytes(damaged))
            b.poll()
        assert b.stats_bad == len(covered)
        assert (b.stats_rx, b.stats_dropped, len(sock.recv_queue)) == (1, 0, 1)


class TestArp:
    def _unseeded_pair(self):
        """Two stacks that only know themselves (no static neighbours)."""
        nic_a, nic_b = Nic(MAC_A), Nic(MAC_B)
        a, b = NetStack(IP_A, nic_a), NetStack(IP_B, nic_b)
        link = Link(nic_a, nic_b)
        return a, b, link

    def test_packet_roundtrip(self):
        from repro.nros.net.arp import ArpPacket, request, reply

        req = request(MAC_A, IP_A, IP_B)
        assert ArpPacket.decode(req.encode()) == req
        rep = reply(MAC_B, IP_B, MAC_A, IP_A)
        assert ArpPacket.decode(rep.encode()) == rep

    def test_decode_errors(self):
        from repro.nros.net.arp import ArpError, ArpPacket

        with pytest.raises(ArpError):
            ArpPacket.decode(b"short")
        bad_op = bytearray(
            __import__("repro.nros.net.arp", fromlist=["request"])
            .request(MAC_A, IP_A, IP_B).encode()
        )
        bad_op[7] = 9
        with pytest.raises(ArpError):
            ArpPacket.decode(bytes(bad_op))

    def test_resolution_delivers_queued_datagram(self):
        a, b, link = self._unseeded_pair()
        sock = b.udp_bind(53)
        a.udp_send(1000, IP_B, 53, b"resolved!")
        assert IP_B in a._arp_pending
        pump(link, a, b, rounds=3)
        # request reached b, reply reached a, datagram flushed and arrived
        assert list(sock.recv_queue) == [(IP_A, 1000, b"resolved!")]
        assert a.neighbours[IP_B] == MAC_B
        assert b.neighbours[IP_A] == MAC_A  # learned from the request
        assert IP_B not in a._arp_pending

    def test_multiple_queued_datagrams_flush_in_order(self):
        a, b, link = self._unseeded_pair()
        sock = b.udp_bind(53)
        for i in range(3):
            a.udp_send(1000, IP_B, 53, f"m{i}".encode())
        pump(link, a, b, rounds=3)
        assert [payload for _, _, payload in sock.recv_queue] == \
            [b"m0", b"m1", b"m2"]

    def test_pending_queue_bounded(self):
        a, _, _ = self._unseeded_pair()
        for i in range(40):
            a.udp_send(1, ip_addr("10.9.9.9"), 2, bytes([i]))
        assert len(a._arp_pending[ip_addr("10.9.9.9")]) == 16

    def test_overflow_of_the_pending_queue_is_counted(self):
        """20 sends to an unresolved address: 16 wait, 4 are dropped and
        *counted*, and the 16 arrive in order once the reply does."""
        a, b, link = self._unseeded_pair()
        sock = b.udp_bind(53)
        for i in range(20):
            a.udp_send(1000, IP_B, 53, bytes([i]))
        assert len(a._arp_pending[IP_B]) == 16
        assert a.stats_arp_dropped == 4
        pump(link, a, b, rounds=3)
        assert [payload for _, _, payload in sock.recv_queue] == \
            [bytes([i]) for i in range(16)]
        assert a.stats_arp_dropped == 4

    def test_rdp_over_arp_resolution(self):
        """A full RDP session where neither side was preconfigured."""
        a, b, link = self._unseeded_pair()
        listener = b.rdp_listen(9000)
        conn = a.rdp_connect(IP_B, 9000)
        conn.queue_send(b"payload")
        server = None
        got = None
        for _ in range(200):
            a.tick()
            b.tick()
            pump(link, a, b, rounds=2)
            if server is None and listener.pending:
                server = listener.pending.popleft()
            if server is not None and server.recv_queue:
                got = server.recv_queue.popleft()
                break
        assert got == b"payload"


class TestWireBytesPinned:
    """One `udp_send` frame, byte for byte (eth + IPv4 + UDP), as the
    stack put it on the wire before its header codecs were rewritten."""

    FRAMES = {
        b"ping": "020000000002" "020000000001" "0800"
                 "4500002000000000401166cb" "0a000001" "0a000002"
                 "15b31e61000cd8ee" "70696e67",
        b"odd":  "020000000002" "020000000001" "0800"
                 "4500001f00000000401166cc" "0a000001" "0a000002"
                 "15b31e61000be45c" "6f6464",
    }

    @pytest.mark.parametrize("payload", sorted(FRAMES), ids=["odd", "even"])
    def test_udp_send_frame(self, payload):
        a, _, _ = make_pair()
        a.udp_send(5555, IP_B, 7777, payload)
        assert a.nic.tx_ring.popleft().hex() == self.FRAMES[payload]

    @pytest.mark.parametrize("payload", sorted(FRAMES), ids=["odd", "even"])
    def test_frame_decodes_to_the_three_headers(self, payload):
        raw = bytes.fromhex(self.FRAMES[payload])
        dst, src, ethertype, packet = eth.decode(raw)
        assert (dst, src, ethertype) == (MAC_B, MAC_A, 0x0800)
        assert ip.decode(packet) == (IP_A, IP_B, 17, 64, packet[20:])
        src_port, dst_port, data = udp.decode(packet[20:], IP_A, IP_B)
        assert (src_port, dst_port, data) == (5555, 7777, payload)
        assert type(data) is bytes
        assert eth.encode(dst, src, ethertype, packet) == raw
        assert raw == reference_frame(MAC_B, MAC_A, IP_A, IP_B, 5555, 7777,
                                      payload)


class TestRdpSegments:
    def test_roundtrip(self):
        seg = RdpSegment(TYPE_DATA, 7, 3, 0, b"hello")
        assert RdpSegment.decode(seg.encode()) == seg

    def test_bad_type(self):
        with pytest.raises(RdpError):
            RdpSegment.decode(bytes([99]) + bytes(12))


def rdp_session(drop_rate=0.0, seed=1, messages=("alpha", "beta", "gamma")):
    a, b, link = make_pair(drop_rate=drop_rate, seed=seed)
    listener = b.rdp_listen(9000)
    conn = a.rdp_connect(IP_B, 9000)
    server_conn = None
    received = []
    for payload in messages:
        conn.queue_send(payload.encode())
    for _ in range(600):
        a.tick()
        b.tick()
        pump(link, a, b, rounds=2)
        if server_conn is None and listener.pending:
            server_conn = listener.pending.popleft()
        if server_conn is not None:
            while server_conn.recv_queue:
                received.append(server_conn.recv_queue.popleft().decode())
        if len(received) == len(messages):
            break
    return a, b, conn, server_conn, received


class TestRdp:
    def test_reliable_delivery_clean_link(self):
        _, _, conn, server_conn, received = rdp_session()
        assert received == ["alpha", "beta", "gamma"]
        assert conn.state == "established"
        assert server_conn is not None

    def test_reliable_delivery_lossy_link(self):
        # 30% drop: handshake and data must still arrive, in order,
        # exactly once
        _, _, conn, _, received = rdp_session(drop_rate=0.3, seed=7)
        assert received == ["alpha", "beta", "gamma"]
        assert conn.retransmissions > 0

    def test_very_lossy_link(self):
        _, _, _, _, received = rdp_session(drop_rate=0.5, seed=13)
        assert received == ["alpha", "beta", "gamma"]

    def test_no_duplicates_under_ack_loss(self):
        msgs = [f"m{i}" for i in range(8)]
        _, _, _, _, received = rdp_session(drop_rate=0.35, seed=21,
                                           messages=msgs)
        assert received == msgs  # exactly once, in order

    def test_bidirectional(self):
        a, b, link = make_pair()
        listener = b.rdp_listen(9000)
        client = a.rdp_connect(IP_B, 9000)
        client.queue_send(b"request")
        server = None
        reply = None
        for _ in range(100):
            a.tick()
            b.tick()
            pump(link, a, b, rounds=2)
            if server is None and listener.pending:
                server = listener.pending.popleft()
            if server is not None and server.recv_queue:
                server.recv_queue.popleft()
                b.rdp_send(server, b"response")
            got = a.rdp_recv(client)
            if got is not None:
                reply = got
                break
        assert reply == b"response"

    def test_close_sends_fin(self):
        a, b, link = make_pair()
        b.rdp_listen(9000)
        conn = a.rdp_connect(IP_B, 9000)
        for _ in range(20):
            a.tick(); b.tick(); pump(link, a, b, rounds=2)
            if conn.state == "established":
                break
        a.rdp_close(conn)
        assert conn.state == "closed"
        with pytest.raises(RdpError):
            conn.queue_send(b"late")


class TestHub:
    def test_three_hosts(self):
        macs = [bytes([2, 0, 0, 0, 0, i]) for i in (1, 2, 3)]
        nics = [Nic(m) for m in macs]
        ips = [ip_addr(f"10.0.0.{i}") for i in (1, 2, 3)]
        stacks = [NetStack(ip, nic) for ip, nic in zip(ips, nics)]
        for stack in stacks:
            for ip, mac in zip(ips, macs):
                stack.add_neighbour(ip, mac)
        hub = Hub(nics)
        sock = stacks[2].udp_bind(53)
        stacks[0].udp_send(1000, ips[2], 53, b"query")
        hub.pump()
        for stack in stacks:
            stack.poll()
        assert list(sock.recv_queue) == [(ips[0], 1000, b"query")]

    def test_mac_filtering(self):
        macs = [bytes([2, 0, 0, 0, 0, i]) for i in (1, 2, 3)]
        nics = [Nic(m) for m in macs]
        hub = Hub(nics)
        frame = eth.encode(macs[1], macs[0], 0x0800, b"direct")
        nics[0].transmit(frame)
        hub.pump()
        assert nics[1].receive() == frame
        assert nics[2].receive() is None

    def test_broadcast(self):
        macs = [bytes([2, 0, 0, 0, 0, i]) for i in (1, 2, 3)]
        nics = [Nic(m) for m in macs]
        hub = Hub(nics)
        frame = eth.encode(BROADCAST, macs[0], 0x0800, b"all")
        nics[0].transmit(frame)
        hub.pump()
        assert nics[1].receive() == frame
        assert nics[2].receive() == frame
