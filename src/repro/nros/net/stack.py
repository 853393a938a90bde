"""The per-host network stack.

Wires the layers together: Ethernet framing over the NIC, IPv4 with a
static neighbour table (ARP is a lookup, not a protocol, on our fabric),
UDP sockets, and RDP reliable connections multiplexed over UDP ports.

The stack is polled: `poll()` drains the NIC receive ring and dispatches;
`tick(now)` drives RDP (re)transmission.  The kernel calls both from its
scheduler loop, the way a driver bottom-half would run."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.hw.devices.nic import Nic
from repro.nros.net import arp, eth, ip, rdp, udp
from repro.nros.net.arp import ETHERTYPE_ARP, ArpError, ArpPacket
from repro.nros.net.eth import BROADCAST, ETHERTYPE_IPV4, FrameError
from repro.nros.net.ip import PacketError, PROTO_UDP
from repro.nros.net.rdp import (
    RdpConnection,
    RdpError,
    RdpGiveUp,
    RdpSegment,
    STATE_ESTABLISHED,
)
from repro.nros.net.udp import DatagramError


class NetError(Exception):
    pass


@dataclass
class UdpSocket:
    port: int = 0
    recv_queue: deque = field(default_factory=deque)  # (src_ip, src_port, data)


@dataclass
class RdpListener:
    port: int
    pending: deque = field(default_factory=deque)  # newly accepted conns


class NetStack:
    """One host's stack."""

    EPHEMERAL_BASE = 49152

    def __init__(self, ip: int, nic: Nic) -> None:
        self.ip = ip
        self.nic = nic
        self.neighbours: dict[int, bytes] = {ip: nic.mac}
        self._udp_ports: dict[int, UdpSocket] = {}
        self._listeners: dict[int, RdpListener] = {}
        self._conns: dict[tuple, RdpConnection] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        self._next_conn_id = 1
        self._arp_pending: dict[int, list[bytes]] = {}  # ip -> queued UDP
        self.now = 0
        self.stats_rx = 0
        self.stats_tx = 0
        self.stats_bad = 0           # malformed frames
        self.stats_dropped = 0       # well-formed frames nobody here wants
        self.stats_arp_requests = 0
        self.stats_arp_dropped = 0   # datagrams refused by a full ARP queue
        self.stats_gave_up = 0

    # -- neighbours ---------------------------------------------------------------

    def add_neighbour(self, ip: int, mac: bytes) -> None:
        if len(mac) != 6:
            raise FrameError("MAC addresses are 6 bytes")
        self.neighbours[ip] = mac

    # -- UDP ----------------------------------------------------------------------

    def udp_bind(self, port: int) -> UdpSocket:
        if port in self._udp_ports or port in self._listeners:
            raise NetError(f"port {port} already bound")
        sock = UdpSocket(port=port)
        self._udp_ports[port] = sock
        return sock

    def udp_send(self, src_port: int, dst_ip: int, dst_port: int,
                 payload: bytes) -> None:
        self._send_ip(dst_ip,
                      udp.encode(self.ip, dst_ip, src_port, dst_port, payload))

    def _send_ip(self, dst_ip: int, udp_bytes: bytes) -> None:
        dst_mac = self.neighbours.get(dst_ip)
        if dst_mac is None:
            # resolve via ARP: queue the datagram, broadcast a request
            pending = self._arp_pending.setdefault(dst_ip, [])
            if len(pending) < 16:
                pending.append(udp_bytes)
            else:
                self.stats_arp_dropped += 1
            self._send_arp(arp.request(self.nic.mac, self.ip, dst_ip))
            self.stats_arp_requests += 1
            return
        frame = eth.encode(dst_mac, self.nic.mac, ETHERTYPE_IPV4,
                           ip.encode(self.ip, dst_ip, PROTO_UDP, udp_bytes))
        if dst_ip == self.ip:
            # loopback: short-circuit into our own receive ring
            self.nic.deliver(frame)
        else:
            self.nic.transmit(frame)
        self.stats_tx += 1

    # -- RDP ---------------------------------------------------------------------------

    def rdp_listen(self, port: int) -> RdpListener:
        if port in self._listeners or port in self._udp_ports:
            raise NetError(f"port {port} already bound")
        listener = RdpListener(port=port)
        self._listeners[port] = listener
        return listener

    def rdp_connect(self, dst_ip: int, dst_port: int) -> RdpConnection:
        local_port = self._alloc_ephemeral()
        conn = RdpConnection(
            conn_id=self._next_conn_id,
            local_port=local_port,
            remote_ip=dst_ip,
            remote_port=dst_port,
        )
        self._next_conn_id += 1
        self._conns[(local_port, dst_ip, dst_port, conn.conn_id)] = conn
        return conn

    def rdp_send(self, conn: RdpConnection, payload: bytes) -> None:
        conn.queue_send(payload)

    def rdp_recv(self, conn: RdpConnection) -> bytes | None:
        if conn.recv_queue:
            return conn.recv_queue.popleft()
        if conn.error is not None:
            # delivery stopped for a reason; surface it, don't stall
            raise conn.error
        return None

    def rdp_close(self, conn: RdpConnection) -> None:
        if conn.state != rdp.STATE_CLOSED:
            segment = RdpSegment(rdp.TYPE_FIN, conn.conn_id, 0, 0)
            self._send_segment(conn, segment)
            conn.state = rdp.STATE_CLOSED

    def _alloc_ephemeral(self) -> int:
        while (self._next_ephemeral in self._udp_ports
               or self._next_ephemeral in self._listeners):
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    def _send_segment(self, conn: RdpConnection, segment: RdpSegment) -> None:
        self._send_ip(conn.remote_ip,
                      udp.encode(self.ip, conn.remote_ip, conn.local_port,
                                 conn.remote_port, segment.encode()))

    # -- receive path -------------------------------------------------------------------

    def poll(self) -> int:
        """Drain the NIC rx ring; returns datagrams dispatched."""
        handled = 0
        while True:
            raw = self.nic.receive()
            if raw is None:
                return handled
            handled += self._handle_frame(raw)

    def _send_arp(self, packet: ArpPacket) -> None:
        self.nic.transmit(eth.encode(BROADCAST, self.nic.mac, ETHERTYPE_ARP,
                                     packet.encode()))

    def _handle_arp(self, payload: bytes) -> None:
        try:
            packet = ArpPacket.decode(payload)
        except ArpError:
            self.stats_bad += 1
            return
        # learn the sender's mapping either way
        self.neighbours[packet.sender_ip] = packet.sender_mac
        if packet.op == arp.OP_REQUEST and packet.target_ip == self.ip:
            self._send_arp(arp.reply(self.nic.mac, self.ip,
                                     packet.sender_mac, packet.sender_ip))
        # flush datagrams that were waiting on this resolution
        queued = self._arp_pending.pop(packet.sender_ip, [])
        for udp_bytes in queued:
            self._send_ip(packet.sender_ip, udp_bytes)

    def _handle_frame(self, raw: bytes) -> int:
        """Dispatch one frame; 1 if it reached a socket, listener or
        connection.  A refused frame is counted once: `stats_bad` if
        malformed, `stats_dropped` if well-formed but unwanted."""
        try:
            _, _, ethertype, payload = eth.decode(raw)
            if ethertype == ETHERTYPE_ARP:
                self._handle_arp(payload)
                return 0
            if ethertype != ETHERTYPE_IPV4:
                self.stats_dropped += 1
                return 0
            src_ip, dst_ip, proto, _, payload = ip.decode(payload)
            if dst_ip != self.ip or proto != PROTO_UDP:
                self.stats_dropped += 1
                return 0
            src_port, dst_port, payload = udp.decode(payload, src_ip, dst_ip)
        except (FrameError, PacketError, DatagramError):
            self.stats_bad += 1
            return 0
        self.stats_rx += 1

        # RDP listener or connection traffic?
        if dst_port in self._listeners:
            self._handle_rdp_server(src_ip, src_port, dst_port, payload)
            return 1
        conn, segment = self._find_conn(src_ip, src_port, dst_port, payload)
        if conn is not None:
            for reply in conn.on_segment(segment):
                self._send_segment(conn, reply)
            return 1
        sock = self._udp_ports.get(dst_port)
        if sock is not None:
            sock.recv_queue.append((src_ip, src_port, payload))
            return 1
        self.stats_dropped += 1     # no socket, listener or connection
        return 0

    def _find_conn(self, remote_ip: int, src_port: int, dst_port: int,
                   payload: bytes,
                   ) -> tuple[RdpConnection | None, RdpSegment | None]:
        """-> (connection, decoded segment), the segment decoded once;
        (None, None) for a datagram that belongs to no connection.  A
        stack with no connections does not parse plain UDP as RDP."""
        if not self._conns:
            return None, None
        try:
            segment = RdpSegment.decode(payload)
        except RdpError:
            return None, None
        key = (dst_port, remote_ip, src_port, segment.conn_id)
        return self._conns.get(key), segment

    def _handle_rdp_server(self, src_ip: int, src_port: int, dst_port: int,
                           payload: bytes) -> None:
        listener = self._listeners[dst_port]
        try:
            segment = RdpSegment.decode(payload)
        except RdpError:
            self.stats_bad += 1
            return
        key = (dst_port, src_ip, src_port, segment.conn_id)
        conn = self._conns.get(key)
        if segment.kind == rdp.TYPE_SYN:
            if conn is None:
                conn = RdpConnection(
                    conn_id=segment.conn_id,
                    local_port=dst_port,
                    remote_ip=src_ip,
                    remote_port=src_port,
                    state=STATE_ESTABLISHED,
                )
                self._conns[key] = conn
                listener.pending.append(conn)
            # (re)confirm: SYNACK is idempotent
            self._send_segment(
                conn, RdpSegment(rdp.TYPE_SYNACK, conn.conn_id, 0, 0)
            )
            return
        if conn is None:
            self.stats_dropped += 1     # segment for an unknown connection
            return
        for reply in conn.on_segment(segment):
            self._send_segment(conn, reply)

    # -- timers ------------------------------------------------------------------------------

    def tick(self, now: int | None = None) -> None:
        """Advance RDP timers; (re)transmit whatever is due.

        A connection that exhausts its retries closes with a sticky
        :class:`RdpGiveUp`; the timer loop survives and the error reaches
        the application at its next send/recv against that connection."""
        self.now = self.now + 1 if now is None else now
        for key, conn in list(self._conns.items()):
            try:
                segment = conn.next_outgoing(self.now)
            except RdpGiveUp:
                self.stats_gave_up += 1
                del self._conns[key]
                continue
            if segment is not None:
                self._send_segment(conn, segment)
