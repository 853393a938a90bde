"""RDP: a reliable datagram protocol over UDP.

The paper's storage-node application needs reliable delivery; RDP provides
it with the classic machinery: a three-way-lite handshake (SYN / SYNACK),
stop-and-wait acknowledgements with sequence numbers, timeout-driven
retransmission, duplicate suppression, and FIN teardown.  Message-oriented:
one `send` is one delivered message, in order, exactly once.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field

from repro import obs

TYPE_SYN = 1
TYPE_SYNACK = 2
TYPE_DATA = 3
TYPE_ACK = 4
TYPE_FIN = 5

_HEADER = struct.Struct(">BIII")  # type, conn_id, seq, ack

RETRANSMIT_TICKS = 4
MAX_RETRIES = 30

# Process-wide RDP instruments: retransmissions are the protocol's cost
# of riding out loss, give-ups its typed surrender — both first-class
# counters so a traced run shows how hard the transport had to work.
_RETRANSMITS = obs.counter("rdp.retransmissions")
_GIVE_UPS = obs.counter("rdp.give_ups")


class RdpError(Exception):
    pass


class RdpGiveUp(RdpError):
    """Retransmission exhausted MAX_RETRIES with no ACK progress.

    Raised by :meth:`RdpConnection.next_outgoing` (and re-raised to any
    later send/receive against the connection) instead of stalling
    silently: the caller learns *that* and *why* delivery stopped.  Any
    ACK progress resets the retry counter, so only a genuinely dead peer
    or a blacked-out path trips this."""

    def __init__(self, message: str, retries: int = 0) -> None:
        super().__init__(message)
        self.retries = retries


@dataclass(frozen=True)
class RdpSegment:
    kind: int
    conn_id: int
    seq: int
    ack: int
    payload: bytes = b""

    def encode(self) -> bytes:
        return _HEADER.pack(self.kind, self.conn_id, self.seq, self.ack) + self.payload

    @staticmethod
    def decode(data: bytes) -> "RdpSegment":
        if len(data) < _HEADER.size:
            raise RdpError("segment shorter than RDP header")
        kind, conn_id, seq, ack = _HEADER.unpack_from(data)
        if kind not in (TYPE_SYN, TYPE_SYNACK, TYPE_DATA, TYPE_ACK, TYPE_FIN):
            raise RdpError(f"bad segment type {kind}")
        return RdpSegment(kind, conn_id, seq, ack, data[_HEADER.size:])


STATE_SYN_SENT = "syn-sent"
STATE_ESTABLISHED = "established"
STATE_CLOSED = "closed"


@dataclass
class RdpConnection:
    """One reliable connection endpoint."""

    conn_id: int
    local_port: int
    remote_ip: int
    remote_port: int
    state: str = STATE_SYN_SENT
    send_seq: int = 0          # seq of the next message to send
    recv_seq: int = 0          # seq expected next from the peer
    unacked: RdpSegment | None = None
    send_queue: deque = field(default_factory=deque)   # pending payloads
    recv_queue: deque = field(default_factory=deque)   # delivered messages
    last_send_tick: int = 0
    retries: int = 0
    retransmissions: int = 0
    error: RdpError | None = None

    def queue_send(self, payload: bytes) -> None:
        if self.error is not None:
            raise self.error
        if self.state == STATE_CLOSED:
            raise RdpError("connection closed")
        self.send_queue.append(payload)

    def _give_up(self, what: str) -> RdpGiveUp:
        self.state = STATE_CLOSED
        _GIVE_UPS.inc()
        self.error = RdpGiveUp(
            f"{what} retransmitted {MAX_RETRIES} times with no ACK "
            f"progress; giving up", retries=self.retries)
        return self.error

    def next_outgoing(self, now: int) -> RdpSegment | None:
        """The segment to transmit now, if any (new data or retransmit).

        Raises :class:`RdpGiveUp` once MAX_RETRIES elapse without ACK
        progress — the connection closes and the error sticks to it."""
        if self.state == STATE_SYN_SENT:
            if now - self.last_send_tick >= RETRANSMIT_TICKS or self.retries == 0:
                self.last_send_tick = now
                self.retries += 1
                if self.retries > MAX_RETRIES:
                    raise self._give_up("SYN")
                return RdpSegment(TYPE_SYN, self.conn_id, 0, 0)
            return None
        if self.state != STATE_ESTABLISHED:
            return None
        if self.unacked is not None:
            if now - self.last_send_tick >= RETRANSMIT_TICKS:
                self.last_send_tick = now
                self.retries += 1
                self.retransmissions += 1
                _RETRANSMITS.inc()
                if self.retries > MAX_RETRIES:
                    raise self._give_up(f"DATA seq {self.send_seq}")
                return self.unacked
            return None
        if self.send_queue:
            payload = self.send_queue.popleft()
            segment = RdpSegment(TYPE_DATA, self.conn_id, self.send_seq, 0,
                                 payload)
            self.unacked = segment
            self.last_send_tick = now
            self.retries = 0
            return segment
        return None

    def on_segment(self, segment: RdpSegment) -> list[RdpSegment]:
        """Process an incoming segment; returns segments to send back."""
        if self.state == STATE_CLOSED:
            return []
        if segment.kind == TYPE_SYNACK and self.state == STATE_SYN_SENT:
            self.state = STATE_ESTABLISHED
            self.retries = 0
            return []
        if segment.kind == TYPE_ACK:
            if self.unacked is not None and segment.ack == self.send_seq:
                self.unacked = None
                self.send_seq += 1
                self.retries = 0
            return []
        if segment.kind == TYPE_DATA:
            replies = [RdpSegment(TYPE_ACK, self.conn_id, 0, segment.seq)]
            if segment.seq == self.recv_seq:
                self.recv_queue.append(segment.payload)
                self.recv_seq += 1
            # duplicates (seq < recv_seq) are re-acked but not re-delivered
            return replies
        if segment.kind == TYPE_FIN:
            self.state = STATE_CLOSED
            return []
        return []
