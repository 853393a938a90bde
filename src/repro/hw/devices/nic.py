"""A network interface with transmit/receive rings.

Frames are byte strings.  The NIC owns bounded rx/tx rings like real
hardware: a full rx ring *drops* frames (the driver must keep up), and the
tx ring is drained by the attached link.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class NicStats:
    tx_frames: int = 0
    rx_frames: int = 0
    rx_dropped_ring_full: int = 0


class Nic:
    """One network interface."""

    def __init__(self, mac: bytes, ring_size: int = 64) -> None:
        if len(mac) != 6:
            raise ValueError("MAC address must be 6 bytes")
        if ring_size <= 0:
            raise ValueError("ring size must be positive")
        self.mac = mac
        self.ring_size = ring_size
        self.tx_ring: deque[bytes] = deque()
        self.rx_ring: deque[bytes] = deque()
        self.stats = NicStats()

    def transmit(self, frame: bytes) -> None:
        """Queue a frame for transmission (driver side)."""
        if not isinstance(frame, bytes):
            raise TypeError("frames are bytes")
        self.tx_ring.append(frame)
        self.stats.tx_frames += 1

    def deliver(self, frame: bytes) -> bool:
        """Push a frame into the rx ring (link side); False when dropped."""
        if len(self.rx_ring) >= self.ring_size:
            self.stats.rx_dropped_ring_full += 1
            return False
        self.rx_ring.append(frame)
        self.stats.rx_frames += 1
        return True

    def receive(self) -> bytes | None:
        """Pop the next received frame (driver side)."""
        if self.rx_ring:
            return self.rx_ring.popleft()
        return None

    def drain_tx(self) -> list[bytes]:
        """Take all queued outbound frames (link side)."""
        frames = list(self.tx_ring)
        self.tx_ring.clear()
        return frames
