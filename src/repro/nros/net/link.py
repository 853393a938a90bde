"""Virtual cables between NICs, optionally lossy.

`pump()` moves frames queued in each NIC's tx ring into the peer's rx ring;
a seeded drop rate models an unreliable fabric (what RDP's retransmission
is for).  A :class:`Hub` connects more than two NICs by flooding, with MAC
filtering at delivery.

A :class:`Link` can also carry a :class:`~repro.faults.plan.FaultPlan`:
each frame crossing the cable draws at site ``"link.tx"`` and the firing
rule's kind decides its fate — ``drop`` (silent loss), ``dup`` (delivered
twice), ``corrupt`` (one byte flipped in flight; the IP/UDP checksums make
this a detectable drop at the receiver), or ``reorder`` (held back and
delivered after the frames behind it).  This is the adversity RDP's
retransmission, duplicate-suppression, and sequencing machinery exists
for, driven through the real NIC rings and the real stack.
"""

from __future__ import annotations

import random

from repro.hw.devices.nic import Nic
from repro.nros.net.eth import BROADCAST, HEADER_LEN


class Link:
    """A point-to-point cable.

    Several links may share one NIC (a multi-node mesh cables each
    machine to every other through its single interface), so a link only
    takes the frames addressed to *its* peer — unicast to the peer's
    MAC, broadcast, or runts the receiver will count as bad — and leaves
    the rest queued for whichever cable leads to their destination."""

    def __init__(self, a: Nic, b: Nic, drop_rate: float = 0.0,
                 seed: int = 0, fault_plan=None) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")
        self.a = a
        self.b = b
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self.fault_plan = fault_plan
        self.partitioned = False
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.reordered = 0

    def partition(self) -> None:
        """Cut the cable: every frame in either direction is dropped
        until :meth:`heal` — total loss, what a severed path looks like
        to RDP's retransmission and the cluster failure detector."""
        self.partitioned = True

    def heal(self) -> None:
        self.partitioned = False

    def _take_for(self, src: Nic, peer: Nic) -> list[bytes]:
        """Pull the frames in `src`'s tx ring this cable should carry."""
        if not src.tx_ring:
            return []
        taken: list[bytes] = []
        kept: list[bytes] = []
        for frame in src.tx_ring:
            dst_mac = frame[0:6]
            if (dst_mac == peer.mac or dst_mac == BROADCAST
                    or len(frame) < HEADER_LEN):
                taken.append(frame)
            else:
                kept.append(frame)
        src.tx_ring.clear()
        src.tx_ring.extend(kept)
        return taken

    def pump(self) -> int:
        """Move pending frames in both directions; returns frames moved."""
        if self.partitioned:
            for src, peer in ((self.a, self.b), (self.b, self.a)):
                self.dropped += len(self._take_for(src, peer))
            return 0
        moved = 0
        for src, dst in ((self.a, self.b), (self.b, self.a)):
            held: list[bytes] = []   # reordered frames, delivered last
            for frame in self._take_for(src, dst):
                if self.drop_rate and self._rng.random() < self.drop_rate:
                    self.dropped += 1
                    continue
                decision = self.fault_plan.draw("link.tx") \
                    if self.fault_plan is not None else None
                if decision is not None:
                    if decision.kind == "drop":
                        self.dropped += 1
                        continue
                    if decision.kind == "dup":
                        self.duplicated += 1
                        dst.deliver(frame)
                        self.delivered += 1
                        moved += 1
                    elif decision.kind == "corrupt":
                        self.corrupted += 1
                        offset = decision.rand_below(len(frame)) \
                            if frame else 0
                        damaged = bytearray(frame)
                        if damaged:
                            damaged[offset] ^= 0xFF
                        frame = bytes(damaged)
                    elif decision.kind == "reorder":
                        self.reordered += 1
                        held.append(frame)
                        continue
                dst.deliver(frame)
                self.delivered += 1
                moved += 1
            for frame in held:
                dst.deliver(frame)
                self.delivered += 1
                moved += 1
        return moved


class Hub:
    """A flooding hub joining several NICs (MAC-filtered delivery)."""

    def __init__(self, nics: list[Nic], drop_rate: float = 0.0,
                 seed: int = 0) -> None:
        if len(nics) < 2:
            raise ValueError("a hub needs at least two NICs")
        self.nics = list(nics)
        self.drop_rate = drop_rate
        self._rng = random.Random(seed)
        self.delivered = 0
        self.dropped = 0

    def pump(self) -> int:
        moved = 0
        for src in self.nics:
            for frame in src.drain_tx():
                if len(frame) < HEADER_LEN:
                    self.dropped += 1
                    continue
                dst_mac = frame[0:6]
                for dst in self.nics:
                    if dst is src:
                        continue
                    if dst_mac != dst.mac and dst_mac != BROADCAST:
                        continue
                    if self.drop_rate and self._rng.random() < self.drop_rate:
                        self.dropped += 1
                        continue
                    dst.deliver(frame)
                    self.delivered += 1
                    moved += 1
        return moved
