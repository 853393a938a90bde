"""A block storage device.

Fixed-size sectors, whole-sector reads and writes, and an operation count
so benchmarks can report I/O.  `snapshot`/`restore` support the "power
cycle" tests of the filesystem (contents survive a remount).

The device is also the lowest fault-injection site of
:mod:`repro.faults`: given a ``fault_plan``, reads and writes consult it
and misbehave the way real media does — transient I/O errors
(``io-error``), bit flips on the bus (``corrupt``: the returned buffer is
damaged, the medium is not), torn writes (``torn``: only a prefix of the
sector reaches the platter before the error), and whole-device power loss
(``crash``: nothing of the current write lands and every later operation
fails until the harness restores an image into a fresh device).
"""

from __future__ import annotations


class DiskError(Exception):
    """Out-of-range sector or bad buffer size."""


class DiskIOError(DiskError):
    """A transient I/O failure; the operation may be retried."""


class DiskCrash(DiskError):
    """Power loss: the device is gone until remounted from its image."""


class Disk:
    """A simple sector-addressed disk."""

    SECTOR_SIZE = 4096

    def __init__(self, num_sectors: int, fault_plan=None) -> None:
        if num_sectors <= 0:
            raise ValueError("disk needs at least one sector")
        self.num_sectors = num_sectors
        self._data = bytearray(num_sectors * self.SECTOR_SIZE)
        self.reads = 0
        self.writes = 0
        self.fault_plan = fault_plan
        self.crashed = False
        self.torn_writes = 0

    def read_sector(self, index: int) -> bytes:
        self._check_alive()
        self._check(index)
        self.reads += 1
        start = index * self.SECTOR_SIZE
        data = bytes(self._data[start : start + self.SECTOR_SIZE])
        decision = self._draw("disk.read")
        if decision is not None:
            if decision.kind == "io-error":
                raise DiskIOError(f"transient read error at sector {index}")
            if decision.kind == "corrupt":
                # a flip on the bus: the returned buffer is damaged, the
                # medium is intact — the next read sees good data
                offset = decision.rand_below(self.SECTOR_SIZE)
                damaged = bytearray(data)
                damaged[offset] ^= 0xFF
                return bytes(damaged)
        return data

    def write_sector(self, index: int, data: bytes) -> None:
        self._check_alive()
        self._check(index)
        if len(data) != self.SECTOR_SIZE:
            raise DiskError(
                f"write of {len(data)} bytes; sectors are {self.SECTOR_SIZE}"
            )
        decision = self._draw("disk.write")
        if decision is not None:
            if decision.kind == "io-error":
                raise DiskIOError(f"transient write error at sector {index}")
            if decision.kind == "torn":
                # a prefix lands, then the write fails: the sector now
                # holds new-head/old-tail until a retry rewrites it whole
                self.torn_writes += 1
                keep = 1 + decision.rand_below(self.SECTOR_SIZE - 1)
                start = index * self.SECTOR_SIZE
                self._data[start : start + keep] = data[:keep]
                raise DiskIOError(
                    f"torn write at sector {index}: {keep} of "
                    f"{self.SECTOR_SIZE} bytes landed"
                )
            if decision.kind == "crash":
                # power loss at a write boundary: this write never lands
                self.crashed = True
                raise DiskCrash(f"power lost before write #{self.writes + 1}")
        self.writes += 1
        start = index * self.SECTOR_SIZE
        self._data[start : start + self.SECTOR_SIZE] = data

    def _draw(self, site: str):
        if self.fault_plan is None:
            return None
        return self.fault_plan.draw(site)

    def _check_alive(self) -> None:
        if self.crashed:
            raise DiskCrash("disk is offline after a crash")

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_sectors:
            raise DiskError(f"sector {index} out of range")

    def snapshot(self) -> bytes:
        """The full disk image (for remount / power-cycle tests).

        Available even after a crash — this is the platter content the
        recovery harness remounts from."""
        return bytes(self._data)

    def restore(self, image: bytes) -> None:
        if len(image) != len(self._data):
            raise DiskError("image size mismatch")
        self._data = bytearray(image)
        self.crashed = False
