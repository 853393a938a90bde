"""The block-device driver.

Sits between the filesystem and the raw disk: the filesystem mounts on
its whole-block interface (read/write/zero/num_blocks), and below that it
adds what a real driver adds — a bounded request queue with completion
accounting and retry of transient media errors.

Robustness contract (exercised by :mod:`repro.faults`):

* the request queue is *bounded*: a submit against a full queue raises the
  typed :class:`QueueFull` — the caller observes backpressure, the driver
  never asserts and never silently drops a request already queued;
* a transient :class:`~repro.hw.devices.disk.DiskIOError` (including a torn
  write, which a whole-sector rewrite heals) is retried up to
  ``MAX_IO_RETRIES`` times before being surfaced to the filesystem;
* a :class:`~repro.hw.devices.disk.DiskCrash` is never retried — power is
  gone; queued requests stay queued for post-mortem inspection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.hw.devices.disk import Disk, DiskCrash, DiskIOError

BLOCK_SIZE = Disk.SECTOR_SIZE

# Process-wide instruments for the driver hot path.  Per-driver totals
# stay on the instance (tests and campaign notes read those); these
# aggregate across all drivers in the process, which is what a traced
# run or a `trace summary` wants to see.
_RETRIES = obs.counter("block.io_retries")
_FAILURES = obs.counter("block.io_failures")
_REJECTIONS = obs.counter("block.queue_full")
_QUEUE_DEPTH = obs.gauge("block.queue_depth")


class QueueFull(Exception):
    """The driver's bounded request queue is full; retry after `service`."""


@dataclass
class BlockRequest:
    kind: str          # "read" | "write"
    sector: int
    data: bytes | None = None
    done: bool = False
    result: bytes | None = None
    error: Exception | None = None


class BlockDriver:
    """A bounded-queue driver with synchronous completion and retry."""

    QUEUE_DEPTH = 32
    MAX_IO_RETRIES = 3

    def __init__(self, disk: Disk, fault_plan=None) -> None:
        self.disk = disk
        self.fault_plan = fault_plan
        self.pending: deque[BlockRequest] = deque()
        self.requests_completed = 0
        self.queue_full_rejections = 0
        self.io_retries = 0
        self.io_failures = 0

    @property
    def num_blocks(self) -> int:
        return self.disk.num_sectors

    def submit(self, request: BlockRequest) -> BlockRequest:
        """Queue one request and service the queue.

        The simulated device has no seek latency, so in the absence of an
        injected stall the request completes before `submit` returns; the
        queue discipline and bounded depth still run.  A full queue raises
        :class:`QueueFull` *without* accepting the request — already-queued
        requests are never displaced."""
        decision = self.fault_plan.draw("block.submit") \
            if self.fault_plan is not None else None
        if decision is not None and decision.kind == "queue-full":
            # device reports itself busy regardless of actual depth
            self.queue_full_rejections += 1
            _REJECTIONS.inc()
            raise QueueFull("device busy (injected)")
        if len(self.pending) >= self.QUEUE_DEPTH:
            self.queue_full_rejections += 1
            _REJECTIONS.inc()
            raise QueueFull(
                f"request queue at depth {self.QUEUE_DEPTH}; "
                f"service() and retry"
            )
        self.pending.append(request)
        _QUEUE_DEPTH.set(len(self.pending))
        if decision is not None and decision.kind == "stall" \
                and request.kind == "write":
            # hold completion: the queue visibly fills under write bursts
            return request
        self.service()
        return request

    def service(self) -> int:
        """Drain the pending queue in order; returns requests completed."""
        done = 0
        while self.pending:
            request = self.pending[0]
            try:
                self._execute(request)
            except DiskCrash:
                # power loss: leave the queue as the crash found it
                raise
            self.pending.popleft()
            _QUEUE_DEPTH.set(len(self.pending))
            done += 1
            self.requests_completed += 1
            if request.error is not None:
                raise request.error
        return done

    def _execute(self, request: BlockRequest) -> None:
        """One request against the media, retrying transient errors."""
        for attempt in range(1 + self.MAX_IO_RETRIES):
            try:
                if request.kind == "read":
                    request.result = self.disk.read_sector(request.sector)
                elif request.kind == "write":
                    if request.data is None:
                        raise ValueError("write request without data")
                    data = request.data
                    if len(data) < BLOCK_SIZE:
                        data = data + bytes(BLOCK_SIZE - len(data))
                    self.disk.write_sector(request.sector, data)
                else:
                    raise ValueError(
                        f"unknown request kind {request.kind!r}")
            except DiskIOError as exc:
                if attempt < self.MAX_IO_RETRIES:
                    self.io_retries += 1
                    _RETRIES.inc()
                    continue
                self.io_failures += 1
                _FAILURES.inc()
                request.error = exc
                request.done = True
                return
            request.error = None
            request.done = True
            return

    # -- the block interface (what the filesystem mounts on) ---------------

    def read(self, block: int) -> bytes:
        request = self.submit(BlockRequest("read", block))
        if not request.done:
            self.service()
        return request.result

    def write(self, block: int, data: bytes) -> None:
        self.submit(BlockRequest("write", block, data=data))

    def zero(self, block: int) -> None:
        self.write(block, bytes(BLOCK_SIZE))
