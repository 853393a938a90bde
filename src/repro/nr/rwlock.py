"""A readers-writer lock for the step-interleaved NR protocol.

Each NR replica is protected by one of these: the flat-combiner takes the
writer side while applying log entries; read-only operations take the reader
side.  The lock itself is plain shared state — atomicity comes from the
execution model: every mutation happens inside a single protocol *step*, and
the interleaving executor runs steps atomically.
"""

from __future__ import annotations


class RwLock:
    """Try-acquire readers-writer lock (writer-preferring)."""

    def __init__(self) -> None:
        self.readers = 0
        self.writer = False
        self.writer_waiting = False

    def try_acquire_read(self) -> bool:
        """One atomic step: succeed unless a writer holds or wants the lock."""
        if self.writer or self.writer_waiting:
            return False
        self.readers += 1
        return True

    def release_read(self) -> None:
        if self.readers <= 0:
            raise RuntimeError("release_read without a reader")
        self.readers -= 1

    def try_acquire_write(self) -> bool:
        """One atomic step: succeed when no readers and no writer."""
        if self.writer or self.readers > 0:
            self.writer_waiting = True
            return False
        self.writer = True
        self.writer_waiting = False
        return True

    def release_write(self) -> None:
        if not self.writer:
            raise RuntimeError("release_write without the writer")
        self.writer = False
        # Any writer that failed its try while we held the lock will retry
        # and re-set the flag; clearing here prevents a stale flag from
        # starving readers when no writer is actually waiting any more.
        self.writer_waiting = False
