"""Kernel pipes: bounded byte streams between processes.

Identified by a kernel-wide pipe id (a capability-by-id model, which keeps
descriptor inheritance out of scope): any process holding the id may read
or write.  Writes into a full pipe and reads from an empty one block;
closing the write end makes readers see EOF once the buffer drains;
closing the read end makes writers fail with EPIPE.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class PipeClosed(Exception):
    """Write after the read end closed."""


@dataclass
class Pipe:
    """One pipe's kernel state."""

    pipe_id: int
    capacity: int = 16 * 1024
    buffer: bytearray = field(default_factory=bytearray)
    write_closed: bool = False
    read_closed: bool = False

    @property
    def space(self) -> int:
        return self.capacity - len(self.buffer)

    def try_write(self, data: bytes) -> int | None:
        """Write as much as fits; None when the pipe is full (caller
        blocks), raises when the read end is gone."""
        if self.read_closed:
            raise PipeClosed(f"pipe {self.pipe_id}: read end closed")
        if self.write_closed:
            raise PipeClosed(f"pipe {self.pipe_id}: write end closed")
        if not data:
            return 0
        if self.space == 0:
            return None
        written = min(len(data), self.space)
        self.buffer += data[:written]
        return written

    def try_read(self, length: int) -> bytes | None:
        """Read up to `length` bytes; b"" at EOF; None when empty but the
        writer is still around (caller blocks)."""
        if length <= 0:
            return b""
        if self.buffer:
            taken = bytes(self.buffer[:length])
            del self.buffer[:length]
            return taken
        if self.write_closed:
            return b""  # EOF
        return None

    def close(self, end: str) -> None:
        if end == "r":
            self.read_closed = True
        elif end == "w":
            self.write_closed = True
        else:
            raise ValueError(f"pipe end must be 'r' or 'w', got {end!r}")


class PipeTable:
    """All pipes in one kernel."""

    def __init__(self) -> None:
        self._pipes: dict[int, Pipe] = {}
        self._next_id = 1

    def create(self, capacity: int = 16 * 1024) -> Pipe:
        pipe = Pipe(pipe_id=self._next_id, capacity=capacity)
        self._next_id += 1
        self._pipes[pipe.pipe_id] = pipe
        return pipe

    def get(self, pipe_id: int) -> Pipe | None:
        return self._pipes.get(pipe_id)

    def reap(self) -> int:
        """Drop fully-closed pipes; returns how many were reaped."""
        dead = [
            pid for pid, pipe in self._pipes.items()
            if pipe.read_closed and pipe.write_closed
        ]
        for pid in dead:
            del self._pipes[pid]
        return len(dead)
