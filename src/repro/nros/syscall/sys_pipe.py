"""Pipe syscalls: bounded byte streams between processes."""

from __future__ import annotations

from repro.nros.proc.pipe import PipeClosed
from repro.nros.syscall import abi
from repro.nros.syscall.table import SyscallFailure, poll_or_block


def _pipe(k, pipe_id: int):
    pipe = k.pipes.get(pipe_id)
    if pipe is None:
        raise SyscallFailure(abi.EBADF, f"no pipe {pipe_id}")
    return pipe


def sys_pipe(k, thread, capacity: int = 16 * 1024) -> int:
    if capacity <= 0:
        raise SyscallFailure(abi.EINVAL, "pipe capacity must be positive")
    return k.pipes.create(capacity).pipe_id


def sys_pipe_read(k, thread, pipe_id: int, length: int):
    pipe = _pipe(k, pipe_id)

    def poll():
        data = pipe.try_read(length)
        return None if data is None else ("ok", data)

    data = poll_or_block(poll)
    k._wake_pollers()  # a blocked writer may now have space
    return data


def sys_pipe_write(k, thread, pipe_id: int, data: bytes):
    pipe = _pipe(k, pipe_id)

    def poll():
        try:
            written = pipe.try_write(data)
        except PipeClosed as exc:
            return ("err", (abi.EPIPE, str(exc)))
        return None if written is None else ("ok", written)

    written = poll_or_block(poll)
    k._wake_pollers()  # a blocked reader may now have data
    return written


def sys_pipe_close(k, thread, pipe_id: int, end: str) -> None:
    pipe = _pipe(k, pipe_id)
    if end not in ("r", "w"):
        raise SyscallFailure(abi.EINVAL, f"bad pipe end {end!r}")
    pipe.close(end)
    k._wake_pollers()  # EOF / EPIPE now observable
    k.pipes.reap()
