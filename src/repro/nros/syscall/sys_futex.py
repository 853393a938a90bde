"""Futex syscalls: wait on / wake a word of user memory, keyed by the
physical address so threads sharing a frame meet on one queue."""

from __future__ import annotations

from repro.nros.proc.process import BlockReason, ThreadState
from repro.nros.syscall import abi
from repro.nros.syscall.table import Block, SyscallFailure


def sys_futex_wait(k, thread, vaddr: int, expected: int):
    paddr = k._translate(thread, vaddr, write=False)
    current = k.memory.load_u64(paddr)
    if current != expected:
        raise SyscallFailure(abi.EAGAIN,
                             f"futex value {current} != {expected}")
    raise Block(BlockReason("futex", paddr))


def sys_futex_wake(k, thread, vaddr: int, count: int = 1) -> int:
    paddr = k._translate(thread, vaddr, write=False)
    waiters = k._futex_waiters.get(paddr, [])
    woken = 0
    while waiters and woken < count:
        waiter = waiters.pop(0)
        if waiter.state is ThreadState.BLOCKED:
            k.scheduler.wake(waiter)
            woken += 1
    if not waiters:
        k._futex_waiters.pop(paddr, None)
    return woken
