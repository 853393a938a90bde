"""Futex syscalls: wait on / wake a word of user memory, keyed by the
physical address so threads sharing a frame meet on one queue — the
``"futex"`` row of the scheduler's wait table, in arrival order."""

from __future__ import annotations

from repro.hw.mmu import AccessType
from repro.nros.proc.process import BlockReason
from repro.nros.syscall import abi
from repro.nros.syscall.table import Block, SyscallFailure, user_paddr


def sys_futex_wait(k, thread, vaddr: int, expected: int):
    paddr = user_paddr(k, thread, vaddr, AccessType.READ)
    current = k.memory.load_u64(paddr)
    if current != expected:
        raise SyscallFailure(abi.EAGAIN,
                             f"futex value {current} != {expected}")
    raise Block(BlockReason("futex", paddr))


def sys_futex_wake(k, thread, vaddr: int, count: int = 1) -> int:
    paddr = user_paddr(k, thread, vaddr, AccessType.READ)
    waiters = [waiter for waiter in k.scheduler.parked("futex")
               if waiter.block_reason.key == paddr][:max(count, 0)]
    for waiter in waiters:
        k.scheduler.wake(waiter)
    return len(waiters)
