"""Processes and threads.

A user *thread* is a Python generator yielding :class:`Syscall` requests; a
*process* bundles threads with an address space and a descriptor table —
exactly the process model the paper's client contract abstracts
("an abstract model which only has virtualized memory, processes, threads,
and the abstract state of the network and file system").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ThreadState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    EXITED = "exited"


class ProcessState(enum.Enum):
    ALIVE = "alive"
    ZOMBIE = "zombie"   # exited, exit code not yet reaped by wait()
    REAPED = "reaped"


@dataclass
class BlockReason:
    """Why a thread is parked (its row in the scheduler's wait table)
    and what wakes it."""

    kind: str   # "futex" | "wait" | "join" | "sleep" | "net"
    #: futex paddr / child pid or -1 / tid / wake tick / the
    #: ``poll_or_block`` poll function of a socket operation
    key: object = None

    def __repr__(self) -> str:
        return f"<blocked on {self.kind}:{self.key}>"


class Thread:
    """One user thread."""

    _next_tid = 1

    def __init__(self, process: "Process", gen, name: str = "") -> None:
        self.tid = Thread._next_tid
        Thread._next_tid += 1
        self.process = process
        self.gen = gen
        self.name = name or f"{process.name}:t{self.tid}"
        self.state = ThreadState.READY
        self.block_reason: BlockReason | None = None
        # what to deliver when next resumed: ("value", v) or ("error", exc)
        self.pending: tuple[str, object] = ("value", None)
        self.exit_value = None

    def block(self, reason: BlockReason) -> None:
        self.state = ThreadState.BLOCKED
        self.block_reason = reason

    def wake(self, result=("value", None)) -> None:
        if self.state is ThreadState.EXITED:
            return
        self.state = ThreadState.READY
        self.block_reason = None
        self.pending = result


class Process:
    """One user process."""

    def __init__(self, pid: int, name: str, vspace, fdtable,
                 parent: int | None = None) -> None:
        self.pid = pid
        self.name = name
        self.vspace = vspace
        self.fdtable = fdtable
        self.parent = parent
        self.threads: dict[int, Thread] = {}
        self.children: set[int] = set()
        self.state = ProcessState.ALIVE
        self.exit_code: int | None = None
        self.sockets: dict[int, object] = {}   # sid -> socket object
        self._next_sid = 3
        # ring_id -> kernel-side SyscallRing (submission/completion pair)
        self.rings: dict[int, object] = {}
        self._next_ring_id = 1
        # bump-allocated user heap region for vm_map without explicit vaddr
        self.heap_next = 0x1000_0000

    def add_thread(self, gen, name: str = "") -> Thread:
        thread = Thread(self, gen, name)
        self.threads[thread.tid] = thread
        return thread

    @property
    def alive_threads(self) -> list[Thread]:
        return [t for t in self.threads.values()
                if t.state is not ThreadState.EXITED]

    def new_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def new_ring_id(self) -> int:
        ring_id = self._next_ring_id
        self._next_ring_id += 1
        return ring_id
