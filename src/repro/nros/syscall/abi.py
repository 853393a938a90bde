"""The syscall ABI: numbers, error codes, and the request type.

User programs are generators that ``yield Syscall(name, args)`` and receive
the result via ``send``.  At the boundary the kernel marshals the request
and the response through :mod:`repro.nros.syscall.marshal`, so every call
exercises the marshalling obligation end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

# Syscall numbers (stable ABI).
SYSCALLS = {
    # memory
    "vm_map": 1,
    "vm_unmap": 2,
    "vm_resolve": 3,
    "peek": 4,
    "poke": 5,
    "cas": 6,
    "mmap_file": 7,
    "msync": 8,
    # batched memory ops: N pages through the NR replica, one TLB
    # shootdown round for the whole unmap batch
    "vm_map_batch": 25,
    "vm_unmap_batch": 26,
    # files
    "open": 10,
    "close": 11,
    "read": 12,
    "write": 13,
    "seek": 14,
    "stat": 15,
    "mkdir": 16,
    "readdir": 17,
    "unlink": 18,
    "rename": 19,
    "read_into": 20,
    "write_from": 21,
    "link": 22,
    "truncate": 23,
    # processes and threads
    "spawn": 30,
    "wait": 31,
    "exit": 32,
    "getpid": 33,
    "kill": 34,
    "sched_yield": 35,
    "thread_spawn": 36,
    "thread_join": 37,
    "sleep": 38,
    "sched_setscheduler": 45,
    "sched_getscheduler": 46,
    # synchronization
    "futex_wait": 40,
    "futex_wake": 41,
    # networking
    "socket": 50,
    "bind": 51,
    "sendto": 52,
    "recvfrom": 53,
    "rdp_listen": 54,
    "rdp_connect": 55,
    "rdp_accept": 56,
    "rdp_send": 57,
    "rdp_recv": 58,
    "rdp_close": 59,
    # submission/completion rings (batched dispatch)
    "ring_setup": 80,
    "ring_enter": 81,
    "ring_reap": 82,
    # console
    "log": 60,
}

NUMBER_TO_NAME = {number: name for name, number in SYSCALLS.items()}

# errno-style codes
EOK = 0
EBADF = 9
EAGAIN = 11
ENOMEM = 12
EFAULT = 14
EEXIST = 17
ENOENT = 2
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
ENOSPC = 28
ESRCH = 3
EPERM = 1
ECHILD = 10
ENOSYS = 38
ECONNREFUSED = 111
ENOTCONN = 107
E2BIG = 7        # a ring completion payload does not fit a CQE slot
EBADMSG = 74     # a ring submission slot failed its integrity check

ERRNO_NAMES = {
    EBADF: "EBADF", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM", EFAULT: "EFAULT",
    EEXIST: "EEXIST", ENOENT: "ENOENT", ENOTDIR: "ENOTDIR",
    EISDIR: "EISDIR", EINVAL: "EINVAL", ENOSPC: "ENOSPC", ESRCH: "ESRCH",
    EPERM: "EPERM", ECHILD: "ECHILD", ENOSYS: "ENOSYS",
    ECONNREFUSED: "ECONNREFUSED", ENOTCONN: "ENOTCONN",
    E2BIG: "E2BIG", EBADMSG: "EBADMSG",
}


@dataclass(frozen=True)
class Syscall:
    """A syscall request, as yielded by user code."""

    name: str
    args: tuple = ()

    def __post_init__(self):
        if self.name not in SYSCALLS:
            raise ValueError(f"unknown syscall {self.name!r}")


class SyscallError(Exception):
    """Thrown *into* user code when a syscall fails."""

    def __init__(self, errno: int, message: str = "") -> None:
        name = ERRNO_NAMES.get(errno, str(errno))
        super().__init__(f"[{name}] {message}" if message else f"[{name}]")
        self.errno = errno


def sys(name: str, *args) -> Syscall:
    """Convenience constructor: ``result = yield sys("read", fd, 100)``."""
    return Syscall(name, args)
