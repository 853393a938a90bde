"""The syscall table: where a syscall is declared, exactly once.

Defining ``sys_<name>(kernel, thread, *args)`` in a family module
(``sys_vm``, ``sys_ring``, ``sys_files``, ``sys_proc``, ``sys_futex``,
``sys_net``) *is* the declaration: :func:`load` binds name
(the number still comes from :data:`abi.SYSCALLS`), handler and ring
eligibility (:func:`trap_only`) into the table both transports — trap
and ring drain — dispatch from.

Handlers report through three control exceptions that only the kernel's
``_invoke`` / ``_syscall`` turn into errnos, parked threads and exits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.mmu import AccessType, TranslationFault
from repro.nros.proc.process import BlockReason
from repro.nros.syscall import abi
from repro.nros.syscall.usercopy import copy_from_user, copy_to_user
from repro.nros.vspace import VSpace


class Block(Exception):
    """A handler parks the calling thread."""

    def __init__(self, reason: BlockReason) -> None:
        super().__init__(reason.kind)
        self.reason = reason


class SyscallFailure(Exception):
    """A handler fails with an errno."""

    def __init__(self, errno: int, message: str = "") -> None:
        super().__init__(message)
        self.errno = errno


class ProcessExited(Exception):
    """The calling process exited inside a handler."""


@dataclass(frozen=True)
class SyscallEntry:
    name: str
    handler: object     # sys_<name>(kernel, thread, *args)
    ring: bool          # may be dispatched from a ring SQE


def trap_only(handler):
    """Mark a handler ring-ineligible: control-flow transfers (exit
    unwinds the caller) and the ring ops themselves (no recursive
    draining) must arrive as a trap."""
    handler.trap_only = True
    return handler


def load() -> dict[int, SyscallEntry]:
    """number -> entry for every ``sys_*`` function the families define;
    refuses a table that disagrees with ``abi.SYSCALLS`` either way."""
    from repro.nros.syscall import (sys_files, sys_futex, sys_net, sys_proc,
                                    sys_ring, sys_vm)

    table: dict[int, SyscallEntry] = {}
    for family in (sys_files, sys_futex, sys_net, sys_proc, sys_ring,
                   sys_vm):
        for attr, fn in vars(family).items():
            if not attr.startswith("sys_") or fn.__module__ != family.__name__:
                continue    # not a handler, or one imported from its family
            name = attr.removeprefix("sys_")
            number = abi.SYSCALLS.get(name)
            if number is None or number in table:
                raise ImportError(
                    f"{family.__name__}.{attr}: " + (
                        "names no ABI syscall" if number is None
                        else f"{name} is already declared"))
            table[number] = SyscallEntry(
                name, fn, ring=not getattr(fn, "trap_only", False))
    missing = set(abi.SYSCALLS) - {entry.name for entry in table.values()}
    if missing:
        raise ImportError(f"no handler for syscalls {sorted(missing)}")
    return table


# -- mechanisms every family shares ------------------------------------------------


def errno_call(errnos, fn, *args, **kwargs):
    """Call ``fn``; an exception listed in ``errnos`` — ``((class, errno),
    ...)``, first match wins — becomes the caller's errno."""
    try:
        return fn(*args, **kwargs)
    except tuple(cls for cls, _errno in errnos) as exc:
        errno = next(e for cls, e in errnos if isinstance(exc, cls))
        raise SyscallFailure(errno, str(exc)) from exc


def _user_access(k, thread, access, *args):
    """Run ``access(vspace, core, *args)`` — the door, or a usercopy loop
    over it — for the caller.  The one place a translation fault becomes
    ``EFAULT`` (the mapping obligation) and is counted."""
    try:
        return access(thread.process.vspace, k.scheduler.core_of(thread),
                      *args)
    except TranslationFault as fault:
        k.stats.page_faults += 1
        raise SyscallFailure(abi.EFAULT, str(fault)) from fault


def user_paddr(k, thread, vaddr: int, access: AccessType) -> int:
    """Where the caller's word at ``vaddr`` lives, checked for ``access``."""
    return _user_access(k, thread, VSpace.translate, vaddr, access)


def user_read(k, thread, vaddr: int, length: int) -> bytes:
    return _user_access(k, thread, copy_from_user, vaddr, length)


def user_write(k, thread, vaddr: int, data: bytes) -> None:
    _user_access(k, thread, copy_to_user, vaddr, data)


def poll_or_block(poll):
    """Complete now if ``poll()`` is ready, else park the caller on it:
    ``poll`` returns None (not ready), ``("ok", value)`` or ``("err",
    (errno, message))``, and the kernel re-runs it on every network
    event to wake the parked thread with the same result."""
    ready = poll()
    if ready is None:
        raise Block(BlockReason("net", poll))
    if ready[0] == "err":
        raise SyscallFailure(*ready[1])
    return ready[1]
