"""File syscalls: descriptors, paths, and zero-copy reads/writes through
user buffers."""

from __future__ import annotations

from repro.nros.fs import fd as fdmod
from repro.nros.fs import fs as fsmod
from repro.nros.fs.alloc import NoSpace
from repro.nros.syscall import abi
from repro.nros.syscall.table import errno_call, user_read, user_write
from repro.verif.linear import OwnershipError

#: Filesystem exception -> errno; the catch-all rows (every other FsError
#: — DirectoryNotEmpty, FileTooBig, Corrupt — and a ValueError from
#: argument validation) come last.
_FS_ERRNO = (
    (fsmod.NotFound, abi.ENOENT),
    (fsmod.Exists, abi.EEXIST),
    (fsmod.NotADirectory, abi.ENOTDIR),
    (fsmod.IsADirectory, abi.EISDIR),
    (fdmod.BadFd, abi.EBADF),
    (fdmod.PermissionDenied, abi.EPERM),
    (NoSpace, abi.ENOSPC),
    (fsmod.FsError, abi.EINVAL),
    (ValueError, abi.EINVAL),
)


def fs_call(fn, *args):
    """Call into the filesystem, turning its exceptions into errnos."""
    return errno_call(_FS_ERRNO, fn, *args)


def sys_open(k, thread, path: str, flags: int = 0) -> int:
    return fs_call(thread.process.fdtable.open, path, flags)


def sys_close(k, thread, fd: int) -> None:
    fs_call(thread.process.fdtable.close, fd)


def sys_read(k, thread, fd: int, length: int) -> bytes:
    return fs_call(thread.process.fdtable.read, fd, length)


def sys_write(k, thread, fd: int, data: bytes) -> int:
    return fs_call(thread.process.fdtable.write, fd, data)


def sys_seek(k, thread, fd: int, offset: int) -> int:
    return fs_call(thread.process.fdtable.seek, fd, offset)


def sys_stat(k, thread, path: str) -> tuple:
    stat = fs_call(k.fs.stat, path)
    return (stat.inum, stat.itype, stat.size, stat.nlink)


def sys_mkdir(k, thread, path: str) -> None:
    fs_call(k.fs.mkdir, path)


def sys_readdir(k, thread, path: str) -> tuple:
    return tuple(fs_call(k.fs.readdir, path))


def sys_unlink(k, thread, path: str) -> None:
    fs_call(k.fs.unlink, path)


def sys_rename(k, thread, old: str, new: str) -> None:
    fs_call(k.fs.rename, old, new)


def sys_link(k, thread, old_path: str, new_path: str) -> None:
    fs_call(k.fs.link, old_path, new_path)


def sys_truncate(k, thread, path: str, size: int = 0) -> None:
    fs_call(k.fs.truncate, fs_call(k.fs.lookup, path), size)


#: A conflicting claim on the user buffer (the data-race-freedom
#: obligation: the kernel owns the buffer for the duration of the copy).
_CONTENDED = ((OwnershipError, abi.EAGAIN),)


def sys_read_into(k, thread, fd: int, vaddr: int, length: int) -> int:
    """Read file data directly into user memory: the mapping and
    data-race-freedom obligations in action."""
    table = k._ownership[thread.process.pid]
    token = errno_call(_CONTENDED, table.claim_unique, vaddr, max(length, 1),
                       f"read_into:t{thread.tid}")
    try:
        data = fs_call(thread.process.fdtable.read, fd, length)
        user_write(k, thread, vaddr, data)
        return len(data)
    finally:
        table.release(token)


def sys_write_from(k, thread, fd: int, vaddr: int, length: int) -> int:
    table = k._ownership[thread.process.pid]
    token = errno_call(_CONTENDED, table.claim_shared, vaddr, max(length, 1),
                       f"write_from:t{thread.tid}")
    try:
        data = user_read(k, thread, vaddr, length)
        return fs_call(thread.process.fdtable.write, fd, data)
    finally:
        table.release(token)
