"""Per-process open-file state (descriptor table).

Bridges the filesystem to the syscall layer and to the client application
contract: an :class:`OpenFile` carries the offset the contract's `read_spec`
talks about."""

from __future__ import annotations

from dataclasses import dataclass

from repro.nros.fs.fs import FileSystem, FsError, IsADirectory

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
O_APPEND = 0x400

_ACCESS_MASK = 0x3


class BadFd(FsError):
    pass


class PermissionDenied(FsError):
    pass


@dataclass
class OpenFile:
    """One open descriptor."""

    inum: int
    flags: int
    offset: int = 0

    @property
    def readable(self) -> bool:
        return (self.flags & _ACCESS_MASK) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & _ACCESS_MASK) in (O_WRONLY, O_RDWR)


class FdTable:
    """A process's descriptor table."""

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self._open: dict[int, OpenFile] = {}

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        if flags & O_CREAT and not self.fs.exists(path):
            self.fs.create(path)
        inum = self.fs.lookup(path)
        stat = self.fs.stat_inum(inum)
        if stat.is_dir and (flags & _ACCESS_MASK) != O_RDONLY:
            raise IsADirectory(f"cannot open directory {path!r} for writing")
        if flags & O_TRUNC and not stat.is_dir:
            self.fs.truncate(inum, 0)
        fd = self._lowest_free()
        offset = self.fs.stat_inum(inum).size if flags & O_APPEND else 0
        self._open[fd] = OpenFile(inum=inum, flags=flags, offset=offset)
        return fd

    def _lowest_free(self) -> int:
        fd = 0
        while fd in self._open:
            fd += 1
        return fd

    def _get(self, fd: int) -> OpenFile:
        if fd not in self._open:
            raise BadFd(f"bad file descriptor {fd}")
        return self._open[fd]

    def read(self, fd: int, length: int) -> bytes:
        if length < 0:
            raise FsError("negative read length")
        handle = self._get(fd)
        if not handle.readable:
            raise PermissionDenied(f"fd {fd} not open for reading")
        data = self.fs.read_at(handle.inum, handle.offset, length)
        handle.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        handle = self._get(fd)
        if not handle.writable:
            raise PermissionDenied(f"fd {fd} not open for writing")
        written = self.fs.write_at(handle.inum, handle.offset, data)
        handle.offset += written
        return written

    def seek(self, fd: int, offset: int) -> int:
        if offset < 0:
            raise FsError("negative seek offset")
        handle = self._get(fd)
        handle.offset = offset
        return offset

    def tell(self, fd: int) -> int:
        return self._get(fd).offset

    def stat(self, fd: int):
        return self.fs.stat_inum(self._get(fd).inum)

    def close(self, fd: int) -> None:
        if fd not in self._open:
            raise BadFd(f"bad file descriptor {fd}")
        del self._open[fd]

    def close_all(self) -> None:
        self._open.clear()

    def open_fds(self) -> list[int]:
        return sorted(self._open)
