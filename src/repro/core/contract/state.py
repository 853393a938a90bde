"""The abstract system state of the client application contract.

Section 3: "The high-level spec for the system call is a state machine,
whose state contains the file descriptors' current state."  This is that
state: an immutable map from file descriptor to the descriptor's abstract
view (contents, offset, lock bit).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.immutable import EMPTY_MAP, FrozenMap


@dataclass(frozen=True)
class FileState:
    """The abstract state of one open file descriptor."""

    contents: bytes = b""
    offset: int = 0
    locked: bool = False

    @property
    def size(self) -> int:
        return len(self.contents)

    def with_locked(self, locked: bool) -> "FileState":
        return replace(self, locked=locked)


@dataclass(frozen=True)
class SysState:
    """The system state as perceived by one client process."""

    files: FrozenMap = EMPTY_MAP  # fd (int) -> FileState

    def file(self, fd: int) -> FileState:
        return self.files[fd]

    def has_fd(self, fd: int) -> bool:
        return fd in self.files

    def with_file(self, fd: int, state: FileState) -> "SysState":
        return SysState(files=self.files.set(fd, state))

    def lowest_free_fd(self) -> int:
        fd = 0
        while fd in self.files:
            fd += 1
        return fd
