"""On-disk inodes.

128-byte records, 32 per block: type, size, link count, ten direct block
pointers and one single-indirect pointer (1024 entries), giving a maximum
file size of (10 + 1024) * 4 KiB ≈ 4 MiB — plenty for the workloads of the
storage-node application."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.nros.drivers.block import BLOCK_SIZE

INODE_SIZE = 128
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
NUM_DIRECT = 10
INDIRECT_ENTRIES = BLOCK_SIZE // 4
MAX_FILE_BLOCKS = NUM_DIRECT + INDIRECT_ENTRIES
MAX_FILE_SIZE = MAX_FILE_BLOCKS * BLOCK_SIZE

TYPE_FREE = 0
TYPE_FILE = 1
TYPE_DIR = 2

# struct: type u8, pad u8, nlink u16, size u64, direct 10*u32, indirect u32
_FORMAT = "<BBHQ10II"
_STRUCT = struct.Struct(_FORMAT)
assert _STRUCT.size <= INODE_SIZE


@dataclass
class Inode:
    """The in-memory image of one inode."""

    itype: int = TYPE_FREE
    nlink: int = 0
    size: int = 0
    direct: list[int] = field(default_factory=lambda: [0] * NUM_DIRECT)
    indirect: int = 0

    @property
    def is_file(self) -> bool:
        return self.itype == TYPE_FILE

    @property
    def is_dir(self) -> bool:
        return self.itype == TYPE_DIR

    def encode(self) -> bytes:
        packed = _STRUCT.pack(
            self.itype, 0, self.nlink, self.size, *self.direct, self.indirect
        )
        return packed + bytes(INODE_SIZE - len(packed))

    @staticmethod
    def decode(data: bytes) -> "Inode":
        fields = _STRUCT.unpack(data[: _STRUCT.size])
        itype, _pad, nlink, size = fields[0], fields[1], fields[2], fields[3]
        direct = list(fields[4 : 4 + NUM_DIRECT])
        indirect = fields[4 + NUM_DIRECT]
        return Inode(itype=itype, nlink=nlink, size=size, direct=direct,
                     indirect=indirect)


@dataclass(frozen=True)
class Stat:
    """What the stat() syscall returns."""

    inum: int
    itype: int
    size: int
    nlink: int

    @property
    def is_dir(self) -> bool:
        return self.itype == TYPE_DIR
