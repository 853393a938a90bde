"""The filesystem proper: superblock, namespace, and file I/O.

On-disk layout (4 KiB blocks):

    block 0              superblock
    blocks 1..b          block-allocation bitmap
    blocks b+1..i        inode table
    blocks i+1..         data

Paths are absolute, '/'-separated.  The implementation favours simplicity
and auditability: directories rewrite wholesale, metadata writes are
write-through, and every operation leaves the volume mountable (checked by
the remount tests)."""

from __future__ import annotations

import functools
import struct

from repro import obs
from repro.nros.drivers.block import BLOCK_SIZE, BlockDriver
from repro.nros.fs import dir as dirfmt
from repro.nros.fs.alloc import BlockBitmap, NoSpace
from repro.nros.fs.inode import (
    INODES_PER_BLOCK,
    INDIRECT_ENTRIES,
    MAX_FILE_SIZE,
    NUM_DIRECT,
    Inode,
    Stat,
    TYPE_DIR,
    TYPE_FILE,
    TYPE_FREE,
)

MAGIC = 0x4E724F53  # "NrOS"
ROOT_INUM = 0

_SUPER = struct.Struct("<IIIIII")  # magic, blocks, bitmap_start, bitmap_len,
                                   # itable_start, num_inodes


class FsError(Exception):
    """Base filesystem error."""


class NotFound(FsError):
    pass


class Exists(FsError):
    pass


class NotADirectory(FsError):
    pass


class IsADirectory(FsError):
    pass


class DirectoryNotEmpty(FsError):
    pass


class FileTooBig(FsError):
    pass


class Corrupt(FsError):
    """An on-disk structure failed to decode (damaged directory data)."""


def _timed(op: str):
    """Record the wall-clock latency of a filesystem operation into the
    labeled ``fs.op_seconds{op=...}`` histogram (and the trace, when
    someone is listening) — the per-operation population a latency
    figure over the FS layer reads from."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span("fs.op", histogram="fs.op_seconds",
                          labels={"op": op}):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


class FileSystem:
    """A mounted volume."""

    def __init__(self, dev: BlockDriver) -> None:
        super_data = dev.read(0)
        magic, blocks, bitmap_start, bitmap_len, itable_start, num_inodes = (
            _SUPER.unpack_from(super_data)
        )
        if magic != MAGIC:
            raise FsError("bad superblock magic (not formatted?)")
        if blocks != dev.num_blocks:
            raise FsError("superblock block count does not match device")
        self.dev = dev
        self.bitmap = BlockBitmap(dev, bitmap_start, bitmap_len, blocks)
        self.itable_start = itable_start
        self.num_inodes = num_inodes

    # -- formatting ------------------------------------------------------------

    @staticmethod
    def mkfs(dev: BlockDriver, num_inodes: int = 256) -> "FileSystem":
        """Format the device and return the mounted filesystem."""
        blocks = dev.num_blocks
        bitmap_len = BlockBitmap.blocks_needed(blocks)
        itable_blocks = (num_inodes + INODES_PER_BLOCK - 1) // INODES_PER_BLOCK
        bitmap_start = 1
        itable_start = bitmap_start + bitmap_len
        data_start = itable_start + itable_blocks
        if data_start >= blocks:
            raise FsError("device too small")

        for block in range(data_start):
            dev.zero(block)
        dev.write(0, _SUPER.pack(MAGIC, blocks, bitmap_start, bitmap_len,
                                 itable_start, num_inodes))
        fs = FileSystem.__new__(FileSystem)
        fs.dev = dev
        fs.bitmap = BlockBitmap(dev, bitmap_start, bitmap_len, blocks)
        fs.itable_start = itable_start
        fs.num_inodes = num_inodes
        # reserve metadata blocks in the bitmap
        for block in range(data_start):
            fs.bitmap.set(block)
        # root directory
        root = Inode(itype=TYPE_DIR, nlink=1, size=0)
        fs._write_inode(ROOT_INUM, root)
        return fs

    # -- inode table -----------------------------------------------------------------

    def _read_inode(self, inum: int) -> Inode:
        self._check_inum(inum)
        block = self.itable_start + inum // INODES_PER_BLOCK
        offset = (inum % INODES_PER_BLOCK) * 128
        return Inode.decode(self.dev.read(block)[offset : offset + 128])

    def _write_inode(self, inum: int, inode: Inode) -> None:
        self._check_inum(inum)
        block = self.itable_start + inum // INODES_PER_BLOCK
        offset = (inum % INODES_PER_BLOCK) * 128
        data = bytearray(self.dev.read(block))
        data[offset : offset + 128] = inode.encode()
        self.dev.write(block, bytes(data))

    def _alloc_inode(self, itype: int) -> int:
        for inum in range(self.num_inodes):
            if self._read_inode(inum).itype == TYPE_FREE:
                self._write_inode(inum, Inode(itype=itype, nlink=1, size=0))
                return inum
        raise NoSpace("inode table full")

    def _check_inum(self, inum: int) -> None:
        if not 0 <= inum < self.num_inodes:
            raise FsError(f"inode {inum} out of range")

    # -- block mapping ------------------------------------------------------------------

    def _block_of(self, inode: Inode, index: int, allocate: bool) -> int:
        """The data block holding file block `index`; 0 means a hole."""
        if index < NUM_DIRECT:
            block = inode.direct[index]
            if block == 0 and allocate:
                block = self.bitmap.alloc()
                self.dev.zero(block)
                inode.direct[index] = block
            return block
        index -= NUM_DIRECT
        if index >= INDIRECT_ENTRIES:
            raise FileTooBig(f"file block {index + NUM_DIRECT} beyond maximum")
        if inode.indirect == 0:
            if not allocate:
                return 0
            inode.indirect = self.bitmap.alloc()
            self.dev.zero(inode.indirect)
        table = bytearray(self.dev.read(inode.indirect))
        block = struct.unpack_from("<I", table, index * 4)[0]
        if block == 0 and allocate:
            block = self.bitmap.alloc()
            self.dev.zero(block)
            struct.pack_into("<I", table, index * 4, block)
            self.dev.write(inode.indirect, bytes(table))
        return block

    # -- file I/O by inode number ----------------------------------------------------------

    @_timed("read_at")
    def read_at(self, inum: int, offset: int, length: int) -> bytes:
        inode = self._read_inode(inum)
        if inode.itype == TYPE_FREE:
            raise NotFound(f"inode {inum} is free")
        if offset >= inode.size or length <= 0:
            return b""
        length = min(length, inode.size - offset)
        out = bytearray()
        while length > 0:
            index, within = divmod(offset, BLOCK_SIZE)
            chunk = min(length, BLOCK_SIZE - within)
            block = self._block_of(inode, index, allocate=False)
            if block == 0:
                out += bytes(chunk)  # hole reads as zeros
            else:
                out += self.dev.read(block)[within : within + chunk]
            offset += chunk
            length -= chunk
        return bytes(out)

    @_timed("write_at")
    def write_at(self, inum: int, offset: int, data: bytes) -> int:
        inode = self._read_inode(inum)
        if inode.itype == TYPE_FREE:
            raise NotFound(f"inode {inum} is free")
        if offset + len(data) > MAX_FILE_SIZE:
            raise FileTooBig(
                f"write to {offset + len(data)} exceeds {MAX_FILE_SIZE}"
            )
        before = inode.encode()
        remaining = memoryview(data)
        position = offset
        full = None
        while remaining:
            index, within = divmod(position, BLOCK_SIZE)
            chunk = min(len(remaining), BLOCK_SIZE - within)
            try:
                block = self._block_of(inode, index, allocate=True)
            except NoSpace as exc:
                # a short write: what landed stays in the file (so the
                # blocks allocated for it can be truncated or unlinked
                # away instead of leaking), then the error surfaces
                full = exc
                break
            if chunk == BLOCK_SIZE:
                # the chunk replaces the whole block: nothing to merge
                self.dev.write(block, bytes(remaining[:chunk]))
            else:
                current = bytearray(self.dev.read(block))
                current[within : within + chunk] = remaining[:chunk]
                self.dev.write(block, bytes(current))
            position += chunk
            remaining = remaining[chunk:]
        if position > inode.size and (full is None or position > offset):
            inode.size = position
        if inode.encode() != before:
            # a pure in-place overwrite commits with the data write alone;
            # directory slot updates rely on that being a single sector
            # write (and appended data only becomes visible here, when the
            # new size lands)
            self._write_inode(inum, inode)
        if full is not None:
            raise full
        return len(data)

    @_timed("truncate")
    def truncate(self, inum: int, size: int = 0) -> None:
        inode = self._read_inode(inum)
        if inode.itype == TYPE_FREE:
            raise NotFound(f"inode {inum} is free")
        if size > inode.size:
            raise FsError("truncate cannot extend")
        first_kept = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
        total = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        # Crash-safe ordering: clear every durable reference (indirect
        # table entries, then the inode) *before* freeing blocks in the
        # bitmap.  A crash anywhere in the window leaks allocated blocks —
        # which fsck reports and a collector can reclaim — instead of
        # leaving live pointers to blocks the allocator may hand out again.
        to_free: list[int] = []
        drop_indirect = inode.indirect != 0 and first_kept <= NUM_DIRECT
        for index in range(first_kept, total):
            block = self._block_of(inode, index, allocate=False)
            if block:
                to_free.append(block)
                if index < NUM_DIRECT:
                    inode.direct[index] = 0
                elif not drop_indirect:
                    self._clear_block_pointer(inode, index)
        if drop_indirect:
            to_free.append(inode.indirect)
            inode.indirect = 0
        inode.size = size
        self._write_inode(inum, inode)
        for block in to_free:
            self.bitmap.free(block)

    def _clear_block_pointer(self, inode: Inode, index: int) -> None:
        if index < NUM_DIRECT:
            inode.direct[index] = 0
            return
        index -= NUM_DIRECT
        table = bytearray(self.dev.read(inode.indirect))
        struct.pack_into("<I", table, index * 4, 0)
        self.dev.write(inode.indirect, bytes(table))

    def stat_inum(self, inum: int) -> Stat:
        inode = self._read_inode(inum)
        if inode.itype == TYPE_FREE:
            raise NotFound(f"inode {inum} is free")
        return Stat(inum=inum, itype=inode.itype, size=inode.size,
                    nlink=inode.nlink)

    # -- namespace -------------------------------------------------------------------------

    def _dir_entries(self, inum: int) -> dict[str, int]:
        inode = self._read_inode(inum)
        if not inode.is_dir:
            raise NotADirectory(f"inode {inum} is not a directory")
        try:
            return dirfmt.decode_entries(self.read_at(inum, 0, inode.size))
        except dirfmt.DirFormatError as exc:
            # surface damage as a typed filesystem error the caller can
            # catch, not a format-layer exception escaping the VFS
            raise Corrupt(f"directory inode {inum}: {exc}") from exc

    def _dir_raw(self, inum: int) -> bytes:
        """A directory's full slot array."""
        inode = self._read_inode(inum)
        if not inode.is_dir:
            raise NotADirectory(f"inode {inum} is not a directory")
        return self.read_at(inum, 0, inode.size)

    def _add_dir_entry(self, parent: int, name: str, inum: int) -> None:
        """Add one entry with a single commit point: either an atomic
        in-place rewrite of a free slot, or an append whose new slot only
        becomes visible when `write_at` lands the grown size."""
        data = self._dir_raw(parent)
        offset = dirfmt.find_free_slot(data)
        if offset is None:
            offset = len(data)
        self.write_at(parent, offset, dirfmt.encode_slot(name, inum))

    def _del_dir_entry(self, parent: int, name: str) -> None:
        """Drop one entry: a single atomic in-place slot write."""
        data = self._dir_raw(parent)
        offset = dirfmt.find_slot(data, name)
        if offset is None:
            raise NotFound(f"no entry {name!r} in directory {parent}")
        self.write_at(parent, offset, dirfmt.FREE_SLOT)
        # the slot write above is the commit; trimming trailing free slots
        # merely reclaims blocks (truncate itself is crash-ordered)
        data = (data[:offset] + dirfmt.FREE_SLOT
                + data[offset + dirfmt.SLOT_SIZE:])
        new_size = dirfmt.used_size(data)
        if new_size < len(data):
            self.truncate(parent, new_size)

    def _split(self, path: str) -> tuple[int, str]:
        """Resolve the parent directory of `path`; returns (parent inum,
        final component)."""
        parts = self._components(path)
        if not parts:
            raise FsError("path refers to the root directory")
        parent = ROOT_INUM
        for part in parts[:-1]:
            entries = self._dir_entries(parent)
            if part not in entries:
                raise NotFound(f"no such directory {part!r}")
            parent = entries[part]
            if not self._read_inode(parent).is_dir:
                raise NotADirectory(f"{part!r} is not a directory")
        return parent, parts[-1]

    @staticmethod
    def _components(path: str) -> list[str]:
        if not path.startswith("/"):
            raise FsError(f"path must be absolute: {path!r}")
        parts = [p for p in path.split("/") if p]
        for part in parts:
            dirfmt.validate_name(part)
        return parts

    @_timed("lookup")
    def lookup(self, path: str) -> int:
        """Resolve `path` to an inode number."""
        parts = self._components(path)
        inum = ROOT_INUM
        for part in parts:
            entries = self._dir_entries(inum)
            if part not in entries:
                raise NotFound(f"{path!r}: no entry {part!r}")
            inum = entries[part]
        return inum

    @_timed("create")
    def create(self, path: str) -> int:
        """Create an empty regular file."""
        return self._create(path, TYPE_FILE)

    @_timed("mkdir")
    def mkdir(self, path: str) -> int:
        return self._create(path, TYPE_DIR)

    def _create(self, path: str, itype: int) -> int:
        parent, name = self._split(path)
        entries = self._dir_entries(parent)
        if name in entries:
            raise Exists(f"{path!r} already exists")
        # the inode becomes durable before any name references it: a crash
        # in the window leaves an orphan inode (fsck-recoverable), never a
        # directory entry naming free storage
        inum = self._alloc_inode(itype)
        self._add_dir_entry(parent, name, inum)
        return inum

    @_timed("link")
    def link(self, old_path: str, new_path: str) -> None:
        """Create a hard link: `new_path` names the same inode as
        `old_path`.  Directories cannot be hard-linked."""
        inum = self.lookup(old_path)
        inode = self._read_inode(inum)
        if inode.is_dir:
            raise IsADirectory(f"cannot hard-link directory {old_path!r}")
        parent, name = self._split(new_path)
        entries = self._dir_entries(parent)
        if name in entries:
            raise Exists(f"{new_path!r} already exists")
        self._add_dir_entry(parent, name, inum)
        # a crash between the two writes leaves an extra entry with a low
        # nlink — an fsck-recoverable mismatch, never dangling structure
        inode = self._read_inode(inum)
        inode.nlink += 1
        self._write_inode(inum, inode)

    @_timed("unlink")
    def unlink(self, path: str) -> None:
        parent, name = self._split(path)
        entries = self._dir_entries(parent)
        if name not in entries:
            raise NotFound(f"{path!r} does not exist")
        inum = entries[name]
        inode = self._read_inode(inum)
        if inode.is_dir and self._dir_entries(inum):
            raise DirectoryNotEmpty(f"{path!r} is not empty")
        # Crash-safe ordering: drop the name first (one atomic slot
        # write).  A crash after it leaves an orphan inode (reported by
        # fsck, reclaimable), never a directory entry naming a freed inode.
        self._del_dir_entry(parent, name)
        if inode.is_dir:
            self._write_inode(inum, Inode())  # free the directory inode
        elif inode.nlink > 1:
            inode.nlink -= 1
            self._write_inode(inum, inode)  # other links keep the data
        else:
            self.truncate(inum, 0)
            self._write_inode(inum, Inode())  # last link: free everything

    @_timed("rename")
    def rename(self, old_path: str, new_path: str) -> None:
        old_parent, old_name = self._split(old_path)
        old_entries = self._dir_entries(old_parent)
        if old_name not in old_entries:
            raise NotFound(f"{old_path!r} does not exist")
        inum = old_entries[old_name]
        new_parent, new_name = self._split(new_path)
        new_entries = self._dir_entries(new_parent)
        if new_name in new_entries:
            raise Exists(f"{new_path!r} already exists")
        if new_parent == old_parent:
            # rewrite the existing slot in place: rename within one
            # directory is a single atomic sector write
            data = self._dir_raw(old_parent)
            offset = dirfmt.find_slot(data, old_name)
            self.write_at(old_parent, offset,
                          dirfmt.encode_slot(new_name, inum))
            return
        # across directories: the new name lands before the old one is
        # dropped — a crash in the window shows both names (an
        # fsck-recoverable nlink mismatch), never neither
        self._add_dir_entry(new_parent, new_name, inum)
        self._del_dir_entry(old_parent, old_name)

    @_timed("readdir")
    def readdir(self, path: str) -> list[str]:
        inum = self.lookup(path) if path != "/" else ROOT_INUM
        return sorted(self._dir_entries(inum))

    def stat(self, path: str) -> Stat:
        inum = self.lookup(path) if path != "/" else ROOT_INUM
        return self.stat_inum(inum)

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FsError:
            return False
