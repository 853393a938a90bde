"""Filesystem consistency checking (fsck).

Walks the volume from the root directory and cross-checks every structural
invariant the filesystem maintains:

* every block referenced by an inode (direct, indirect, and the indirect
  table itself) is marked allocated in the bitmap, and referenced once;
* every bitmap-allocated data block is referenced (no leaks);
* every directory entry points to an allocated inode, and every allocated
  inode is reachable (no orphans);
* each file inode's link count equals the number of directory entries
  naming it; directories are named exactly once;
* referenced block indices lie within the file's size.

Returns a list of human-readable issues; an empty list means clean.  The
remount and random-operation tests run fsck after every scenario, which is
how the filesystem's write-through discipline is audited.
"""

from __future__ import annotations

import struct

from repro.nros.drivers.block import BLOCK_SIZE
from repro.nros.fs import dir as dirfmt
from repro.nros.fs.fs import FileSystem, ROOT_INUM
from repro.nros.fs.inode import (
    INDIRECT_ENTRIES,
    INODES_PER_BLOCK,
    NUM_DIRECT,
    TYPE_DIR,
    TYPE_FILE,
    TYPE_FREE,
)


def fsck(fs: FileSystem) -> list[str]:
    """Audit the mounted volume; returns the list of inconsistencies."""
    issues: list[str] = []
    data_start = _data_start(fs)
    references: dict[int, str] = {}   # block -> first referencing owner
    name_counts: dict[int, int] = {}  # inum -> directory entries naming it
    reachable: set[int] = set()
    claimed_files: set[int] = set()   # inodes whose blocks were claimed

    def claim(block: int, owner: str) -> None:
        if block == 0:
            return
        if block in references:
            issues.append(
                f"block {block} referenced by both {references[block]} "
                f"and {owner}"
            )
            return
        references[block] = owner
        if not fs.bitmap.is_set(block):
            issues.append(f"block {block} ({owner}) not marked allocated")
        if block < data_start:
            issues.append(f"block {block} ({owner}) inside metadata region")

    def claim_file_blocks(inum: int, inode, path: str) -> None:
        if inum in claimed_files:
            return  # hard link: blocks already accounted
        claimed_files.add(inum)
        max_index = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for index, block in enumerate(inode.direct):
            if block:
                if index >= max_index:
                    issues.append(f"{path}: direct block {index} beyond "
                                  f"size {inode.size}")
                claim(block, f"{path}[{index}]")
        if inode.indirect:
            claim(inode.indirect, f"{path}[indirect table]")
            table = fs.dev.read(inode.indirect)
            for i in range(INDIRECT_ENTRIES):
                block = struct.unpack_from("<I", table, i * 4)[0]
                if block:
                    index = NUM_DIRECT + i
                    if index >= max_index:
                        issues.append(f"{path}: indirect block {index} "
                                      f"beyond size {inode.size}")
                    claim(block, f"{path}[{index}]")

    # -- walk the namespace from the root -------------------------------------
    stack = [(ROOT_INUM, "/")]
    seen_dirs: set[int] = set()
    name_counts[ROOT_INUM] = 1
    while stack:
        inum, path = stack.pop()
        if inum in seen_dirs:
            issues.append(f"directory {path} (inode {inum}) reached twice")
            continue
        reachable.add(inum)
        inode = fs._read_inode(inum)
        if inode.itype == TYPE_FREE:
            issues.append(f"{path} points at free inode {inum}")
            continue
        claim_file_blocks(inum, inode, path)
        if not inode.is_dir:
            continue
        seen_dirs.add(inum)
        try:
            entries = dirfmt.decode_entries(fs.read_at(inum, 0, inode.size))
        except dirfmt.DirFormatError as exc:
            issues.append(f"directory {path} corrupt: {exc}")
            continue
        prefix = "" if path == "/" else path
        for name, child in entries.items():
            name_counts[child] = name_counts.get(child, 0) + 1
            child_inode = fs._read_inode(child)
            child_path = f"{prefix}/{name}"
            if child_inode.itype == TYPE_FREE:
                issues.append(f"{child_path} points at free inode {child}")
                continue
            if child_inode.is_dir:
                stack.append((child, child_path))
            else:
                reachable.add(child)
                claim_file_blocks(child, child_inode, child_path)

    # -- link counts -------------------------------------------------------------
    for inum in range(fs.num_inodes):
        inode = fs._read_inode(inum)
        if inode.itype == TYPE_FREE:
            continue
        if inum not in reachable:
            issues.append(f"orphan inode {inum} (type {inode.itype})")
            continue
        expected = name_counts.get(inum, 0)
        if inode.itype == TYPE_FILE and inode.nlink != expected:
            issues.append(f"inode {inum}: nlink {inode.nlink} but "
                          f"{expected} directory entries")
        if inode.itype == TYPE_DIR and expected != 1:
            issues.append(f"directory inode {inum} named {expected} times")

    # -- leaks ----------------------------------------------------------------------
    for block in range(data_start, fs.bitmap.covered_blocks):
        if fs.bitmap.is_set(block) and block not in references:
            issues.append(f"leaked block {block} (allocated, unreferenced)")
    return issues


def _data_start(fs: FileSystem) -> int:
    itable_blocks = (fs.num_inodes + INODES_PER_BLOCK - 1) // INODES_PER_BLOCK
    return fs.itable_start + itable_blocks
