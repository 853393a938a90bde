"""fsck tests: clean volumes pass; seeded corruptions are each detected."""

import random
import struct

import pytest

from repro.hw.devices.disk import Disk
from repro.nros.drivers.block import BLOCK_SIZE, BlockDriver
from repro.nros.fs.fs import FileSystem
from repro.nros.fs.fsck import fsck
from repro.nros.fs.inode import Inode, TYPE_FILE


def fresh_fs(sectors=512):
    disk = Disk(sectors)
    return FileSystem.mkfs(BlockDriver(disk)), disk


class TestCleanVolumes:
    def test_empty_volume_clean(self):
        fs, _ = fresh_fs()
        assert fsck(fs) == []

    def test_after_basic_ops(self):
        fs, _ = fresh_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        fs.write_at(fs.lookup("/d/f"), 0, b"x" * 10_000)
        fs.create("/g")
        fs.link("/g", "/g2")
        assert fsck(fs) == []

    def test_after_deletes_and_truncates(self):
        fs, _ = fresh_fs()
        for i in range(8):
            fs.create(f"/f{i}")
            fs.write_at(fs.lookup(f"/f{i}"), 0, bytes([i]) * 5000)
        for i in range(0, 8, 2):
            fs.unlink(f"/f{i}")
        fs.truncate(fs.lookup("/f1"), 100)
        assert fsck(fs) == []

    def test_after_indirect_blocks(self):
        fs, _ = fresh_fs()
        inum = fs.create("/big")
        fs.write_at(inum, 12 * BLOCK_SIZE, b"deep")
        assert fsck(fs) == []

    def test_after_random_workload(self):
        rng = random.Random(5)
        fs, _ = fresh_fs()
        names = [f"/n{i}" for i in range(6)]
        for _ in range(120):
            name = rng.choice(names)
            action = rng.choice(["create", "write", "unlink", "truncate",
                                 "link", "rename"])
            try:
                if action == "create":
                    fs.create(name)
                elif action == "write":
                    fs.write_at(fs.lookup(name), rng.randrange(0, 8000),
                                bytes(rng.randrange(1, 500)))
                elif action == "unlink":
                    fs.unlink(name)
                elif action == "truncate":
                    inum = fs.lookup(name)
                    size = fs.stat_inum(inum).size
                    fs.truncate(inum, rng.randrange(0, size + 1))
                elif action == "link":
                    fs.link(name, name + "L")
                else:
                    fs.rename(name, name + "R")
                    fs.rename(name + "R", name)
            except Exception:
                continue
            assert fsck(fs) == [], action

    def test_after_remount(self):
        fs, disk = fresh_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        fs.write_at(fs.lookup("/d/f"), 0, b"data")
        fs2 = FileSystem(BlockDriver(disk))
        assert fsck(fs2) == []


class TestCorruptionDetected:
    def test_leaked_block(self):
        fs, _ = fresh_fs()
        fs.bitmap.set(fs.bitmap.covered_blocks - 1)  # mark, never reference
        issues = fsck(fs)
        assert any("leaked" in i for i in issues)

    def test_unallocated_referenced_block(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        fs.write_at(inum, 0, b"data")
        inode = fs._read_inode(inum)
        fs.bitmap.clear(inode.direct[0])  # bitmap says free, inode points
        issues = fsck(fs)
        assert any("not marked allocated" in i for i in issues)

    def test_double_referenced_block(self):
        fs, _ = fresh_fs()
        a = fs.create("/a")
        b = fs.create("/b")
        fs.write_at(a, 0, b"one")
        fs.write_at(b, 0, b"two")
        inode_a = fs._read_inode(a)
        inode_b = fs._read_inode(b)
        inode_b.direct[0] = inode_a.direct[0]
        fs._write_inode(b, inode_b)
        issues = fsck(fs)
        assert any("referenced by both" in i for i in issues)

    def test_wrong_nlink(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        inode = fs._read_inode(inum)
        inode.nlink = 7
        fs._write_inode(inum, inode)
        issues = fsck(fs)
        assert any("nlink 7" in i for i in issues)

    def test_orphan_inode(self):
        fs, _ = fresh_fs()
        # allocate an inode with no directory entry
        fs._write_inode(5, Inode(itype=TYPE_FILE, nlink=1, size=0))
        issues = fsck(fs)
        assert any("orphan inode 5" in i for i in issues)

    def test_entry_to_free_inode(self):
        fs, _ = fresh_fs()
        inum = fs.create("/ghost")
        fs._write_inode(inum, Inode())  # free it behind the directory
        issues = fsck(fs)
        assert any("free inode" in i for i in issues)

    def test_block_beyond_size(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        fs.write_at(inum, 0, b"x" * (2 * BLOCK_SIZE))
        inode = fs._read_inode(inum)
        inode.size = 10  # shrink size without releasing blocks
        fs._write_inode(inum, inode)
        issues = fsck(fs)
        assert any("beyond size" in i for i in issues)

    def test_corrupt_directory_data(self):
        fs, _ = fresh_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        inum = fs.lookup("/d")
        inode = fs._read_inode(inum)
        raw = bytearray(fs.dev.read(inode.direct[0]))
        raw[0] = 0xFF  # clobber the first entry header
        struct.pack_into("<H", raw, 4, 0)  # zero name length
        fs.dev.write(inode.direct[0], bytes(raw))
        issues = fsck(fs)
        assert issues  # corrupt directory reported (plus knock-on issues)
        assert any("corrupt" in i or "free inode" in i for i in issues)
