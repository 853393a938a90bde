"""Filesystem tests: mkfs/mount, namespace, I/O, indirect blocks, remount."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.devices.disk import Disk
from repro.nros.drivers.block import BLOCK_SIZE, BlockDriver
from repro.nros.fs.alloc import NoSpace
from repro.nros.fs.dir import DirFormatError, decode_entries, encode_entries
from repro.nros.fs.fd import (
    BadFd,
    FdTable,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    PermissionDenied,
)
from repro.nros.fs.fs import (
    DirectoryNotEmpty,
    Exists,
    FileSystem,
    FileTooBig,
    FsError,
    NotFound,
    ROOT_INUM,
)
from repro.nros.fs.fsck import fsck
from repro.nros.fs.inode import Inode, MAX_FILE_SIZE, TYPE_DIR, TYPE_FILE


def fresh_fs(sectors=512):
    disk = Disk(sectors)
    dev = BlockDriver(disk)
    return FileSystem.mkfs(dev), disk


class TestDirFormat:
    def test_roundtrip(self):
        entries = {"hello": 3, "world.txt": 7, "üñïçödé": 250}
        assert decode_entries(encode_entries(entries)) == entries

    def test_empty(self):
        assert decode_entries(b"") == {}
        assert encode_entries({}) == b""

    def test_corrupt(self):
        with pytest.raises(DirFormatError):
            decode_entries(b"\x01\x02")

    @given(st.dictionaries(
        st.text(min_size=1, max_size=20).filter(
            lambda s: "/" not in s and "\x00" not in s and s not in (".", "..")
        ),
        st.integers(0, 255), max_size=10))
    @settings(max_examples=50)
    def test_roundtrip_property(self, entries):
        assert decode_entries(encode_entries(entries)) == entries


class TestInodeCodec:
    def test_roundtrip(self):
        inode = Inode(itype=TYPE_FILE, nlink=2, size=12345,
                      direct=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], indirect=99)
        decoded = Inode.decode(inode.encode())
        assert decoded == inode

    def test_encode_is_128_bytes(self):
        assert len(Inode().encode()) == 128


class TestMkfsMount:
    def test_mkfs_and_mount(self):
        fs, disk = fresh_fs()
        fs2 = FileSystem(BlockDriver(disk))
        assert fs2.readdir("/") == []

    def test_mount_unformatted_fails(self):
        with pytest.raises(FsError, match="magic"):
            FileSystem(BlockDriver(Disk(16)))

    def test_mkfs_too_small(self):
        with pytest.raises(FsError):
            FileSystem.mkfs(BlockDriver(Disk(4)), num_inodes=1024)


class TestNamespace:
    def test_create_lookup(self):
        fs, _ = fresh_fs()
        inum = fs.create("/a.txt")
        assert fs.lookup("/a.txt") == inum
        assert fs.readdir("/") == ["a.txt"]

    def test_nested_dirs(self):
        fs, _ = fresh_fs()
        fs.mkdir("/usr")
        fs.mkdir("/usr/bin")
        fs.create("/usr/bin/python")
        assert fs.readdir("/usr/bin") == ["python"]
        assert fs.stat("/usr/bin/python").size == 0
        assert fs.stat("/usr").is_dir

    def test_duplicate_create(self):
        fs, _ = fresh_fs()
        fs.create("/x")
        with pytest.raises(Exists):
            fs.create("/x")

    def test_lookup_missing(self):
        fs, _ = fresh_fs()
        with pytest.raises(NotFound):
            fs.lookup("/missing")
        with pytest.raises(NotFound):
            fs.lookup("/no/such/path")

    def test_relative_path_rejected(self):
        fs, _ = fresh_fs()
        with pytest.raises(FsError):
            fs.lookup("relative")

    def test_bad_names_rejected(self):
        fs, _ = fresh_fs()
        with pytest.raises(ValueError):
            fs.create("/..")

    def test_unlink(self):
        fs, _ = fresh_fs()
        fs.create("/f")
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(NotFound):
            fs.unlink("/f")

    def test_unlink_nonempty_dir(self):
        fs, _ = fresh_fs()
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            fs.unlink("/d")
        fs.unlink("/d/f")
        fs.unlink("/d")
        assert not fs.exists("/d")

    def test_rename_same_dir(self):
        fs, _ = fresh_fs()
        fs.create("/old")
        fs.write_at(fs.lookup("/old"), 0, b"data")
        fs.rename("/old", "/new")
        assert not fs.exists("/old")
        assert fs.read_at(fs.lookup("/new"), 0, 4) == b"data"

    def test_rename_across_dirs(self):
        fs, _ = fresh_fs()
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.create("/a/f")
        fs.rename("/a/f", "/b/g")
        assert fs.readdir("/a") == []
        assert fs.readdir("/b") == ["g"]

    def test_rename_to_existing_fails(self):
        fs, _ = fresh_fs()
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(Exists):
            fs.rename("/a", "/b")

    def test_unlink_frees_inode_and_blocks(self):
        fs, _ = fresh_fs()
        free_before = fs.bitmap.count_free()
        inum = fs.create("/big")
        fs.write_at(inum, 0, b"x" * (3 * BLOCK_SIZE))
        fs.unlink("/big")
        assert fs.bitmap.count_free() == free_before
        # inode slot reusable
        inum2 = fs.create("/other")
        assert inum2 == inum


class TestFileIo:
    def test_write_read(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        fs.write_at(inum, 0, b"hello world")
        assert fs.read_at(inum, 0, 100) == b"hello world"
        assert fs.read_at(inum, 6, 5) == b"world"

    def test_overwrite_middle(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        fs.write_at(inum, 0, b"0123456789")
        fs.write_at(inum, 3, b"XY")
        assert fs.read_at(inum, 0, 10) == b"012XY56789"

    def test_sparse_hole_reads_zero(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        fs.write_at(inum, 2 * BLOCK_SIZE, b"tail")
        assert fs.stat_inum(inum).size == 2 * BLOCK_SIZE + 4
        assert fs.read_at(inum, 0, 4) == b"\x00" * 4
        assert fs.read_at(inum, 2 * BLOCK_SIZE, 4) == b"tail"

    def test_block_boundary_write(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        data = bytes(range(256)) * 48  # 12 KiB: spans 3 blocks
        fs.write_at(inum, 100, data)
        assert fs.read_at(inum, 100, len(data)) == data

    def test_indirect_blocks(self):
        fs, disk = fresh_fs(sectors=300)
        inum = fs.create("/big")
        # write past the direct region (10 blocks)
        offset = 12 * BLOCK_SIZE
        fs.write_at(inum, offset, b"indirect!")
        assert fs.read_at(inum, offset, 9) == b"indirect!"

    def test_max_file_size_enforced(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        with pytest.raises(FileTooBig):
            fs.write_at(inum, MAX_FILE_SIZE, b"x")

    def test_truncate(self):
        fs, _ = fresh_fs()
        inum = fs.create("/f")
        fs.write_at(inum, 0, b"x" * (2 * BLOCK_SIZE + 10))
        free_mid = fs.bitmap.count_free()
        fs.truncate(inum, 5)
        assert fs.stat_inum(inum).size == 5
        assert fs.read_at(inum, 0, 100) == b"x" * 5
        assert fs.bitmap.count_free() > free_mid

    def test_volume_full(self):
        fs, _ = fresh_fs(sectors=24)
        inum = fs.create("/f")
        with pytest.raises(NoSpace):
            fs.write_at(inum, 0, b"x" * (200 * BLOCK_SIZE))

    def test_volume_full_is_a_short_write_not_a_leak(self):
        fs, _ = fresh_fs(sectors=24)
        free = fs.bitmap.count_free()
        inum = fs.create("/f")
        with pytest.raises(NoSpace):
            fs.write_at(inum, 100, b"x" * (200 * BLOCK_SIZE))
        # what landed is in the file, so its blocks are reachable ...
        size = fs.stat_inum(inum).size
        assert size > 10 * BLOCK_SIZE and size % BLOCK_SIZE == 0
        assert fs.read_at(inum, 100, size) == b"x" * (size - 100)
        assert fs.bitmap.count_free() == 0
        assert fsck(fs) == []
        # ... and unlinking the file gives every one of them back
        fs.unlink("/f")
        assert fs.bitmap.count_free() == free
        # a sparse write that lands nothing leaves the size alone
        inum = fs.create("/g")
        with pytest.raises(NoSpace):
            fs.write_at(fs.create("/ballast"), 0, bytes(free * BLOCK_SIZE))
        with pytest.raises(NoSpace):
            fs.write_at(inum, 3 * BLOCK_SIZE, b"tail")
        assert fs.stat_inum(inum).size == 0

    def test_whole_block_chunks_are_written_without_reading_them_back(self):
        fs, disk = fresh_fs()
        inum = fs.create("/f")
        data = bytes(range(256)) * 16 * 5 + b"tail"   # 5 blocks + 4 B
        fs.write_at(inum, 0, b"old" * 7000)            # blocks exist
        reads = disk.reads
        fs.write_at(inum, 0, data)
        # the inode, then only the partial last block is merged
        assert disk.reads - reads == 2
        assert fs.read_at(inum, 0, len(data)) == data
        assert fs.read_at(inum, len(data), 4) == (b"old" * 7000)[
            len(data):len(data) + 4]
        # unaligned: head and tail blocks are merged, the middle is not
        reads = disk.reads
        fs.write_at(inum, 10, data)
        assert disk.reads - reads == 3
        assert fs.read_at(inum, 0, 10) == data[:10]
        assert fs.read_at(inum, 10, len(data)) == data

    @given(st.integers(0, 3 * BLOCK_SIZE), st.integers(0, 3 * BLOCK_SIZE))
    @settings(max_examples=60, deadline=None)
    def test_write_at_matches_a_flat_buffer(self, offset, length):
        fs, _ = fresh_fs(sectors=64)
        inum = fs.create("/f")
        model = bytearray(b"\xaa" * (2 * BLOCK_SIZE + 17))
        fs.write_at(inum, 0, bytes(model))
        data = bytes((offset + i) % 251 for i in range(length))
        fs.write_at(inum, offset, data)
        model.extend(bytes(max(0, offset + length - len(model))))
        model[offset:offset + length] = data
        assert fs.read_at(inum, 0, 8 * BLOCK_SIZE) == bytes(model)


class TestRemount:
    def test_data_survives_remount(self):
        fs, disk = fresh_fs()
        fs.mkdir("/var")
        inum = fs.create("/var/log")
        fs.write_at(inum, 0, b"persistent data")
        # power cycle
        fs2 = FileSystem(BlockDriver(disk))
        assert fs2.readdir("/var") == ["log"]
        assert fs2.read_at(fs2.lookup("/var/log"), 0, 100) == b"persistent data"

    def test_remount_after_many_ops(self):
        fs, disk = fresh_fs()
        for i in range(20):
            fs.create(f"/f{i}")
            fs.write_at(fs.lookup(f"/f{i}"), 0, bytes([i]) * 100)
        for i in range(0, 20, 2):
            fs.unlink(f"/f{i}")
        fs2 = FileSystem(BlockDriver(disk))
        assert fs2.readdir("/") == sorted(f"f{i}" for i in range(1, 20, 2))
        for i in range(1, 20, 2):
            assert fs2.read_at(fs2.lookup(f"/f{i}"), 0, 100) == bytes([i]) * 100


class TestFdTable:
    def test_open_read_write(self):
        fs, _ = fresh_fs()
        table = FdTable(fs)
        fd = table.open("/f", O_CREAT | O_RDWR)
        assert table.write(fd, b"hello") == 5
        table.seek(fd, 0)
        assert table.read(fd, 5) == b"hello"
        assert table.tell(fd) == 5
        table.close(fd)
        with pytest.raises(BadFd):
            table.read(fd, 1)

    def test_permission_bits(self):
        fs, _ = fresh_fs()
        fs.create("/f")
        table = FdTable(fs)
        ro = table.open("/f", O_RDONLY)
        with pytest.raises(PermissionDenied):
            table.write(ro, b"x")
        wo = table.open("/f", O_WRONLY)
        with pytest.raises(PermissionDenied):
            table.read(wo, 1)

    def test_append_and_trunc(self):
        fs, _ = fresh_fs()
        table = FdTable(fs)
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.write(fd, b"0123456789")
        table.close(fd)
        fd = table.open("/f", O_RDWR | O_APPEND)
        assert table.tell(fd) == 10
        table.write(fd, b"ab")
        table.close(fd)
        fd = table.open("/f", O_RDWR | O_TRUNC)
        assert table.stat(fd).size == 0
        table.close(fd)

    def test_fd_reuse_lowest(self):
        fs, _ = fresh_fs()
        table = FdTable(fs)
        a = table.open("/a", O_CREAT)
        b = table.open("/b", O_CREAT)
        table.close(a)
        c = table.open("/c", O_CREAT)
        assert c == a
        assert table.open_fds() == sorted([b, c])
