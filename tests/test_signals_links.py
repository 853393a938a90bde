"""Tests for process termination (kill) and filesystem hard links."""

import pytest

from repro.hw.devices.disk import Disk
from repro.nros.drivers.block import BlockDriver
from repro.nros.fs.fs import Exists, FileSystem, IsADirectory, NotFound
from repro.nros.kernel import Kernel
from repro.nros.syscall.abi import SyscallError, sys


def fresh_fs():
    return FileSystem.mkfs(BlockDriver(Disk(256)))


class TestHardLinks:
    def test_link_shares_data(self):
        fs = fresh_fs()
        inum = fs.create("/orig")
        fs.write_at(inum, 0, b"shared bytes")
        fs.link("/orig", "/alias")
        assert fs.lookup("/alias") == inum
        assert fs.read_at(fs.lookup("/alias"), 0, 100) == b"shared bytes"
        assert fs.stat("/orig").nlink == 2

    def test_write_through_one_name_visible_via_other(self):
        fs = fresh_fs()
        fs.create("/a")
        fs.link("/a", "/b")
        fs.write_at(fs.lookup("/b"), 0, b"via b")
        assert fs.read_at(fs.lookup("/a"), 0, 10) == b"via b"

    def test_unlink_one_name_keeps_data(self):
        fs = fresh_fs()
        inum = fs.create("/a")
        fs.write_at(inum, 0, b"survives")
        fs.link("/a", "/b")
        fs.unlink("/a")
        assert not fs.exists("/a")
        assert fs.read_at(fs.lookup("/b"), 0, 100) == b"survives"
        assert fs.stat("/b").nlink == 1

    def test_last_unlink_frees(self):
        fs = fresh_fs()
        free_before = fs.bitmap.count_free()
        inum = fs.create("/a")
        fs.write_at(inum, 0, b"x" * 5000)
        fs.link("/a", "/b")
        fs.unlink("/a")
        fs.unlink("/b")
        assert fs.bitmap.count_free() == free_before
        # inode slot reusable
        assert fs.create("/c") == inum

    def test_cannot_link_directory(self):
        fs = fresh_fs()
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.link("/d", "/d2")

    def test_link_to_existing_name(self):
        fs = fresh_fs()
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(Exists):
            fs.link("/a", "/b")

    def test_link_missing_source(self):
        fs = fresh_fs()
        with pytest.raises(NotFound):
            fs.link("/ghost", "/x")

    def test_links_survive_remount(self):
        disk = Disk(256)
        fs = FileSystem.mkfs(BlockDriver(disk))
        fs.create("/a")
        fs.write_at(fs.lookup("/a"), 0, b"persisted")
        fs.link("/a", "/b")
        fs2 = FileSystem(BlockDriver(disk))
        assert fs2.stat("/a").nlink == 2
        assert fs2.lookup("/a") == fs2.lookup("/b")

    def test_link_syscall(self):
        results = {}

        def prog():
            from repro.nros.fs.fd import O_CREAT, O_RDWR
            fd = yield sys("open", "/file", O_CREAT | O_RDWR)
            yield sys("write", fd, b"data here")
            yield sys("close", fd)
            yield sys("link", "/file", "/hardlink")
            fd = yield sys("open", "/hardlink", O_RDWR)
            results["data"] = yield sys("read", fd, 100)
            yield sys("truncate", "/hardlink", 4)
            results["stat"] = yield sys("stat", "/file")

        kernel = Kernel()
        kernel.register_program("p", prog)
        kernel.spawn("p")
        kernel.run()
        assert results["data"] == b"data here"
        assert results["stat"][2] == 4  # truncate visible through both names


class TestSignals:
    def test_sigkill_still_kills(self):
        def victim():
            while True:
                yield sys("sched_yield")

        def killer(pid):
            yield sys("kill", pid)

        kernel = Kernel()
        kernel.register_program("victim", victim)
        kernel.register_program("killer", killer)
        vpid = kernel.spawn("victim")
        kernel.spawn("killer", (vpid,))
        kernel.run()
        assert kernel.processes[vpid].exit_code == 137

    def test_signal_dead_process(self):
        errors = []

        def prog():
            try:
                yield sys("kill", 999)
            except SyscallError as exc:
                errors.append(exc.errno)

        from repro.nros.syscall.abi import ESRCH
        kernel = Kernel()
        kernel.register_program("p", prog)
        kernel.spawn("p")
        kernel.run()
        assert errors == [ESRCH]
