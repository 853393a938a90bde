"""Tests for the client application contract (Section 3) and usercopy."""

import pytest

from repro.core.contract.proof import contract_vcs
from repro.core.contract.state import FileState, SysState
from repro.core.contract.syscalls import open_spec, read_spec, write_spec
from repro.core.contract.view import view
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import SimpleFrameAllocator
from repro.hw.devices.disk import Disk
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import TranslationFault
from repro.immutable import FrozenMap
from repro.nros.drivers.block import BlockDriver
from repro.nros.fs.fd import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    BadFd,
    FdTable,
    PermissionDenied,
)
from repro.nros.fs.fs import FileSystem
from repro.nros.syscall.usercopy import copy_from_user, copy_to_user
from repro.nros.vspace import VSpace
from repro.verif.vc import VCStatus

MB = 1024 * 1024


def fresh_table() -> FdTable:
    return FdTable(FileSystem.mkfs(BlockDriver(Disk(64)), num_inodes=16))


class TestSysBasics:
    """The file behaviours the contract rests on, on the kernel's own
    descriptor table as `view()` abstracts it."""

    def test_open_read_write_close(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.write(fd, b"hello")
        table.seek(fd, 0)
        assert table.read(fd, 5) == b"hello"
        assert view(table).file(fd) == FileState(b"hello", 5, True)

    def test_use_after_close_refused(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.close(fd)
        assert not view(table).has_fd(fd)
        with pytest.raises(BadFd):
            table.read(fd, 1)

    def test_read_past_eof(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.write(fd, b"abc")
        table.seek(fd, 0)
        assert table.read(fd, 10) == b"abc"
        assert table.read(fd, 10) == b""
        assert view(table).file(fd).offset == 3

    def test_sparse_write(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.seek(fd, 4)
        table.write(fd, b"xy")
        assert view(table).file(fd).contents == b"\x00\x00\x00\x00xy"

    def test_view_is_snapshot(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        before = view(table)
        table.write(fd, b"data")
        assert before.file(fd).contents == b""
        assert view(table).file(fd).contents == b"data"


class TestSpecPredicates:
    def _state(self, contents=b"0123456789", offset=0, locked=True):
        return SysState(files=FrozenMap({
            3: FileState(contents=contents, offset=offset, locked=locked)
        }))

    def test_read_spec_example_from_paper(self):
        pre = self._state(offset=2)
        post = self._state(offset=6)
        assert read_spec(pre, post, 3, 4, b"2345", 4)

    def test_read_spec_rejects_unlocked(self):
        pre = self._state(locked=False)
        post = self._state(locked=False, offset=4)
        assert not read_spec(pre, post, 3, 4, b"0123", 4)

    def test_read_spec_rejects_wrong_offset(self):
        pre = self._state(offset=0)
        post = self._state(offset=5)  # should be 4
        assert not read_spec(pre, post, 3, 4, b"0123", 4)

    def test_read_spec_rejects_wrong_data(self):
        pre = self._state(offset=0)
        post = self._state(offset=4)
        assert not read_spec(pre, post, 3, 4, b"9999", 4)

    def test_read_spec_min_semantics(self):
        pre = self._state(contents=b"abc", offset=1)
        post = self._state(contents=b"abc", offset=3)
        assert read_spec(pre, post, 3, 100, b"bc", 2)
        assert not read_spec(pre, post, 3, 100, b"bc", 3)

    def test_write_spec_frame_condition(self):
        pre = SysState(files=FrozenMap({
            0: FileState(b"aa", 0, True),
            1: FileState(b"bb", 0, True),
        }))
        # fd 0 written correctly, but fd 1 also changed: must be rejected
        post = SysState(files=FrozenMap({
            0: FileState(b"XX", 2, True),
            1: FileState(b"ZZ", 0, True),
        }))
        assert not write_spec(pre, post, 0, b"XX", 2)


class TestUserCopy:
    def _setup(self):
        memory = PhysicalMemory(8 * MB)
        vspace = VSpace(memory, SimpleFrameAllocator(memory, start=4 * MB))
        vspace.attach_core(0, 0)
        vspace.map(0x10000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
        vspace.map(0x11000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        return memory, vspace

    def test_roundtrip(self):
        memory, vspace = self._setup()
        copy_to_user(vspace, 0, 0x10010, b"abc123")
        assert copy_from_user(vspace, 0, 0x10010, 6) == b"abc123"

    def test_crosses_noncontiguous_frames(self):
        memory, vspace = self._setup()
        data = bytes(range(64)) * 8  # 512 bytes
        copy_to_user(vspace, 0, 0x10F00, data)
        assert copy_from_user(vspace, 0, 0x10F00, 512) == data
        # physically split across the two frames
        assert memory.read(0x20_0F00, 0x100) == data[:0x100]
        assert memory.read(0x10_0000, 0x100) == data[0x100:0x200]

    def test_unmapped_faults(self):
        memory, vspace = self._setup()
        with pytest.raises(TranslationFault):
            copy_from_user(vspace, 0, 0x50000, 4)

    def test_kernel_page_faults_for_user(self):
        memory, vspace = self._setup()
        vspace.map(0x20000, 0x30_0000, PageSize.SIZE_4K, Flags.kernel_rw())
        with pytest.raises(TranslationFault):
            copy_from_user(vspace, 0, 0x20000, 4)

    def test_zero_length(self):
        memory, vspace = self._setup()
        assert copy_from_user(vspace, 0, 0x10000, 0) == b""
        copy_to_user(vspace, 0, 0x10000, b"")

    def test_negative_length_rejected(self):
        memory, vspace = self._setup()
        with pytest.raises(ValueError):
            copy_from_user(vspace, 0, 0x10000, -1)


# -- must-fail mutations of the table the kernel runs ---------------------


def _read_keeps_offset(self, fd, length):
    handle = self._get(fd)
    return self.fs.read_at(handle.inum, handle.offset, length)


def _write_at_eof(self, fd, data):
    handle = self._get(fd)
    size = self.fs.stat_inum(handle.inum).size
    written = self.fs.write_at(handle.inum, size, data)
    handle.offset += written
    return written


def _highest_plus_one(self):
    return max(self._open, default=-1) + 1


class TestContractVcs:
    def test_all_contract_vcs_prove(self):
        for vc in contract_vcs():
            result = vc.discharge()
            assert result.ok, f"{vc.name}: {result.detail}"

    def test_count(self):
        assert len(contract_vcs()) == 23

    @pytest.mark.parametrize("method, mutant, caught_by", [
        # the two zero-byte reads cannot see a missing offset advance
        ("read", _read_keeps_offset,
         {"contract_read_normal", "contract_read_short_at_eof",
          "contract_read_sequential", "contract_read_spec_deterministic"}),
        ("write", _write_at_eof, {"contract_write_cases"}),
        ("_lowest_free", _highest_plus_one, {"contract_open_close_spec"}),
    ], ids=["read-keeps-offset", "write-at-eof", "fd-highest-plus-one"])
    def test_mutated_table_fails_exactly(self, monkeypatch, method, mutant,
                                         caught_by):
        """The VCs run the real `FdTable`: break it and exactly the VCs
        that exercise the broken behaviour turn FAILED."""
        monkeypatch.setattr(FdTable, method, mutant)
        verdicts = {vc.name: vc.discharge().status for vc in contract_vcs()}
        assert {n for n, s in verdicts.items() if s is not VCStatus.PROVED} \
            == caught_by
        assert all(verdicts[n] is VCStatus.FAILED for n in caught_by)


class TestRecordedFindings:
    """Where the real table and the spec disagree today.  Each assertion
    records current behaviour; step 3 of ROADMAP's "The syscall spec is
    about the kernel that runs" (extend the spec to open-by-path, access
    modes and O_APPEND) is the change that flips it."""

    def test_two_descriptors_on_one_inode_break_the_frame_condition(self):
        table = fresh_table()
        fd_a = table.open("/shared", O_CREAT | O_RDWR)
        fd_b = table.open("/shared", O_RDWR)
        pre = view(table)
        written = table.write(fd_a, b"seen by both")
        post = view(table)
        assert post.file(fd_b).contents == b"seen by both"
        assert not write_spec(pre, post, fd_a, b"seen by both", written)

    def test_open_of_a_nonempty_path_is_outside_open_spec(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.write(fd, b"already here")
        table.close(fd)
        pre = view(table)
        fd = table.open("/f", O_RDWR)
        post = view(table)
        assert post.file(fd).contents == b"already here"
        assert not open_spec(pre, post, fd)   # it describes O_CREAT of a fresh path

    def test_access_mode_is_not_in_file_state(self):
        table = fresh_table()
        table.close(table.open("/f", O_CREAT | O_RDWR))
        read_only = table.open("/f", O_RDONLY)
        read_write = table.open("/f", O_RDWR)
        state = view(table)
        assert state.file(read_only) == state.file(read_write)
        with pytest.raises(PermissionDenied):   # a refusal with no spec row
            table.write(read_only, b"x")
        assert view(table) == state

    def test_read_beyond_eof_has_no_spec_row(self):
        table = fresh_table()
        fd = table.open("/f", O_CREAT | O_RDWR)
        table.seek(fd, 1)                # past the end of an empty file
        pre = view(table)
        data = table.read(fd, 4)
        assert data == b""               # read_spec wants read_len == -1
        assert not read_spec(pre, view(table), fd, 4, data, len(data))

    def test_o_append_is_honoured_only_at_open(self):
        table = fresh_table()
        fd = table.open("/log", O_CREAT | O_RDWR)
        table.write(fd, b"XYZ")
        appender = table.open("/log", O_WRONLY | O_APPEND)
        table.write(fd, b"W")            # another descriptor grows the file
        table.write(appender, b"!")      # lands at 3, where it was opened
        assert view(table).file(fd).contents == b"XYZ!"   # POSIX: b"XYZW!"
