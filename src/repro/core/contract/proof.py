"""The `contract` verification conditions — Section 3's three obligations.

* *spec refinement*: the kernel's own descriptor table
  (:class:`~repro.nros.fs.fd.FdTable` on a freshly formatted on-disk
  filesystem) satisfies the specification predicates, checked on
  `view(table)` taken before and after each real call, over enumerated
  pre-states and arguments;
* *marshalling*: syscall argument tuples round-trip through serialization,
  and corruption is detected rather than mis-parsed;
* *mapping*: user buffers reached through page-table translation behave as
  one contiguous buffer, including across page boundaries;
* *data-race freedom*: the ownership-token protocol rejects conflicting
  concurrent access to syscall buffers.
"""

from __future__ import annotations

from repro.core.contract.syscalls import (
    close_spec,
    open_spec,
    read_spec,
    seek_spec,
    write_spec,
)
from repro.core.contract.view import view
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import SimpleFrameAllocator
from repro.hw.devices.disk import Disk
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import TranslationFault
from repro.nros.drivers.block import BlockDriver
from repro.nros.fs.fd import O_CREAT, O_RDWR, BadFd, FdTable
from repro.nros.fs.fs import FileSystem, FsError
from repro.nros.syscall.marshal import (
    MarshalError,
    marshal,
    marshal_call,
    unmarshal,
    unmarshal_call,
)
from repro.nros.syscall.usercopy import copy_from_user, copy_to_user
from repro.nros.vspace import VSpace
from repro.verif.linear import OwnershipError, OwnershipTable
from repro.verif.vc import VC

MB = 1024 * 1024


def _fresh_table() -> FdTable:
    return FdTable(FileSystem.mkfs(BlockDriver(Disk(64)), num_inodes=16))


def _open_with(table: FdTable, path: str, contents: bytes, offset=0) -> int:
    fd = table.open(path, O_CREAT | O_RDWR)
    table.write(fd, contents)
    table.seek(fd, offset)
    return fd


def _fresh_file(contents=b"hello kernel world", offset=0) -> tuple[FdTable, int]:
    table = _fresh_table()
    return table, _open_with(table, "/f", contents, offset)


# -- spec refinement VCs -----------------------------------------------------


def _read_case_vc(name, description, contents, offset, buffer_len) -> VC:
    def check():
        table, fd = _fresh_file(contents, offset)
        pre = view(table)
        data = table.read(fd, buffer_len)
        post = view(table)
        if not read_spec(pre, post, fd, buffer_len, data, len(data)):
            return ("read_spec violated", contents, offset, buffer_len, data)
        expected_len = min(buffer_len, len(contents) - offset)
        if len(data) != expected_len:
            return ("wrong read length", len(data), expected_len)
        return None

    return VC(name=name, category="contract", check=check,
              description=description)


def contract_vcs() -> list[VC]:
    vcs: list[VC] = []

    vcs.append(_read_case_vc(
        "contract_read_normal", "read in the middle of a file",
        b"0123456789", offset=2, buffer_len=4,
    ))
    vcs.append(_read_case_vc(
        "contract_read_short_at_eof", "read truncates at end of file",
        b"0123456789", offset=7, buffer_len=100,
    ))
    vcs.append(_read_case_vc(
        "contract_read_zero_buffer", "zero-length buffer reads nothing",
        b"0123456789", offset=3, buffer_len=0,
    ))
    vcs.append(_read_case_vc(
        "contract_read_at_eof", "read at end of file returns empty",
        b"abc", offset=3, buffer_len=8,
    ))

    def read_requires_locked():
        table, fd = _fresh_file()
        pre = view(table)
        data = table.read(fd, 4)
        unlocked = pre.with_file(fd, pre.file(fd).with_locked(False))
        if read_spec(unlocked, view(table), fd, 4, data, len(data)):
            return "read_spec accepted a read through an unlocked fd"
        try:
            FdTable(table.fs).read(fd, 4)   # a second process, same fs
            return "another process's table honoured the descriptor"
        except BadFd:
            return None

    vcs.append(VC("contract_read_requires_locked", "contract",
                  read_requires_locked,
                  description="the requires clause (fd locked) is enforced"))

    def sequential_reads_advance():
        table, fd = _fresh_file(b"abcdefgh")
        first = table.read(fd, 3)
        second = table.read(fd, 3)
        third = table.read(fd, 10)
        if (first, second, third) != (b"abc", b"def", b"gh"):
            return ("sequential reads wrong", first, second, third)
        return None

    vcs.append(VC("contract_read_sequential", "contract",
                  sequential_reads_advance,
                  description="offset advances exactly by read_len each call"))

    def write_cases():
        cases = [
            (b"", 0, b"hello"),          # write into empty file
            (b"0123456789", 3, b"XY"),   # overwrite in the middle
            (b"abc", 3, b"def"),         # append at end
            (b"abc", 6, b"z"),           # sparse write past EOF
        ]
        for contents, offset, data in cases:
            table, fd = _fresh_file(contents, offset)
            pre = view(table)
            written = table.write(fd, data)
            if not write_spec(pre, view(table), fd, data, written):
                return ("write_spec violated", contents, offset, data)
        return None

    vcs.append(VC("contract_write_cases", "contract", write_cases,
                  description="write satisfies write_spec over its cases"))

    def write_then_read_roundtrip():
        table, fd = _fresh_file(b"")
        table.write(fd, b"the quick brown fox")
        table.seek(fd, 4)
        if table.read(fd, 5) != b"quick":
            return "write/seek/read roundtrip failed"
        return None

    vcs.append(VC("contract_write_read_roundtrip", "contract",
                  write_then_read_roundtrip,
                  description="data written is data read back"))

    def open_close_spec_holds():
        table = _fresh_table()
        pre = view(table)
        fd0 = table.open("/a", O_CREAT | O_RDWR)
        if not open_spec(pre, view(table), fd0):
            return "open_spec violated for first fd"
        pre = view(table)
        fd1 = table.open("/b", O_CREAT | O_RDWR)
        if not open_spec(pre, view(table), fd1) or fd1 == fd0:
            return "open_spec violated for second fd"
        pre = view(table)
        table.close(fd0)
        if not close_spec(pre, view(table), fd0):
            return "close_spec violated"
        pre = view(table)
        fd2 = table.open("/c", O_CREAT | O_RDWR)
        if fd2 != fd0:  # lowest free slot is reused
            return ("fd not reused", fd2, fd0)
        if not open_spec(pre, view(table), fd2):
            return "open_spec violated on reuse"
        return None

    vcs.append(VC("contract_open_close_spec", "contract",
                  open_close_spec_holds,
                  description="open/close satisfy their specs; fds are "
                              "allocated lowest-free"))

    def seek_spec_holds():
        table, fd = _fresh_file(b"0123456789")
        for offset in (0, 5, 10, 100):
            pre = view(table)
            table.seek(fd, offset)
            if not seek_spec(pre, view(table), fd, offset):
                return ("seek_spec violated", offset)
        try:
            table.seek(fd, -1)
            return "negative seek accepted"
        except FsError:
            return None

    vcs.append(VC("contract_seek_spec", "contract", seek_spec_holds,
                  description="seek satisfies seek_spec and rejects "
                              "negative offsets"))

    def frame_condition_isolation():
        table = _fresh_table()
        fd_a = _open_with(table, "/a", b"aaaa")
        fd_b = _open_with(table, "/b", b"bbbb")
        before_b = view(table).file(fd_b)
        table.read(fd_a, 2)
        table.write(fd_a, b"XX")
        table.seek(fd_a, 0)
        if view(table).file(fd_b) != before_b:
            return "operations on fd A disturbed fd B"
        return None

    vcs.append(VC("contract_fd_isolation", "contract",
                  frame_condition_isolation,
                  description="the frame condition: other fds unchanged"))

    def bad_fd_rejected():
        table = _fresh_table()
        for call in (lambda: table.read(7, 1), lambda: table.write(7, b"x"),
                     lambda: table.seek(7, 0), lambda: table.close(7)):
            try:
                call()
                return "operation on a bad fd succeeded"
            except BadFd:
                continue
        return None

    vcs.append(VC("contract_bad_fd_rejected", "contract", bad_fd_rejected,
                  description="every syscall rejects unknown descriptors"))

    # -- marshalling obligation ------------------------------------------------

    def marshal_roundtrips():
        samples = [
            (3, (5, 0, 2**64 - 1)),
            (7, (b"payload bytes", "path/to/file", True, False)),
            (1, ((1, (2, (3,))), None, -42)),
            (9, ()),
        ]
        for number, args in samples:
            encoded = marshal_call(number, args)
            got_number, got_args = unmarshal_call(encoded)
            if (got_number, got_args) != (number, args):
                return ("roundtrip mismatch", number, args,
                        got_number, got_args)
        return None

    vcs.append(VC("contract_marshal_roundtrip", "contract",
                  marshal_roundtrips,
                  description="syscall requests round-trip through the wire "
                              "format"))

    def marshal_detects_truncation():
        encoded = marshal_call(3, (12345, b"data"))
        for cut in (1, len(encoded) // 2, len(encoded) - 1):
            try:
                unmarshal_call(encoded[:cut])
                return f"truncation at {cut} went undetected"
            except MarshalError:
                continue
        return None

    vcs.append(VC("contract_marshal_truncation_detected", "contract",
                  marshal_detects_truncation,
                  description="corrupted requests fail loudly, never "
                              "mis-parse"))

    def marshal_detects_trailing():
        encoded = marshal(42) + b"\x00"
        try:
            unmarshal(encoded)
            return "trailing bytes accepted"
        except MarshalError:
            return None

    vcs.append(VC("contract_marshal_trailing_detected", "contract",
                  marshal_detects_trailing,
                  description="trailing garbage is rejected"))

    # -- mapping obligation -------------------------------------------------------

    def _user_setup():
        """An address space as the kernel builds one, reached through
        the door the kernel uses (core 0)."""
        memory = PhysicalMemory(8 * MB)
        vspace = VSpace(memory, SimpleFrameAllocator(memory, start=4 * MB))
        vspace.attach_core(0, 0)
        # two contiguous user pages backed by *non*-contiguous frames
        vspace.map(0x10000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
        vspace.map(0x11000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        return memory, vspace

    def usercopy_roundtrip():
        _memory, vspace = _user_setup()
        data = bytes(range(256)) * 4
        copy_to_user(vspace, 0, 0x10100, data)
        back = copy_from_user(vspace, 0, 0x10100, len(data))
        if back != data:
            return "usercopy roundtrip mismatch"
        return None

    vcs.append(VC("contract_usercopy_roundtrip", "contract",
                  usercopy_roundtrip,
                  description="kernel sees the user buffer at its translated "
                              "location"))

    def usercopy_page_crossing():
        memory, vspace = _user_setup()
        data = b"Z" * 0x200
        copy_to_user(vspace, 0, 0x10F80, data)  # crosses
        if memory.read(0x20_0F80, 0x80) != b"Z" * 0x80:
            return "first page got wrong bytes"
        if memory.read(0x10_0000, 0x180) != b"Z" * 0x180:
            return "second page got wrong bytes"
        back = copy_from_user(vspace, 0, 0x10F80, 0x200)
        if back != data:
            return "page-crossing readback mismatch"
        return None

    vcs.append(VC("contract_usercopy_page_crossing", "contract",
                  usercopy_page_crossing,
                  description="buffers spanning non-contiguous frames are "
                              "reassembled correctly"))

    def usercopy_faults_propagate():
        _memory, vspace = _user_setup()
        try:
            copy_from_user(vspace, 0, 0x13000, 8)
            return "read of unmapped user buffer succeeded"
        except TranslationFault:
            pass
        vspace.map(0x14000, 0x30_0000, PageSize.SIZE_4K,
                   Flags(writable=False, user=True))
        try:
            copy_to_user(vspace, 0, 0x14000, b"x")
            return "write to read-only user buffer succeeded"
        except TranslationFault:
            return None

    vcs.append(VC("contract_usercopy_faults", "contract",
                  usercopy_faults_propagate,
                  description="unmapped / read-only user buffers fault "
                              "instead of corrupting"))

    # -- data-race-freedom obligation ---------------------------------------------

    def race_detected():
        table = OwnershipTable()
        table.claim_unique(0x10000, 0x1000, "syscall:read(fd=3)")
        try:
            table.claim_unique(0x10800, 0x100, "thread-2:write")
            return "conflicting unique claims both succeeded"
        except OwnershipError:
            return None

    vcs.append(VC("contract_race_detected", "contract", race_detected,
                  description="a second writer to an in-syscall buffer is "
                              "rejected"))

    def disjoint_buffers_race_free():
        table = OwnershipTable()
        t1 = table.claim_unique(0x10000, 0x1000, "syscall:read")
        t2 = table.claim_unique(0x11000, 0x1000, "syscall:write")
        shared = table.claim_shared(0x20000, 0x100, "t3")
        table.claim_shared(0x20000, 0x100, "t4")
        table.release(t1)
        table.release(t2)
        table.release(shared)
        return None

    vcs.append(VC("contract_disjoint_buffers_ok", "contract",
                  disjoint_buffers_race_free,
                  description="disjoint unique claims and overlapping "
                              "shared claims coexist"))

    def read_spec_is_deterministic():
        """read_spec pins down read_len and the returned bytes uniquely:
        for a given pre-state and buffer length, exactly one (data,
        read_len) pair satisfies the relation."""
        table, fd = _fresh_file(b"0123456789", offset=4)
        pre = view(table)
        data = table.read(fd, 3)
        post = view(table)
        # the witnessed pair satisfies the spec...
        if not read_spec(pre, post, fd, 3, data, len(data)):
            return "witness rejected"
        # ...and perturbed results must not
        wrong = [
            (data, len(data) + 1),
            (data[:-1], len(data)),
            (b"XYZ", len(data)),
        ]
        for bad_data, bad_len in wrong:
            if read_spec(pre, post, fd, 3, bad_data, bad_len):
                return ("spec accepted a wrong result", bad_data, bad_len)
        return None

    vcs.append(VC("contract_read_spec_deterministic", "contract",
                  read_spec_is_deterministic,
                  description="read_spec admits exactly the implementation's "
                              "result"))

    def write_zero_bytes_is_noop():
        table, fd = _fresh_file(b"abcdef", offset=2)
        pre = view(table)
        written = table.write(fd, b"")
        post = view(table)
        if written != 0:
            return f"wrote {written} bytes for an empty buffer"
        if not write_spec(pre, post, fd, b"", 0):
            return "write_spec violated for empty write"
        if post.file(fd).contents != pre.file(fd).contents:
            return "empty write changed contents"
        return None

    vcs.append(VC("contract_write_zero_bytes", "contract",
                  write_zero_bytes_is_noop,
                  description="zero-length writes change nothing but "
                              "satisfy the spec"))

    def tokens_quiescent_after_syscall():
        table = OwnershipTable()
        token = table.claim_unique(0x10000, 0x40, "syscall:read")
        table.release(token)
        table.assert_quiescent()
        leaked = table.claim_shared(0x0, 0x10, "leaker")
        del leaked
        try:
            table.assert_quiescent()
            return "leaked token went undetected"
        except OwnershipError:
            return None

    vcs.append(VC("contract_tokens_quiescent", "contract",
                  tokens_quiescent_after_syscall,
                  description="syscall exit asserts all buffer tokens "
                              "released"))

    return vcs
