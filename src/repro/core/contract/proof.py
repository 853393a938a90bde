"""The `contract` verification conditions — Section 3's three obligations.

* *spec refinement*: the kernel's own descriptor table
  (:class:`~repro.nros.fs.fd.FdTable` on a freshly formatted on-disk
  filesystem) satisfies the specification predicates, checked by
  :func:`~repro.core.contract.view.checked` on `view(table)` taken
  before and after each real call, over enumerated pre-states and
  arguments — most of these VCs are rows of calls, not code;
* *marshalling*: syscall argument tuples round-trip through serialization,
  and corruption is detected rather than mis-parsed;
* *mapping*: user buffers reached through page-table translation behave as
  one contiguous buffer, including across page boundaries;
* *data-race freedom*: the ownership-token protocol rejects conflicting
  concurrent access to syscall buffers.
"""

from __future__ import annotations

from functools import partial

from repro.core.contract.syscalls import read_spec
from repro.core.contract.view import SpecViolation, checked, view
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
RW = O_CREAT | O_RDWR
#: the first field of a scripted call: is it held to its `SPECS` row?
CHECKED, UNCHECKED = True, False


def _fresh_table() -> FdTable:
    return FdTable(FileSystem.mkfs(BlockDriver(Disk(64)), num_inodes=16))


def _open_with(table: FdTable, path: str, contents: bytes, offset=0) -> int:
    fd = table.open(path, RW)
    table.write(fd, contents)
    table.seek(fd, offset)
    return fd


def _fresh_file(contents=b"hello kernel world", offset=0) -> tuple[FdTable, int]:
    table = _fresh_table()
    return table, _open_with(table, "/f", contents, offset)


def _run(runs) -> object | None:
    """A scripted VC's first counterexample, or None.  Each run starts a
    fresh table — holding `contents` open at fd 0, seeked to `offset`,
    or empty when `contents` is None — and makes its calls in order.  A
    call is ``(CHECKED | UNCHECKED, name, args, expected)``, `expected`
    being the result or the `FsError` class the call must raise."""
    for contents, offset, calls in runs:
        table = _fresh_table() if contents is None else \
            _fresh_file(contents, offset)[0]
        for spec_checked, call, args, expected in calls:
            try:
                got = checked(table, call, *args) if spec_checked else \
                    getattr(table, call)(*args)
            except SpecViolation as violation:
                return violation.args
            except FsError as error:
                got = type(error)
            if got != expected:
                return ("unexpected outcome", call, args, got, expected)
    return None


# -- spec refinement: the VCs a script cannot state ------------------------------


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


# -- marshalling obligation ------------------------------------------------------


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


def marshal_detects_truncation():
    encoded = marshal_call(3, (12345, b"data"))
    for cut in (1, len(encoded) // 2, len(encoded) - 1):
        try:
            unmarshal_call(encoded[:cut])
            return f"truncation at {cut} went undetected"
        except MarshalError:
            continue
    return None


def marshal_detects_trailing():
    encoded = marshal(42) + b"\x00"
    try:
        unmarshal(encoded)
        return "trailing bytes accepted"
    except MarshalError:
        return None


# -- mapping obligation ----------------------------------------------------------


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


# -- data-race-freedom obligation ------------------------------------------------


def race_detected():
    table = OwnershipTable()
    table.claim_unique(0x10000, 0x1000, "syscall:read(fd=3)")
    try:
        table.claim_unique(0x10800, 0x100, "thread-2:write")
        return "conflicting unique claims both succeeded"
    except OwnershipError:
        return None


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


#: Every contract VC in report order: ``(name, description, body)``, the
#: body a check function or the runs of a script (see :func:`_run`).
CONTRACT = [
    ("contract_read_normal", "read in the middle of a file",
     [(b"0123456789", 2, [(CHECKED, "read", (0, 4), b"2345")])]),
    ("contract_read_short_at_eof", "read truncates at end of file",
     [(b"0123456789", 7, [(CHECKED, "read", (0, 100), b"789")])]),
    ("contract_read_zero_buffer", "zero-length buffer reads nothing",
     [(b"0123456789", 3, [(CHECKED, "read", (0, 0), b"")])]),
    ("contract_read_at_eof", "read at end of file returns empty",
     [(b"abc", 3, [(CHECKED, "read", (0, 8), b"")])]),
    ("contract_read_requires_locked",
     "the requires clause (fd locked) is enforced", read_requires_locked),
    ("contract_read_sequential",
     "offset advances exactly by read_len each call",
     [(b"abcdefgh", 0, [(UNCHECKED, "read", (0, 3), b"abc"),
                        (UNCHECKED, "read", (0, 3), b"def"),
                        (UNCHECKED, "read", (0, 10), b"gh")])]),
    ("contract_write_cases", "write satisfies write_spec over its cases", [
        (b"", 0, [(CHECKED, "write", (0, b"hello"), 5)]),  # into an empty file
        (b"0123456789", 3, [(CHECKED, "write", (0, b"XY"), 2)]),  # mid-file
        (b"abc", 3, [(CHECKED, "write", (0, b"def"), 3)]),  # append at end
        (b"abc", 6, [(CHECKED, "write", (0, b"z"), 1)]),  # sparse, past EOF
    ]),
    ("contract_write_read_roundtrip", "data written is data read back",
     [(b"", 0, [(UNCHECKED, "write", (0, b"the quick brown fox"), 19),
                (UNCHECKED, "seek", (0, 4), 4),
                (UNCHECKED, "read", (0, 5), b"quick")])]),
    ("contract_open_close_spec",
     "open/close satisfy their specs; fds are allocated lowest-free",
     [(None, 0, [(CHECKED, "open", ("/a", RW), 0),
                 (CHECKED, "open", ("/b", RW), 1),
                 (CHECKED, "close", (0,), None),
                 (CHECKED, "open", ("/c", RW), 0)])]),  # lowest slot reused
    ("contract_seek_spec",
     "seek satisfies seek_spec and rejects negative offsets",
     [(b"0123456789", 0,
       [(CHECKED, "seek", (0, n), n) for n in (0, 5, 10, 100)]
       + [(UNCHECKED, "seek", (0, -1), FsError)])]),
    ("contract_fd_isolation", "the frame condition: other fds unchanged",
     frame_condition_isolation),
    ("contract_bad_fd_rejected", "every syscall rejects unknown descriptors",
     [(None, 0, [(UNCHECKED, "read", (7, 1), BadFd),
                 (UNCHECKED, "write", (7, b"x"), BadFd),
                 (UNCHECKED, "seek", (7, 0), BadFd),
                 (UNCHECKED, "close", (7,), BadFd)])]),
    ("contract_marshal_roundtrip",
     "syscall requests round-trip through the wire format",
     marshal_roundtrips),
    ("contract_marshal_truncation_detected",
     "corrupted requests fail loudly, never mis-parse",
     marshal_detects_truncation),
    ("contract_marshal_trailing_detected", "trailing garbage is rejected",
     marshal_detects_trailing),
    ("contract_usercopy_roundtrip",
     "kernel sees the user buffer at its translated location",
     usercopy_roundtrip),
    ("contract_usercopy_page_crossing",
     "buffers spanning non-contiguous frames are reassembled correctly",
     usercopy_page_crossing),
    ("contract_usercopy_faults",
     "unmapped / read-only user buffers fault instead of corrupting",
     usercopy_faults_propagate),
    ("contract_race_detected",
     "a second writer to an in-syscall buffer is rejected", race_detected),
    ("contract_disjoint_buffers_ok",
     "disjoint unique claims and overlapping shared claims coexist",
     disjoint_buffers_race_free),
    ("contract_read_spec_deterministic",
     "read_spec admits exactly the implementation's result",
     read_spec_is_deterministic),
    ("contract_write_zero_bytes",
     "zero-length writes change nothing but satisfy the spec",
     [(b"abcdef", 2, [(CHECKED, "write", (0, b""), 0)])]),
    ("contract_tokens_quiescent",
     "syscall exit asserts all buffer tokens released",
     tokens_quiescent_after_syscall),
]


def contract_vcs() -> list[VC]:
    return [VC(name, "contract", body if callable(body) else partial(_run, body),
               description=description)
            for name, description, body in CONTRACT]
