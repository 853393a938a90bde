"""Hypothesis stateful (model-based) testing.

Three rule-based state machines drive long random operation sequences and
compare the real implementations against functional models after every
step — the page table against the abstract map (a randomized extension of
the refinement proof), the filesystem against an in-memory dict model, and
the descriptor table against the syscall specification predicates.
"""

from contextlib import suppress

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import (
    AlreadyMapped,
    NotMapped,
    PageTable,
    SimpleFrameAllocator,
)
from repro.core.contract.view import checked, view
from repro.core.refine.interp import interpret
from repro.core.spec.highlevel import AbstractState, map_enabled, unmap_enabled
from repro.hw.devices.disk import Disk
from repro.hw.mem import PhysicalMemory
from repro.nros.drivers.block import BlockDriver
from repro.nros.fs.fd import O_CREAT, O_RDWR, FdTable
from repro.nros.fs.fs import Exists, FileSystem, FsError, NotFound

MB = 1024 * 1024

VADDRS = [0x1000, 0x2000, 0x40_0000, 0x60_0000, 1 << 30, 1 << 39]
FRAMES = [0x10_0000, 0x20_0000, 0x40_0000, 0x4000_0000]
SIZES = [PageSize.SIZE_4K, PageSize.SIZE_2M, PageSize.SIZE_1G]


class PageTableModelMachine(RuleBasedStateMachine):
    """The page table refines the abstract map under random op streams."""

    def __init__(self):
        super().__init__()
        self.memory = PhysicalMemory(16 * MB)
        self.allocator = SimpleFrameAllocator(self.memory, start=8 * MB)
        self.pt = PageTable(self.memory, self.allocator)
        self.spec = AbstractState()

    @rule(
        vaddr=st.sampled_from(VADDRS),
        frame=st.sampled_from(FRAMES),
        size=st.sampled_from(SIZES),
        writable=st.booleans(),
    )
    def map_page(self, vaddr, frame, size, writable):
        vaddr -= vaddr % int(size)
        frame -= frame % int(size)
        flags = Flags(writable=writable, user=True)
        args = (vaddr, frame, size, flags)
        enabled = map_enabled(self.spec, args)
        try:
            self.pt.map_frame(vaddr, frame, size, flags)
            assert enabled, f"impl mapped where spec disabled: {args}"
            self.spec = self.spec.map_page(*args)
        except AlreadyMapped:
            assert not enabled, f"impl rejected where spec enabled: {args}"

    @rule(vaddr=st.sampled_from(VADDRS), offset=st.sampled_from([0, 8, 0x800]))
    def unmap_page(self, vaddr, offset):
        probe = vaddr + offset
        enabled = unmap_enabled(self.spec, (probe,))
        try:
            removed = self.pt.unmap(probe)
            assert enabled, f"impl unmapped where spec disabled: {probe:#x}"
            base, pte = self.spec.lookup(probe)
            assert (removed.vaddr, removed.paddr) == (base, pte.frame)
            self.spec = self.spec.unmap_page(probe)
        except NotMapped:
            assert not enabled

    @rule(vaddr=st.sampled_from(VADDRS), offset=st.sampled_from([0, 16]))
    def resolve_agrees(self, vaddr, offset):
        probe = vaddr + offset
        resolved = self.pt.resolve(probe)
        hit = self.spec.lookup(probe)
        if hit is None:
            assert resolved is None
        else:
            base, pte = hit
            assert resolved is not None
            assert (resolved.vaddr, resolved.paddr, resolved.size) == (
                base, pte.frame, pte.size)

    @invariant()
    def interpretation_matches_spec(self):
        assert interpret(self.memory, self.pt.root_paddr).mappings == \
            self.spec.mappings

    @invariant()
    def allocator_balanced(self):
        # table frames allocated == frames the tree actually uses
        assert self.allocator.allocated == len(self.pt.table_frames())


TestPageTableModel = PageTableModelMachine.TestCase
TestPageTableModel.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


NAMES = ["a", "b", "c", "dir1/x", "dir1/y", "dir2/z"]


class FsModelMachine(RuleBasedStateMachine):
    """The filesystem agrees with a dict model under random namespaces
    and I/O."""

    def __init__(self):
        super().__init__()
        disk = Disk(512)
        self.fs = FileSystem.mkfs(BlockDriver(disk))
        self.fs.mkdir("/dir1")
        self.fs.mkdir("/dir2")
        self.model: dict[str, bytes] = {}

    def _path(self, name):
        return "/" + name

    @rule(name=st.sampled_from(NAMES))
    def create(self, name):
        try:
            self.fs.create(self._path(name))
            assert name not in self.model
            self.model[name] = b""
        except Exists:
            assert name in self.model

    @rule(name=st.sampled_from(NAMES),
          offset=st.integers(0, 5000),
          data=st.binary(min_size=1, max_size=6000))
    def write(self, name, offset, data):
        if name not in self.model:
            return
        inum = self.fs.lookup(self._path(name))
        self.fs.write_at(inum, offset, data)
        current = self.model[name]
        if offset > len(current):
            current = current + b"\x00" * (offset - len(current))
        self.model[name] = current[:offset] + data + \
            current[offset + len(data):]

    @rule(name=st.sampled_from(NAMES))
    def read_full(self, name):
        if name not in self.model:
            try:
                self.fs.lookup(self._path(name))
                raise AssertionError(f"{name} exists in fs but not model")
            except FsError:
                return
        inum = self.fs.lookup(self._path(name))
        data = self.fs.read_at(inum, 0, 100_000)
        assert data == self.model[name], name

    @rule(name=st.sampled_from(NAMES))
    def unlink(self, name):
        try:
            self.fs.unlink(self._path(name))
            assert name in self.model
            del self.model[name]
        except NotFound:
            assert name not in self.model

    @rule(name=st.sampled_from(NAMES), size=st.integers(0, 3000))
    def truncate(self, name, size):
        if name not in self.model:
            return
        inum = self.fs.lookup(self._path(name))
        current = self.model[name]
        if size > len(current):
            return  # truncate cannot extend
        self.fs.truncate(inum, size)
        self.model[name] = current[:size]

    @invariant()
    def listings_agree(self):
        expected_root = sorted(
            {"dir1", "dir2"} | {n for n in self.model if "/" not in n}
        )
        assert self.fs.readdir("/") == expected_root
        for directory in ("dir1", "dir2"):
            expected = sorted(
                n.split("/", 1)[1] for n in self.model
                if n.startswith(directory + "/")
            )
            assert self.fs.readdir("/" + directory) == expected

    @invariant()
    def sizes_agree(self):
        for name, data in self.model.items():
            stat = self.fs.stat(self._path(name))
            assert stat.size == len(data), name

    @invariant()
    def volume_fsck_clean(self):
        from repro.nros.fs.fsck import fsck

        assert fsck(self.fs) == []


TestFsModel = FsModelMachine.TestCase
TestFsModel.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)


PATHS = ["/p0", "/p1", "/p2"]
#: three paths, so fd 3 is never open: calls on it must raise
FDS = st.integers(0, 3)


class FdTableContractMachine(RuleBasedStateMachine):
    """Every `FdTable` call goes through `checked`: one that returns
    satisfies its `SPECS` row on (`view` before, `view` after); one that
    raises leaves `view` unchanged.  Each path is opened while no descriptor
    holds it and its file is still empty — `open_spec` describes
    `O_CREAT` of a fresh path, and two descriptors on one inode break
    `write_spec`'s frame condition; a descriptor seeked past end of file
    is not read, because `read_spec` has no row for it
    (tests/test_contract.py records all three)."""

    def __init__(self):
        super().__init__()
        self.table = FdTable(
            FileSystem.mkfs(BlockDriver(Disk(64)), num_inodes=16))
        self.open_paths: dict[int, str] = {}

    @rule(path=st.sampled_from(PATHS))
    def open(self, path):
        fs = self.table.fs
        if path in self.open_paths.values() or \
                (fs.exists(path) and fs.stat(path).size):
            return
        fd = checked(self.table, "open", path, O_CREAT | O_RDWR)
        self.open_paths[fd] = path

    @rule(fd=FDS, length=st.integers(-2, 6000))
    def read(self, fd, length):
        state = view(self.table)
        if state.has_fd(fd) and state.file(fd).offset > state.file(fd).size:
            return
        with suppress(FsError):
            checked(self.table, "read", fd, length)

    @rule(fd=FDS, data=st.binary(max_size=5000))
    def write(self, fd, data):
        with suppress(FsError):
            checked(self.table, "write", fd, data)

    @rule(fd=FDS, offset=st.integers(-1, 9000))
    def seek(self, fd, offset):
        with suppress(FsError):
            checked(self.table, "seek", fd, offset)

    @rule(fd=FDS)
    def close(self, fd):
        with suppress(FsError):
            checked(self.table, "close", fd)
        self.open_paths.pop(fd, None)

    @invariant()
    def view_lists_exactly_the_open_descriptors(self):
        assert sorted(view(self.table).files.keys()) == \
            sorted(self.open_paths) == self.table.open_fds()


TestFdTableContract = FdTableContractMachine.TestCase
TestFdTableContract.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
