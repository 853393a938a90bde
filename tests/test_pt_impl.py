"""Page-table implementation tests: map/unmap/resolve, GC, rollback."""

from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pt import defs
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import (
    AlreadyMapped,
    BadRequest,
    NotMapped,
    OutOfFrames,
    PageTable,
    SimpleFrameAllocator,
)
from repro.core.refine.proof import TREE_INVARIANTS
from repro.hw.mem import PhysicalMemory
from repro.nros.pmem import OutOfMemory

MB = 1024 * 1024


def make_pt(mem_size=8 * MB):
    mem = PhysicalMemory(mem_size)
    alloc = SimpleFrameAllocator(mem)
    return PageTable(mem, alloc), alloc


class TestMapResolve:
    def test_map_then_resolve_4k(self):
        pt, _ = make_pt()
        pt.map_frame(0x40_0000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        m = pt.resolve(0x40_0000)
        assert m is not None
        assert m.paddr == 0x10_0000
        assert m.size is PageSize.SIZE_4K
        assert m.flags.writable and m.flags.user

    def test_resolve_interior_address(self):
        pt, _ = make_pt()
        pt.map_frame(0x40_0000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        m = pt.resolve(0x40_0FF8)
        assert m is not None and m.vaddr == 0x40_0000

    def test_resolve_unmapped(self):
        pt, _ = make_pt()
        assert pt.resolve(0x1234_5000) is None

    def test_map_2m(self):
        pt, _ = make_pt()
        pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags.kernel_rw())
        m = pt.resolve(0x20_0000 + 0x12345 // 8 * 8)
        assert m is not None
        assert m.size is PageSize.SIZE_2M
        assert m.paddr == 0x40_0000

    def test_map_1g(self):
        pt, _ = make_pt(16 * MB)
        one_g = 1 << 30
        pt.map_frame(one_g, 0, PageSize.SIZE_1G, Flags.user_rx())
        m = pt.resolve(one_g + 12345 * 8)
        assert m is not None
        assert m.size is PageSize.SIZE_1G

    def test_map_misaligned_vaddr(self):
        pt, _ = make_pt()
        with pytest.raises(BadRequest):
            pt.map_frame(0x1234, 0x10_0000, PageSize.SIZE_4K, Flags())

    def test_map_misaligned_frame(self):
        pt, _ = make_pt()
        with pytest.raises(BadRequest):
            pt.map_frame(0x1000, 0x10_0800, PageSize.SIZE_4K, Flags())

    def test_map_non_canonical(self):
        pt, _ = make_pt()
        with pytest.raises(BadRequest):
            pt.map_frame(1 << 48, 0x10_0000, PageSize.SIZE_4K, Flags())

    def test_double_map_rejected(self):
        pt, _ = make_pt()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        with pytest.raises(AlreadyMapped):
            pt.map_frame(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags())

    def test_small_under_huge_rejected(self):
        pt, _ = make_pt()
        pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags())
        with pytest.raises(AlreadyMapped):
            pt.map_frame(0x20_1000, 0x10_0000, PageSize.SIZE_4K, Flags())

    def test_huge_over_small_rejected(self):
        pt, _ = make_pt()
        pt.map_frame(0x20_1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        with pytest.raises(AlreadyMapped):
            pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags())

    def test_adjacent_pages_ok(self):
        pt, _ = make_pt()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        pt.map_frame(0x2000, 0x10_1000, PageSize.SIZE_4K, Flags())
        assert pt.resolve(0x1000).paddr == 0x10_0000
        assert pt.resolve(0x2000).paddr == 0x10_1000


class TestUnmap:
    def test_unmap_returns_mapping(self):
        pt, _ = make_pt()
        pt.map_frame(0x3000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        removed = pt.unmap(0x3000)
        assert removed.paddr == 0x10_0000
        assert pt.resolve(0x3000) is None

    def test_unmap_by_interior_address(self):
        pt, _ = make_pt()
        pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags())
        removed = pt.unmap(0x20_0000 + 0x1000)
        assert removed.vaddr == 0x20_0000
        assert removed.size is PageSize.SIZE_2M

    def test_unmap_unmapped_raises(self):
        pt, _ = make_pt()
        with pytest.raises(NotMapped):
            pt.unmap(0x5000)

    def test_unmap_frees_intermediate_tables(self):
        pt, alloc = make_pt()
        baseline = alloc.allocated
        pt.map_frame(0x4000_0000_0, 0x10_0000, PageSize.SIZE_4K, Flags())
        assert alloc.allocated == baseline + 3  # PDPT, PD, PT created
        pt.unmap(0x4000_0000_0)
        assert alloc.allocated == baseline

    def test_partial_gc_keeps_shared_tables(self):
        pt, alloc = make_pt()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        pt.map_frame(0x2000, 0x10_1000, PageSize.SIZE_4K, Flags())
        used = alloc.allocated
        pt.unmap(0x1000)
        # shared PDPT/PD/PT still needed by 0x2000
        assert alloc.allocated == used
        assert pt.resolve(0x2000) is not None

    def test_remap_after_unmap(self):
        pt, _ = make_pt()
        pt.map_frame(0x3000, 0x10_0000, PageSize.SIZE_4K, Flags())
        pt.unmap(0x3000)
        pt.map_frame(0x3000, 0x20_0000, PageSize.SIZE_4K, Flags())
        assert pt.resolve(0x3000).paddr == 0x20_0000


class TestRollbackAndDestroy:
    def test_failed_map_leaves_tree_unchanged(self):
        pt, alloc = make_pt()
        pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags())
        used = alloc.allocated
        mappings_before = pt.mappings()
        with pytest.raises(AlreadyMapped):
            # new PDPT path gets created then must be rolled back:
            # target address shares PML4 slot but needs new tables, and
            # conflicts at the PD level via the huge page
            pt.map_frame(0x20_1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        assert alloc.allocated == used
        assert pt.mappings() == mappings_before

    def test_oom_rolls_back(self):
        mem = PhysicalMemory(5 * defs.PAGE_SIZE)
        alloc = SimpleFrameAllocator(mem)
        pt = PageTable(mem, alloc)  # uses frame 0
        # Only 4 frames left; a fresh 4K map needs 3 tables. Exhaust with
        # one mapping, then fail on the second.
        pt.map_frame(0x0, 0x1000, PageSize.SIZE_4K, Flags())
        used = alloc.allocated
        with pytest.raises(OutOfFrames):
            pt.map_frame(1 << 39, 0x1000, PageSize.SIZE_4K, Flags())
        assert alloc.allocated == used

    @pytest.mark.parametrize("exc", [OutOfFrames, OutOfMemory])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kth_table_allocation_failure_rolls_back(self, k, exc):
        """Whatever the allocator raises — the kernel's buddy allocator
        raises OutOfMemory, not OutOfFrames — a map whose k-th table
        allocation fails leaves memory and allocator untouched."""
        pt, alloc = make_pt(64 * defs.PAGE_SIZE)
        mem, real, calls = pt.memory, alloc.alloc_frame, []

        def failing():
            calls.append(None)
            if len(calls) == k:
                raise exc("injected")
            return real()

        def state():  # a digest, so a failure does not print the image
            return blake2b(mem.read(0, mem.size)).hexdigest(), alloc.allocated

        alloc.alloc_frame = failing
        before = state()
        with pytest.raises(exc):
            pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        assert state() == before
        for name in ("no_empty_intermediate", "entries_well_formed",
                     "tables_within_memory"):
            assert TREE_INVARIANTS[name](mem, pt), name

    def test_batch_rolls_back_on_allocator_failure(self):
        """A batch whose second leaf table cannot be allocated unwinds
        the pages it already mapped, OutOfMemory included."""
        pt, alloc = make_pt(64 * defs.PAGE_SIZE)
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        used, before = alloc.allocated, pt.mappings()

        def exhausted():
            raise OutOfMemory("injected")

        alloc.alloc_frame = exhausted
        with pytest.raises(OutOfMemory):
            pt.map_batch([(0x2000, 0x20_0000, PageSize.SIZE_4K, Flags()),
                          (0x20_0000, 0x30_0000, PageSize.SIZE_4K, Flags())])
        assert (alloc.allocated, pt.mappings()) == (used, before)

    def test_destroy_frees_everything(self):
        pt, alloc = make_pt()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        pt.map_frame(1 << 39, 0x20_0000, PageSize.SIZE_4K, Flags())
        pt.destroy()
        assert alloc.allocated == 0

    def test_table_frames_distinct(self):
        pt, _ = make_pt()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        frames = pt.table_frames()
        assert len(frames) == len(set(frames)) == 4


class TestMappingsEnumeration:
    def test_mappings_lists_all(self):
        pt, _ = make_pt()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags.kernel_rw())
        mappings = {m.vaddr: m for m in pt.mappings()}
        assert set(mappings) == {0x1000, 0x20_0000}
        assert mappings[0x20_0000].size is PageSize.SIZE_2M

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=8, unique=True))
    def test_mappings_match_resolve(self, page_indices):
        pt, _ = make_pt()
        for i in page_indices:
            pt.map_frame(i * 0x1000, (i + 256) * 0x1000, PageSize.SIZE_4K,
                         Flags.user_rw())
        enumerated = {m.vaddr for m in pt.mappings()}
        assert enumerated == {i * 0x1000 for i in page_indices}
        for i in page_indices:
            assert pt.resolve(i * 0x1000).paddr == (i + 256) * 0x1000


class TestBatchOps:
    def test_map_batch_crosses_2m_boundary(self):
        """The leaf-table cache is keyed by 2MB region; a batch spanning
        the boundary must land each page in the right leaf table."""
        pt, _ = make_pt(16 * MB)
        base = 0x20_0000 - 2 * 0x1000  # two pages below the 2MB line
        entries = [(base + i * 0x1000, 0x10_0000 + i * 0x1000,
                    PageSize.SIZE_4K, Flags.user_rw()) for i in range(4)]
        assert pt.map_batch(entries) == 4
        for vaddr, frame, _size, _flags in entries:
            m = pt.resolve(vaddr)
            assert m is not None and m.paddr == frame
        removed = pt.unmap_batch([vaddr for vaddr, *_ in entries])
        assert [m.vaddr for m in removed] == [vaddr for vaddr, *_ in entries]
        for vaddr, *_ in entries:
            assert pt.resolve(vaddr) is None

    def test_map_batch_unwinds_on_conflict(self):
        pt, _ = make_pt()
        pt.map_frame(0x40_3000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
        entries = [
            (0x40_0000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw()),
            (0x40_1000, 0x10_1000, PageSize.SIZE_4K, Flags.user_rw()),
            (0x40_3000, 0x10_2000, PageSize.SIZE_4K, Flags.user_rw()),
        ]
        with pytest.raises(AlreadyMapped):
            pt.map_batch(entries)
        # the first two entries were unwound; the pre-existing mapping
        # is untouched
        assert pt.resolve(0x40_0000) is None
        assert pt.resolve(0x40_1000) is None
        assert pt.resolve(0x40_3000).paddr == 0x20_0000

    def test_map_batch_cached_leaf_keeps_obligations(self):
        """The fast path (leaf table already walked) must enforce the
        same alignment checks the full descent does."""
        pt, _ = make_pt()
        entries = [
            (0x40_0000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw()),
            (0x40_1800, 0x10_1000, PageSize.SIZE_4K, Flags.user_rw()),
        ]
        with pytest.raises(BadRequest):
            pt.map_batch(entries)
        assert pt.resolve(0x40_0000) is None

    def test_unmap_batch_aliased_pages_are_atomic(self):
        """Two batch entries resolving to the same leaf slot (an interior
        alias) must fail the whole batch before anything is cleared."""
        pt, _ = make_pt()
        pt.map_frame(0x40_0000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        pt.map_frame(0x40_1000, 0x10_1000, PageSize.SIZE_4K, Flags.user_rw())
        with pytest.raises(NotMapped):
            pt.unmap_batch([0x40_0000, 0x40_1000, 0x40_0008])
        assert pt.resolve(0x40_0000) is not None
        assert pt.resolve(0x40_1000) is not None


class TestAllocator:
    def test_alloc_free_cycle(self):
        mem = PhysicalMemory(4 * defs.PAGE_SIZE)
        alloc = SimpleFrameAllocator(mem)
        a = alloc.alloc_frame()
        b = alloc.alloc_frame()
        assert a != b
        alloc.free_frame(a)
        assert alloc.alloc_frame() == a  # reused

    def test_exhaustion(self):
        mem = PhysicalMemory(2 * defs.PAGE_SIZE)
        alloc = SimpleFrameAllocator(mem)
        alloc.alloc_frame()
        alloc.alloc_frame()
        with pytest.raises(OutOfFrames):
            alloc.alloc_frame()

    def test_free_misaligned(self):
        mem = PhysicalMemory(2 * defs.PAGE_SIZE)
        alloc = SimpleFrameAllocator(mem)
        with pytest.raises(ValueError):
            alloc.free_frame(123)
