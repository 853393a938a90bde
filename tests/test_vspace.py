"""VSpace tests: NR-replicated address spaces and TLB shootdown."""

import pytest

from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import PageTable
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import AccessType, TranslationFault, check_access
from repro.nros.pmem import BuddyAllocator, OutOfMemory
from repro.nros.pt_unverified import UnverifiedPageTable
from repro.nros.syscall.usercopy import copy_from_user
from repro.nros.vspace import VSpace, VSpaceError

MB = 1024 * 1024


def make_vspace(num_nodes=2, cores=4):
    mem = PhysicalMemory(16 * MB)
    alloc = BuddyAllocator(mem, start=8 * MB)
    vspace = VSpace(mem, alloc, num_nodes=num_nodes)
    for core in range(cores):
        vspace.attach_core(core, core % num_nodes)
    return vspace, mem, alloc


class TestFrameExhaustion:
    def test_failed_map_is_typed_and_does_not_wedge_the_space(self):
        """A table-frame shortage inside the replica surfaces as a typed
        error with the writer lock and combiner slot released: the next
        map / resolve / unmap on the same address space completes.
        (One replica: with two, every table frame is taken before the
        map is logged — the two tests below.)"""
        vspace, _, alloc = make_vspace(num_nodes=1)
        real, calls = alloc.alloc_frame, []

        def scarce():  # the PDPT is granted, the PD is not
            calls.append(None)
            if len(calls) == 2:
                raise OutOfMemory("injected")
            return real()

        alloc.alloc_frame = scarce
        free = alloc.free_blocks()
        with pytest.raises(VSpaceError) as failure:
            vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        assert failure.value.kind == "no_memory"
        replica = vspace.nr.replicas[0]
        assert replica.lock.writer is False and replica.combiner is None
        assert replica.ltail == vspace.nr.log.tail
        assert alloc.free_blocks() == free
        assert vspace.resolve(0x1000) is None
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        assert vspace.unmap(0x1000).paddr == 0x10_0000

    @staticmethod
    def drain(alloc, leave):
        """Take frames from `alloc` until `leave` are free; returns them."""
        held = []
        while alloc.stats.free_frames > leave:
            held.append(alloc.alloc_frame())
        return held

    def test_a_map_short_of_frames_changes_no_replica(self):
        """Two replicas need 3 table frames each for a first 4K page;
        with 3 free the map is refused as a whole — not applied on the
        caller's replica and lost on the other."""
        vspace, _, alloc = make_vspace(num_nodes=2)
        held = self.drain(alloc, leave=3)
        with pytest.raises(VSpaceError) as failure:
            vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw(),
                       core=0)
        assert failure.value.kind == "no_memory"
        assert alloc.stats.free_frames == 3
        for core in range(4):
            assert vspace.resolve(0x1000, core=core) is None
            with pytest.raises(TranslationFault):
                vspace.translate(core, 0x1000)
        assert vspace.mapped_pages == 0
        for frame in held[:3]:
            alloc.free_frame(frame)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw(),
                   core=0)
        assert alloc.stats.free_frames == 0
        for core in range(4):
            assert vspace.translate(core, 0x1008) == 0x10_0008

    def test_a_lagging_replica_applies_with_frames_taken_at_map_time(self):
        """The other node's replica applies the logged map only when one
        of its cores faults on the page — after the allocator has run
        dry — and still finds the table frames it needs.  Unmapping
        everything gives every frame back."""
        vspace, _, alloc = make_vspace(num_nodes=2)
        free = alloc.stats.free_frames
        vspace.map_batch([
            (0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw()),
            (0x20_0000, 0x20_0000, PageSize.SIZE_2M, Flags.user_rw()),
        ], core=0)
        lagging = vspace.nr.replicas[1]
        assert lagging.ltail < vspace.nr.log.tail
        held = self.drain(alloc, leave=0)
        assert vspace.translate(1, 0x1000) == 0x10_0000
        assert vspace.translate(3, 0x20_0010) == 0x20_0010
        assert lagging.ltail == vspace.nr.log.tail
        for frame in held:
            alloc.free_frame(frame)
        vspace.unmap_batch([0x1000, 0x20_0000], core=1)
        assert alloc.stats.free_frames == free


class TestMapping:
    def test_map_resolve_any_core(self):
        vspace, _, _ = make_vspace()
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw(),
                   core=0)
        # resolve through a core on the *other* replica
        mapping = vspace.resolve(0x1000, core=1)
        assert mapping is not None and mapping.paddr == 0x10_0000

    def test_replicas_have_distinct_roots(self):
        vspace, _, _ = make_vspace(num_nodes=2)
        assert vspace.root_for(0) != vspace.root_for(1)

    def test_replica_trees_converge(self):
        vspace, mem, _ = make_vspace(num_nodes=2)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw(),
                   core=0)
        vspace.map(0x2000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw(),
                   core=1)
        vspace.sync()
        from repro.core.refine.interp import interpret

        views = [
            interpret(mem, vspace.root_for(core)).mappings
            for core in (0, 1)
        ]
        assert views[0] == views[1]
        assert len(views[0]) == 2

    def test_double_map_fails(self):
        vspace, _, _ = make_vspace()
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        with pytest.raises(VSpaceError):
            vspace.map(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())

    def test_unmap_returns_mapping(self):
        vspace, _, _ = make_vspace()
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        removed = vspace.unmap(0x1000, core=2)
        assert removed.paddr == 0x10_0000
        assert vspace.resolve(0x1000) is None

    def test_unmap_unmapped_fails(self):
        vspace, _, _ = make_vspace()
        with pytest.raises(VSpaceError):
            vspace.unmap(0x5000)


class TestTranslationAndShootdown:
    def test_translate_fills_tlb(self):
        vspace, mem, _ = make_vspace()
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        paddr = vspace.translate(0, 0x1008)
        assert paddr == 0x10_0008
        tlb = vspace._tlbs[0]
        assert len(tlb) == 1
        # second translation hits the TLB
        hits_before = tlb.hits
        vspace.translate(0, 0x1010)
        assert tlb.hits == hits_before + 1

    def test_write_permission_enforced(self):
        vspace, _, _ = make_vspace()
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K,
                   Flags(writable=False, user=True))
        vspace.translate(0, 0x1000)  # read fine
        with pytest.raises(TranslationFault):
            vspace.translate(0, 0x1000, AccessType.WRITE)
        # the cached entry must also enforce the permission
        with pytest.raises(TranslationFault):
            vspace.translate(0, 0x1000, AccessType.WRITE)

    def test_shootdown_on_unmap(self):
        vspace, _, _ = make_vspace(cores=4)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        for core in range(4):
            vspace.translate(core, 0x1000)  # fill all TLBs
        assert all(len(vspace._tlbs[c]) == 1 for c in range(4))
        vspace.unmap(0x1000, core=0)
        assert vspace.shootdowns == 1
        # every core's TLB was invalidated: no stale translations
        for core in range(4):
            with pytest.raises(TranslationFault):
                vspace.translate(core, 0x1000)

    def test_translate_unattached_core(self):
        vspace, _, _ = make_vspace(cores=2)
        with pytest.raises(ValueError):
            vspace.translate(9, 0x1000)

    def test_detach_flushes(self):
        vspace, _, _ = make_vspace()
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        tlb = vspace._tlbs[0]
        vspace.translate(0, 0x1000)
        assert len(tlb) == 1
        vspace.detach_core(0)
        assert len(tlb) == 0

    def test_attach_invalid_node(self):
        vspace, _, _ = make_vspace(num_nodes=2)
        with pytest.raises(ValueError):
            vspace.attach_core(9, 7)


# -- the door: one checked, TLB-backed translation ------------------------


class NoSyncDoor(VSpace):
    """Must-fail variant: a faulting walk is final — the lagging replica
    is never synced (the kernel's copy path before there was one door)."""

    def translate(self, core, vaddr, access=AccessType.READ):
        tlb = self._tlbs[core]
        translation = tlb.lookup(vaddr)
        if translation is None:
            translation = self.mmu.walk(self.root_for(core), vaddr)
            tlb.insert(translation)
        check_access(vaddr, translation.flags, access, user_mode=True)
        return translation.frame_paddr + vaddr - translation.page_base_vaddr


class MissOnlyCheckDoor(VSpace):
    """Must-fail variant: permissions are checked on the walked
    translation only, so a TLB hit grants whatever is cached."""

    def translate(self, core, vaddr, access=AccessType.READ):
        tlb = self._tlbs[core]
        translation = tlb.lookup(vaddr)
        if translation is None:
            translation = self.mmu.walk(self.root_for(core), vaddr)
            tlb.insert(translation)
            check_access(vaddr, translation.flags, access, user_mode=True)
        return translation.frame_paddr + vaddr - translation.page_base_vaddr


def two_node_space(vspace_cls):
    """The paper's machine shape in small: core 0 on node 0, core 14 on
    node 1, one NR replica each."""
    mem = PhysicalMemory(16 * MB)
    vspace = vspace_cls(mem, BuddyAllocator(mem, start=8 * MB), num_nodes=2)
    vspace.attach_core(0, 0)
    vspace.attach_core(14, 1)
    return vspace, mem


def check_copy_from_the_other_node(vspace_cls):
    """A buffer mapped from node 1 is readable by a copy issued for a
    node-0 core whose replica has not applied the map yet."""
    vspace, mem = two_node_space(vspace_cls)
    vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw(),
               core=14)
    mem.write(0x10_0010, b"ABCDEFGH")
    assert copy_from_user(vspace, 0, 0x1010, 8) == b"ABCDEFGH"
    assert vspace._tlbs[0].cached_bases() == [0x1000]


def check_supervisor_page_faults(vspace_cls, cached):
    """A kernel-only mapping is refused for READ and WRITE — on a TLB
    miss, and (``cached``) when the core's TLB already holds the page."""
    for access in (AccessType.READ, AccessType.WRITE):
        vspace, _ = two_node_space(vspace_cls)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.kernel_rw())
        tlb = vspace._tlbs[0]
        if cached:
            tlb.insert(vspace.mmu.walk(vspace.root_for(0), 0x1000))
        with pytest.raises(TranslationFault):
            vspace.translate(0, 0x1008, access)
        assert tlb.hits == (1 if cached else 0)


class TestTheDoor:
    def test_copy_from_the_other_node_syncs_and_fills_the_tlb(self):
        check_copy_from_the_other_node(VSpace)

    def test_without_sync_and_retry_the_copy_faults(self):
        with pytest.raises(TranslationFault):
            check_copy_from_the_other_node(NoSyncDoor)

    @pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
    def test_supervisor_page_faults_for_read_and_write(self, cached):
        check_supervisor_page_faults(VSpace, cached)

    def test_miss_only_check_passes_the_miss_half_and_fails_the_hit_half(self):
        check_supervisor_page_faults(MissOnlyCheckDoor, cached=False)
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            check_supervisor_page_faults(MissOnlyCheckDoor, cached=True)

    def test_every_miss_walks_the_one_mmu_and_a_hit_does_not(self):
        vspace, _ = two_node_space(VSpace)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        for _ in range(5):
            assert vspace.translate(0, 0x1ff8) == 0x10_0ff8
        assert vspace.mmu.walks == 1
        vspace.translate(14, 0x1000)   # lagging replica: fault, sync, retry
        vspace.translate(14, 0x1000)
        assert vspace.mmu.walks == 3


class TestBatchedOps:
    def test_unmap_batch_is_one_shootdown_round(self):
        vspace, _, _ = make_vspace(cores=4)
        vaddrs = [0x1000 + i * 0x1000 for i in range(8)]
        vspace.map_batch([
            (v, 0x10_0000 + i * 0x1000, PageSize.SIZE_4K, Flags.user_rw())
            for i, v in enumerate(vaddrs)
        ])
        for core in range(4):
            for v in vaddrs:
                vspace.translate(core, v)  # fill every TLB
        before = vspace.shootdowns
        removed = vspace.unmap_batch(vaddrs, core=0)
        assert vspace.shootdowns == before + 1  # one round for 8 pages
        assert [m.vaddr for m in removed] == vaddrs
        # the single round still invalidated every core's entries
        for core in range(4):
            with pytest.raises(TranslationFault):
                vspace.translate(core, vaddrs[-1])

    def test_single_unmaps_pay_one_round_each(self):
        vspace, _, _ = make_vspace()
        vaddrs = [0x1000 + i * 0x1000 for i in range(8)]
        for i, v in enumerate(vaddrs):
            vspace.map(v, 0x10_0000 + i * 0x1000, PageSize.SIZE_4K,
                       Flags.user_rw())
        before = vspace.shootdowns
        for v in vaddrs:
            vspace.unmap(v)
        assert vspace.shootdowns == before + 8

    def test_map_batch_all_or_nothing(self):
        vspace, _, _ = make_vspace()
        vspace.map(0x3000, 0x30_0000, PageSize.SIZE_4K, Flags.user_rw())
        with pytest.raises(VSpaceError):
            vspace.map_batch([
                (0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw()),
                (0x2000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw()),
                (0x3000, 0x40_0000, PageSize.SIZE_4K, Flags.user_rw()),
            ])
        # the two entries that had been applied were rolled back
        assert vspace.resolve(0x1000) is None
        assert vspace.resolve(0x2000) is None
        assert vspace.resolve(0x3000).paddr == 0x30_0000
        assert vspace.mapped_pages == 1

    def test_unmap_batch_failure_is_atomic(self):
        vspace, _, _ = make_vspace(cores=2)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        vspace.translate(0, 0x1000)
        vspace.translate(1, 0x1000)
        before = vspace.shootdowns
        with pytest.raises(VSpaceError) as excinfo:
            vspace.unmap_batch([0x1000, 0x9000])  # 0x9000 never mapped
        assert excinfo.value.kind == "not_mapped"
        # the replica validates the whole batch before touching any
        # mapping, so nothing was removed: no shootdown round was owed,
        # and every translation still works on every core
        assert vspace.shootdowns == before
        for core in range(2):
            assert vspace.translate(core, 0x1000) is not None
        assert vspace.mapped_pages == 1

    def test_batch_mapped_pages_accounting(self):
        vspace, _, _ = make_vspace()
        assert vspace.mapped_pages == 0
        vspace.map_batch([
            (0x1000 + i * 0x1000, 0x10_0000 + i * 0x1000,
             PageSize.SIZE_4K, Flags.user_rw())
            for i in range(5)
        ])
        assert vspace.mapped_pages == 5
        vspace.unmap_batch([0x1000, 0x2000])
        assert vspace.mapped_pages == 3
        vspace.unmap(0x3000)
        assert vspace.mapped_pages == 2


class TestUnverifiedBackend:
    def test_vspace_over_unverified_pt(self):
        mem = PhysicalMemory(16 * MB)
        alloc = BuddyAllocator(mem, start=8 * MB)
        vspace = VSpace(mem, alloc, num_nodes=2,
                        pt_factory=UnverifiedPageTable)
        for core in range(2):
            vspace.attach_core(core, core)
        vspace.map(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        assert vspace.resolve(0x1000, core=1).paddr == 0x10_0000
        removed = vspace.unmap(0x1000)
        assert removed.paddr == 0x10_0000


    def test_batch_ops_agree_with_the_verified_table(self):
        """Both page tables present one batch interface with the same
        all-or-nothing contract: the same script of batch ops, driven
        through VSpace, has the same outcome on either backend."""
        rw = Flags.user_rw()
        pages = [0x1000 + i * 0x1000 for i in range(6)]

        def entries(vaddrs):
            return [(v, 0x10_0000 + v, PageSize.SIZE_4K, rw) for v in vaddrs]

        script = [
            ("map_batch", entries(pages[:4])),               # success
            ("map_batch", entries([pages[4], pages[1]])),    # already mapped
            ("map_batch", entries([pages[5], pages[5]])),    # duplicate
            ("unmap_batch", [pages[0], 0x9000]),             # missing page
            ("unmap_batch", [pages[1], pages[1] + 8]),       # same mapping
            ("unmap_batch", pages[:2]),                      # success
            ("unmap_batch", []),                             # empty
        ]

        def run(pt_factory):
            mem = PhysicalMemory(16 * MB)
            vspace = VSpace(mem, BuddyAllocator(mem, start=8 * MB),
                            num_nodes=2, pt_factory=pt_factory)
            for core in range(2):
                vspace.attach_core(core, core)
            trace = []
            for op, arg in script:
                try:
                    result = getattr(vspace, op)(arg)
                    outcome = ("ok", result and [m.vaddr for m in result])
                except VSpaceError as exc:
                    outcome = ("err", exc.kind)
                trace.append((
                    outcome, vspace.mapped_pages, vspace.shootdowns,
                    [m and m.paddr for m in
                     (vspace.resolve(v, core=1) for v in pages)]))
            return trace

        verified, unverified = run(PageTable), run(UnverifiedPageTable)
        assert verified == unverified
        assert [outcome for outcome, *_ in verified] == [
            ("ok", None), ("err", "already_mapped"), ("err", "already_mapped"),
            ("err", "not_mapped"), ("err", "not_mapped"),
            ("ok", pages[:2]), ("ok", [])]
        # failed batches left every mapping intact (pages 0-3 mapped)
        assert verified[4][3] == [0x10_0000 + v for v in pages[:4]] + [None] * 2
