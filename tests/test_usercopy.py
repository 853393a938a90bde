"""usercopy edge cases: the mapping obligation at its boundaries.

Page-boundary spans, buffers with an unmapped middle page, zero-length
copies, and permission violations — the cases a per-page translation
loop gets wrong first, and the cases the ring's per-batch slot access
leans on.
"""

import pytest

from repro.core.pt.defs import Flags, PageSize, PAGE_SIZE
from repro.core.pt.impl import SimpleFrameAllocator
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import TranslationFault
from repro.nros.syscall.usercopy import copy_from_user, copy_to_user
from repro.nros.vspace import VSpace

MB = 1024 * 1024
BASE = 0x40_0000
CORE = 3


def make_space(pages):
    """Map `pages` entries of (frame, flags) at consecutive vaddrs from
    BASE; a None entry leaves a hole.  Returns (memory, vspace, core):
    the address space and the core the copies are issued for."""
    memory = PhysicalMemory(8 * MB)
    vspace = VSpace(memory, SimpleFrameAllocator(memory))
    vspace.attach_core(CORE, 0)
    for i, entry in enumerate(pages):
        if entry is None:
            continue
        frame, flags = entry
        vspace.map(BASE + i * PAGE_SIZE, frame, PageSize.SIZE_4K, flags,
                   core=CORE)
    return memory, vspace, CORE


class TestPageBoundarySpans:
    def test_copy_spans_two_pages(self):
        memory, vspace, core = make_space([
            (0x10_0000, Flags.user_rw()), (0x20_0000, Flags.user_rw()),
        ])
        data = bytes(range(200)) * 41  # 8200 bytes > 2 pages? no: 8200
        data = data[:6000]
        start = BASE + PAGE_SIZE - 3000  # straddles the boundary
        copy_to_user(vspace, core, start, data)
        assert copy_from_user(vspace, core, start, len(data)) == data
        # the two halves really landed in their *distinct* frames
        assert memory.read(0x10_0000 + PAGE_SIZE - 3000, 3000) == data[:3000]
        assert memory.read(0x20_0000, 3000) == data[3000:]

    def test_copy_spans_three_pages(self):
        memory, vspace, core = make_space([
            (0x10_0000, Flags.user_rw()),
            (0x30_0000, Flags.user_rw()),
            (0x20_0000, Flags.user_rw()),
        ])
        # 50 bytes on page 0, all of page 1, 50 bytes on page 2
        data = bytes([i % 251 for i in range(PAGE_SIZE + 100)])
        start = BASE + PAGE_SIZE - 50
        copy_to_user(vspace, core, start, data)
        assert copy_from_user(vspace, core, start, len(data)) == data

    def test_copy_up_to_exact_page_end(self):
        memory, vspace, core = make_space([(0x10_0000, Flags.user_rw())])
        copy_to_user(vspace, core, BASE + PAGE_SIZE - 8, b"12345678")
        assert copy_from_user(vspace, core,
                              BASE + PAGE_SIZE - 8, 8) == b"12345678"

    def test_copy_ending_one_past_page_end_faults(self):
        memory, vspace, core = make_space([(0x10_0000, Flags.user_rw())])
        with pytest.raises(TranslationFault):
            copy_to_user(vspace, core, BASE + PAGE_SIZE - 8, b"x" * 9)


class TestUnmappedHoles:
    def test_unmapped_middle_page_faults(self):
        memory, vspace, core = make_space([
            (0x10_0000, Flags.user_rw()), None, (0x20_0000, Flags.user_rw()),
        ])
        length = 3 * PAGE_SIZE
        with pytest.raises(TranslationFault) as exc:
            copy_from_user(vspace, core, BASE, length)
        assert exc.value.vaddr == BASE + PAGE_SIZE  # names the hole
        with pytest.raises(TranslationFault):
            copy_to_user(vspace, core, BASE, bytes(length))

    def test_write_before_hole_lands_read_after_hole_never_runs(self):
        """The copy loop is per-chunk: the fault identifies the first
        bad page, and bytes before it were already written (callers that
        need all-or-nothing must pre-resolve, as vm_unmap_batch does)."""
        memory, vspace, core = make_space([
            (0x10_0000, Flags.user_rw()), None,
        ])
        with pytest.raises(TranslationFault):
            copy_to_user(vspace, core, BASE, b"\xab" * (2 * PAGE_SIZE))
        assert memory.read(0x10_0000, 4) == b"\xab" * 4

    def test_wholly_unmapped_buffer_faults(self):
        memory, vspace, core = make_space([])
        with pytest.raises(TranslationFault):
            copy_from_user(vspace, core, BASE, 1)


class TestZeroLength:
    def test_zero_length_read_is_empty(self):
        memory, vspace, core = make_space([])
        # no translation happens, so even an unmapped vaddr is fine
        assert copy_from_user(vspace, core, BASE, 0) == b""

    def test_zero_length_write_is_noop(self):
        memory, vspace, core = make_space([])
        copy_to_user(vspace, core, BASE, b"")

    def test_negative_length_rejected(self):
        memory, vspace, core = make_space([(0x10_0000, Flags.user_rw())])
        with pytest.raises(ValueError):
            copy_from_user(vspace, core, BASE, -1)


class TestPermissions:
    def test_write_to_readonly_page_faults(self):
        memory, vspace, core = make_space([
            (0x10_0000, Flags(writable=False, user=True)),
        ])
        with pytest.raises(TranslationFault):
            copy_to_user(vspace, core, BASE, b"x")
        # reading the same page is fine
        assert len(copy_from_user(vspace, core, BASE, 8)) == 8

    def test_kernel_only_page_faults_both_directions(self):
        memory, vspace, core = make_space([
            (0x10_0000, Flags(writable=True, user=False)),
        ])
        with pytest.raises(TranslationFault):
            copy_from_user(vspace, core, BASE, 8)
        with pytest.raises(TranslationFault):
            copy_to_user(vspace, core, BASE, b"x")

    def test_readonly_page_inside_span_faults_write(self):
        memory, vspace, core = make_space([
            (0x10_0000, Flags.user_rw()),
            (0x20_0000, Flags(writable=False, user=True)),
        ])
        with pytest.raises(TranslationFault) as exc:
            copy_to_user(vspace, core, BASE, b"y" * (2 * PAGE_SIZE))
        assert exc.value.vaddr == BASE + PAGE_SIZE
        # the same span is readable end to end
        assert len(copy_from_user(vspace, core, BASE,
                                  2 * PAGE_SIZE)) == 2 * PAGE_SIZE
