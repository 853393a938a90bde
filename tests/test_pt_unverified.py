"""Differential testing: unverified vs verified page tables.

The unverified baseline must behave identically (same successes, failures,
and resolved mappings) up to its documented difference: it never frees
empty intermediate tables."""

import random
from dataclasses import astuple
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import (
    AlreadyMapped,
    BadRequest,
    NotMapped,
    PageTable,
    PtError,
    SimpleFrameAllocator,
)
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import Mmu, TranslationFault
from repro.nros.pt_unverified import UnverifiedPageTable

MB = 1024 * 1024


def make_both():
    mem_v = PhysicalMemory(16 * MB)
    mem_u = PhysicalMemory(16 * MB)
    verified = PageTable(mem_v, SimpleFrameAllocator(mem_v, start=8 * MB))
    unverified = UnverifiedPageTable(
        mem_u, SimpleFrameAllocator(mem_u, start=8 * MB)
    )
    return verified, unverified, mem_v, mem_u


class TestBasics:
    def test_map_resolve(self):
        pt = make_both()[1]
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        m = pt.resolve(0x1000)
        assert m.paddr == 0x10_0000
        assert m.flags.user and m.flags.writable

    def test_errors(self):
        pt = make_both()[1]
        with pytest.raises(BadRequest):
            pt.map_frame(0x123, 0x10_0000, PageSize.SIZE_4K, Flags())
        with pytest.raises(NotMapped):
            pt.unmap(0x9000)
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        with pytest.raises(AlreadyMapped):
            pt.map_frame(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags())

    def test_huge_pages(self):
        pt = make_both()[1]
        pt.map_frame(0x20_0000, 0x40_0000, PageSize.SIZE_2M, Flags.kernel_rw())
        m = pt.resolve(0x20_0000 + 0x1234 // 8 * 8)
        assert m.size is PageSize.SIZE_2M

    def test_mmu_walks_unverified_tree(self):
        """The hardware walker must agree with the unverified impl too —
        both encode the same architectural bits."""
        pt = make_both()[1]
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        mmu = Mmu(pt.memory)
        t = mmu.walk(pt.root_paddr, 0x1008)
        assert t.paddr == 0x10_0008


# One vocabulary for the hypothesis differential and the seeded pin:
# several 4K pages of one leaf table, neighbouring 2M regions, other
# PDPT / PML4 slots, misaligned, non-canonical and out-of-range values.
VADDRS = (0x1000, 0x2000, 0x3000, 0x1F_F000, 0x20_0000, 0x20_1000,
          0x40_0000, 1 << 30, (1 << 30) + 0x1000, 1 << 39,
          0x1008, 0x20_0123, 1 << 48)
FRAMES = (0x10_0000, 0x20_0000, 0x4000_0000, 0x10_0800, 1 << 52)
SIZES = tuple(PageSize)
FLAGS = (Flags.user_rw(), Flags.kernel_rw(), Flags.user_rx())
PROBES = tuple(va for va in VADDRS if va < 1 << 48)


def _entry(va, fr, size, flags, align):
    if align:
        va, fr = va - va % int(size), fr - fr % int(size)
    return (va, fr, size, flags)


def _plain(m):
    return m and (m.vaddr, m.paddr, int(m.size), astuple(m.flags))


def _run(pt, op):
    """Apply one op of the vocabulary; the outcome class plus payload."""
    kind, arg = op
    try:
        if kind == "map":
            pt.map_frame(*arg)
            return ("ok", None)
        if kind == "unmap":
            return ("ok", _plain(pt.unmap(arg)))
        if kind == "map_batch":
            return ("ok", pt.map_batch(arg))
        if kind == "unmap_batch":
            return ("ok", [_plain(m) for m in pt.unmap_batch(arg)])
        return ("ok", _plain(pt.resolve(arg)))
    except PtError as exc:
        return ("err", type(exc).__name__)


def _walk(pt, va):
    try:
        t = Mmu(pt.memory).walk(pt.root_paddr, va)
    except TranslationFault:
        return None
    return (t.page_base_vaddr, t.frame_paddr, int(t.page_size),
            astuple(t.flags))


_entries = st.builds(_entry, st.sampled_from(VADDRS), st.sampled_from(FRAMES),
                     st.sampled_from(SIZES), st.sampled_from(FLAGS),
                     st.booleans())
_vaddrs = st.sampled_from(VADDRS)
_ops = st.one_of(
    st.tuples(st.just("map"), _entries),
    st.tuples(st.just("unmap"), _vaddrs),
    st.tuples(st.just("map_batch"),
              st.lists(_entries, max_size=5).map(tuple)),
    st.tuples(st.just("unmap_batch"),
              st.lists(_vaddrs, max_size=5).map(tuple)),
    st.tuples(st.just("resolve"), _vaddrs),
)


def _seeded_ops(seed, count):
    """`count` ops of the same vocabulary from a plain seeded RNG (the
    pin below must not depend on hypothesis' draw order)."""
    rng = random.Random(seed)

    def entry():
        return _entry(rng.choice(VADDRS), rng.choice(FRAMES),
                      rng.choice(SIZES), rng.choice(FLAGS),
                      rng.random() < 0.8)

    for _ in range(count):
        kind = rng.choice(("map", "map", "unmap", "map_batch",
                           "unmap_batch", "resolve"))
        if kind == "map":
            yield kind, entry()
        elif kind == "map_batch":
            yield kind, tuple(entry() for _ in range(rng.randrange(6)))
        elif kind == "unmap_batch":
            yield kind, tuple(rng.choice(VADDRS)
                              for _ in range(rng.randrange(6)))
        else:
            yield kind, rng.choice(VADDRS)


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ops, max_size=30))
    def test_behavioural_equivalence(self, ops):
        """Verified table, unverified table and the hardware walker agree
        on every outcome and on every probe address after every step."""
        verified, unverified, _, _ = make_both()
        for op in ops:
            assert _run(verified, op) == _run(unverified, op), op
            for va in PROBES:
                seen = {_plain(verified.resolve(va)),
                        _plain(unverified.resolve(va)),
                        _walk(verified, va), _walk(unverified, va)}
                assert len(seen) == 1, (op, hex(va), seen)

    def test_verified_table_is_bit_identical_to_pr21(self):
        """blake2b of (outcomes, memory image, allocator free list) of one
        seeded 480-op sequence, taken from PR 21's five-walk `impl.py`:
        the one-descent rewrite reproduces it, allocation order included."""
        verified = make_both()[0]
        outcomes = [_run(verified, op) for op in _seeded_ops(22, 480)]
        assert {kind for kind, _ in outcomes} == {"ok", "err"}
        digest = blake2b(digest_size=16)
        digest.update(repr(outcomes).encode())
        digest.update(verified.memory.read(0, verified.memory.size))
        alloc = verified.allocator
        digest.update(
            repr((alloc._free, alloc._next, alloc.allocated)).encode())
        assert digest.hexdigest() == "c1480048f9ee8fce0f00af36cf71a8cd"

    def test_gc_difference_documented(self):
        """The one intended divergence: the unverified impl leaks empty
        intermediate tables; the verified impl frees them."""
        mem_v = PhysicalMemory(16 * MB)
        alloc_v = SimpleFrameAllocator(mem_v, start=8 * MB)
        verified = PageTable(mem_v, alloc_v)

        mem_u = PhysicalMemory(16 * MB)
        alloc_u = SimpleFrameAllocator(mem_u, start=8 * MB)
        unverified = UnverifiedPageTable(mem_u, alloc_u)

        verified.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        unverified.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags())
        v_used = alloc_v.allocated
        u_used = alloc_u.allocated
        assert v_used == u_used
        verified.unmap(0x1000)
        unverified.unmap(0x1000)
        assert alloc_v.allocated == v_used - 3   # PDPT+PD+PT freed
        assert alloc_u.allocated == u_used       # tables retained
