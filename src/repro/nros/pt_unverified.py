"""The *unverified* page-table implementation — the comparison baseline.

Figures 1b/1c compare "NrOS Unverified" against "NrOS Verified".  This
module plays the unverified role: a straightforward kernel-style
implementation with the same API and bit layout as
:mod:`repro.core.pt.impl`, but structured the way a kernel developer would
write it when not optimising for provability — inlined bit manipulation, no
rollback bookkeeping, no empty-table garbage collection.

It must still be *correct* (the paper's point is that the verified code
matches the unverified code's performance, not that the unverified code is
broken); the differential tests in ``tests/test_pt_unverified.py`` check
behavioural equivalence up to the documented GC difference.
"""

from __future__ import annotations

from repro.core.pt import defs
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import AlreadyMapped, BadRequest, Mapping, NotMapped
from repro.hw.mem import PhysicalMemory

_PRESENT = 1 << defs.BIT_PRESENT
_HUGE = 1 << defs.BIT_HUGE
_NX = 1 << defs.BIT_NX


class UnverifiedPageTable:
    """Same operations and layout as the verified implementation."""

    def __init__(self, memory: PhysicalMemory, allocator,
                 root_paddr: int | None = None) -> None:
        self.memory = memory
        self.allocator = allocator
        if root_paddr is None:
            root_paddr = allocator.alloc_frame()
            memory.zero_frame(root_paddr)
        self.root_paddr = root_paddr

    def map_frame(self, vaddr: int, frame_paddr: int, size: PageSize,
                  flags: Flags) -> None:
        mask = int(size) - 1
        if vaddr & mask or frame_paddr & mask or vaddr >= defs.MAX_VADDR:
            raise BadRequest(f"bad map request {vaddr:#x} -> {frame_paddr:#x}")
        if frame_paddr & ~defs.ADDR_MASK:
            raise BadRequest(f"frame {frame_paddr:#x} out of range")
        target = size.level
        table = self.root_paddr
        for level in range(target):
            slot = table + (((vaddr >> defs.LEVEL_SHIFTS[level]) & 0x1FF) << 3)
            raw = self.memory.load_u64(slot)
            if raw & _PRESENT:
                if level in (1, 2) and raw & _HUGE:
                    raise AlreadyMapped(f"{vaddr:#x} under a huge page")
                table = raw & defs.ADDR_MASK
            else:
                new_table = self.allocator.alloc_frame()
                self.memory.zero_frame(new_table)
                self.memory.store_u64(slot, (new_table & defs.ADDR_MASK) | 0x7)
                table = new_table
        slot = table + (((vaddr >> defs.LEVEL_SHIFTS[target]) & 0x1FF) << 3)
        raw = self.memory.load_u64(slot)
        if raw & _PRESENT:
            # Deferred reclamation: unmap leaves empty tables behind; a
            # huge-page map over such a stale subtree reclaims it now.
            is_table = target < 3 and not raw & _HUGE
            if is_table and self._subtree_is_empty(raw & defs.ADDR_MASK,
                                                   target + 1):
                self._free_subtree(raw & defs.ADDR_MASK, target + 1)
                self.memory.store_u64(slot, 0)
            else:
                raise AlreadyMapped(f"{vaddr:#x} already mapped")
        raw = (frame_paddr & defs.ADDR_MASK) | _PRESENT
        if flags.writable:
            raw |= 1 << defs.BIT_WRITABLE
        if flags.user:
            raw |= 1 << defs.BIT_USER
        if flags.write_through:
            raw |= 1 << defs.BIT_WRITE_THROUGH
        if flags.cache_disable:
            raw |= 1 << defs.BIT_CACHE_DISABLE
        if flags.global_:
            raw |= 1 << defs.BIT_GLOBAL
        if not flags.executable:
            raw |= _NX
        if target in (1, 2):
            raw |= _HUGE
        self.memory.store_u64(slot, raw)

    def _subtree_is_empty(self, table: int, level: int) -> bool:
        """True when no page mapping exists anywhere under `table`."""
        for raw in self.memory.frame_words(table):
            if not raw & _PRESENT:
                continue
            if level == 3 or raw & _HUGE:
                return False
            if not self._subtree_is_empty(raw & defs.ADDR_MASK, level + 1):
                return False
        return True

    def _free_subtree(self, table: int, level: int) -> None:
        if level < 3:
            for raw in self.memory.frame_words(table):
                if raw & _PRESENT and not raw & _HUGE:
                    self._free_subtree(raw & defs.ADDR_MASK, level + 1)
        self.allocator.free_frame(table)

    def _leaf(self, vaddr: int) -> tuple[int, Mapping] | None:
        """(entry paddr, mapping) of the page covering `vaddr`, if any."""
        if vaddr >= defs.MAX_VADDR or vaddr < 0:
            raise BadRequest(f"non-canonical vaddr {vaddr:#x}")
        table = self.root_paddr
        for level in range(defs.NUM_LEVELS):
            slot = table + (((vaddr >> defs.LEVEL_SHIFTS[level]) & 0x1FF) << 3)
            raw = self.memory.load_u64(slot)
            if not raw & _PRESENT:
                return None
            if level == 3 or (level in (1, 2) and raw & _HUGE):
                size = PageSize.for_level(level)
                return slot, Mapping(
                    vaddr=vaddr & ~(int(size) - 1),
                    paddr=raw & defs.ADDR_MASK & ~(int(size) - 1),
                    size=size,
                    flags=_decode_flags(raw),
                )
            table = raw & defs.ADDR_MASK
        raise AssertionError("unreachable")

    def unmap(self, vaddr: int) -> Mapping:
        leaf = self._leaf(vaddr)
        if leaf is None:
            raise NotMapped(f"{vaddr:#x} not mapped")
        # NOTE: no empty-table GC — tables stay allocated, like many
        # production kernels' fast paths.
        self.memory.store_u64(leaf[0], 0)
        return leaf[1]

    def map_batch(self, entries) -> int:
        """Map N ``(vaddr, frame, size, flags)`` entries; returns the count.
        All-or-nothing like the verified table (minus its leaf-table
        cache): a failing entry unwinds the ones already applied."""
        done = []
        try:
            for vaddr, frame_paddr, size, flags in entries:
                self.map_frame(vaddr, frame_paddr, size, flags)
                done.append(vaddr)
        except (AlreadyMapped, BadRequest):
            for vaddr in reversed(done):
                self.unmap(vaddr)
            raise
        return len(done)

    def unmap_batch(self, vaddrs) -> list[Mapping]:
        """Remove the mappings covering `vaddrs`, all-or-nothing: a missing
        page (or two addresses under one mapping) raises
        :class:`NotMapped` before any mapping is touched."""
        leaves: dict[int, Mapping] = {}  # entry paddr -> mapping
        for vaddr in vaddrs:
            leaf = self._leaf(vaddr)
            if leaf is None or leaf[0] in leaves:
                raise NotMapped(f"{vaddr:#x} not mapped")
            leaves[leaf[0]] = leaf[1]
        for slot in leaves:
            self.memory.store_u64(slot, 0)
        return list(leaves.values())

    def resolve(self, vaddr: int) -> Mapping | None:
        leaf = self._leaf(vaddr)
        return None if leaf is None else leaf[1]


def _decode_flags(raw: int) -> Flags:
    return Flags(
        writable=bool(raw & (1 << defs.BIT_WRITABLE)),
        user=bool(raw & (1 << defs.BIT_USER)),
        executable=not raw & _NX,
        write_through=bool(raw & (1 << defs.BIT_WRITE_THROUGH)),
        cache_disable=bool(raw & (1 << defs.BIT_CACHE_DISABLE)),
        global_=bool(raw & (1 << defs.BIT_GLOBAL)),
    )
