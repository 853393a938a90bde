"""The executable page-table implementation (Figure 2, box 3).

Concrete functions for `map`, `unmap`, and `resolve` that read and write the
page-table bits in simulated physical memory, allocating and freeing the
frames that store intermediate tables — a faithful port of the paper's
verified Rust prototype to Python.

The `resolve` path intentionally re-reads the tree through this module's own
logic; agreement between it, the independent hardware walker, and the
abstract map is established by the `hardware-agreement` verification
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import wordlib
from repro.core.pt import defs, entry
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.entry import EntryKind
from repro.hw.mem import PhysicalMemory


class PtError(Exception):
    """Base class for page-table operation failures."""


class AlreadyMapped(PtError):
    """The requested range overlaps an existing mapping."""


class NotMapped(PtError):
    """No mapping covers the requested virtual address."""


class BadRequest(PtError):
    """Misaligned or non-canonical arguments."""


class OutOfFrames(PtError):
    """The frame allocator could not provide a table frame."""


class SimpleFrameAllocator:
    """A minimal frame allocator (bump pointer + free list).

    Satisfies the allocator protocol the page table needs; the full kernel
    uses the buddy allocator in :mod:`repro.nros.pmem` instead.
    """

    def __init__(self, memory: PhysicalMemory, start: int = 0) -> None:
        if not wordlib.is_aligned(start, defs.PAGE_SIZE):
            raise ValueError("allocator start must be page-aligned")
        self.memory = memory
        self._next = start
        self._free: list[int] = []
        self.allocated = 0

    def alloc_frame(self) -> int:
        if self._free:
            frame = self._free.pop()
        else:
            if self._next + defs.PAGE_SIZE > self.memory.size:
                raise OutOfFrames("physical memory exhausted")
            frame = self._next
            self._next += defs.PAGE_SIZE
        self.allocated += 1
        return frame

    def free_frame(self, paddr: int) -> None:
        if not wordlib.is_aligned(paddr, defs.PAGE_SIZE):
            raise ValueError(f"freeing misaligned frame {paddr:#x}")
        self.allocated -= 1
        self._free.append(paddr)


# Hot-path bit tests (semantically identical to entry.decode, which the
# refinement proof checks; the implementation avoids building EntryView
# objects on every walk step, exactly as the compiled Rust original would).
_PRESENT = 1 << defs.BIT_PRESENT
_HUGE = 1 << defs.BIT_HUGE


def _maps_page(raw: int, level: int) -> bool:
    return level == 3 or (level in (1, 2) and bool(raw & _HUGE))


@dataclass(frozen=True)
class Mapping:
    """One mapping as reported by `resolve` and `unmap`."""

    vaddr: int  # page base virtual address
    paddr: int  # frame base physical address
    size: PageSize
    flags: Flags


class PageTable:
    """An x86-64 four-level page table over simulated physical memory."""

    def __init__(self, memory: PhysicalMemory, allocator, root_paddr: int | None = None):
        self.memory = memory
        self.allocator = allocator
        if root_paddr is None:
            root_paddr = allocator.alloc_frame()
            memory.zero_frame(root_paddr)
        self.root_paddr = root_paddr

    # -- helpers ----------------------------------------------------------------

    def _entry_paddr(self, table_paddr: int, vaddr: int, level: int) -> int:
        # shift+mask == the bit-field extraction (VC addr_index_extract_*)
        index = (vaddr >> defs.LEVEL_SHIFTS[level]) & 0x1FF
        return table_paddr + index * defs.ENTRY_SIZE

    def _read(self, table_paddr: int, vaddr: int, level: int) -> tuple[int, entry.EntryView]:
        raw = self.memory.load_u64(self._entry_paddr(table_paddr, vaddr, level))
        return raw, entry.decode(raw, level)

    def _table_is_empty(self, table_paddr: int) -> bool:
        return self.memory.is_zero_range(table_paddr, defs.PAGE_SIZE)

    # -- operations ---------------------------------------------------------------

    def map_frame(
        self, vaddr: int, frame_paddr: int, size: PageSize, flags: Flags
    ) -> int:
        """Map the page of `size` at `vaddr` to the physical frame at
        `frame_paddr`.  Returns the paddr of the table holding the new
        leaf entry (:meth:`map_batch` caches it to skip repeat walks).

        Raises :class:`BadRequest` on misalignment, :class:`AlreadyMapped`
        when any existing mapping overlaps the range, and
        :class:`OutOfFrames` when a needed intermediate table cannot be
        allocated (in which case the tree is left unchanged)."""
        if not 0 <= vaddr < defs.MAX_VADDR:
            raise BadRequest(f"non-canonical vaddr {vaddr:#x}")
        mask = int(size) - 1
        if vaddr & mask:
            raise BadRequest(f"vaddr {vaddr:#x} not aligned to {size.name}")
        if frame_paddr & mask:
            raise BadRequest(f"frame {frame_paddr:#x} not aligned to {size.name}")
        if frame_paddr & ~defs.ADDR_MASK:
            raise BadRequest(f"frame {frame_paddr:#x} beyond physical range")

        target_level = size.level
        table = self.root_paddr
        created: list[tuple[int, int]] = []  # (entry paddr, table frame)
        try:
            for level in range(target_level):
                entry_paddr = self._entry_paddr(table, vaddr, level)
                raw = self.memory.load_u64(entry_paddr)
                if raw & _PRESENT:
                    if _maps_page(raw, level):
                        raise AlreadyMapped(
                            f"{vaddr:#x} covered by a "
                            f"{PageSize.for_level(level).name} page at "
                            f"{defs.LEVEL_NAMES[level]}"
                        )
                    table = raw & defs.ADDR_MASK
                else:
                    new_table = self.allocator.alloc_frame()
                    self.memory.zero_frame(new_table)
                    self.memory.store_u64(entry_paddr, entry.encode_table(new_table))
                    created.append((entry_paddr, new_table))
                    table = new_table
            leaf = self._entry_paddr(table, vaddr, target_level)
            if self.memory.load_u64(leaf) & _PRESENT:
                raise AlreadyMapped(f"{vaddr:#x} already mapped")
            self.memory.store_u64(
                leaf, entry.encode_page(frame_paddr, flags, target_level)
            )
            return table
        except (AlreadyMapped, OutOfFrames):
            # Roll back any tables created on this walk so a failed map
            # leaves the tree exactly as it was.
            for entry_paddr, table_frame in reversed(created):
                self.memory.store_u64(entry_paddr, 0)
                self.allocator.free_frame(table_frame)
            raise

    def map_batch(self, entries) -> int:
        """Map N ``(vaddr, frame, size, flags)`` entries; returns the count.

        All-or-nothing: a failing entry unwinds the ones already applied
        before the error propagates.  The amortization: 4K pages landing
        in a leaf table the batch has already walked to skip the three
        interior levels — one load + one store instead of a full
        four-level descent, which is where a software walk spends most
        of its per-page time."""
        last = defs.NUM_LEVELS - 1
        shift = defs.LEVEL_SHIFTS[last - 1]
        leaf_tables: dict[int, int] = {}  # vaddr >> 21 -> leaf table paddr
        done: list[int] = []
        try:
            for vaddr, frame_paddr, size, flags in entries:
                table = (leaf_tables.get(vaddr >> shift)
                         if size is PageSize.SIZE_4K else None)
                if table is None:
                    table = self.map_frame(vaddr, frame_paddr, size, flags)
                    if size is PageSize.SIZE_4K:
                        leaf_tables[vaddr >> shift] = table
                else:
                    # same checks map_frame's leaf step performs; the
                    # interior descent is skipped, not the obligations
                    if vaddr & 0xFFF:
                        raise BadRequest(
                            f"vaddr {vaddr:#x} not aligned to SIZE_4K")
                    if frame_paddr & 0xFFF:
                        raise BadRequest(
                            f"frame {frame_paddr:#x} not aligned to SIZE_4K")
                    if frame_paddr & ~defs.ADDR_MASK:
                        raise BadRequest(
                            f"frame {frame_paddr:#x} beyond physical range")
                    leaf = self._entry_paddr(table, vaddr, last)
                    if self.memory.load_u64(leaf) & _PRESENT:
                        raise AlreadyMapped(f"{vaddr:#x} already mapped")
                    self.memory.store_u64(
                        leaf, entry.encode_page(frame_paddr, flags, last))
                done.append(vaddr)
        except PtError:
            for vaddr in reversed(done):
                self.unmap(vaddr)
            raise
        return len(done)

    def unmap(self, vaddr: int) -> Mapping:
        """Remove the mapping covering `vaddr` and return it.

        Intermediate tables left empty by the removal are freed.  Raises
        :class:`NotMapped` when nothing covers `vaddr`."""
        if not defs.is_canonical(vaddr):
            raise BadRequest(f"non-canonical vaddr {vaddr:#x}")
        table = self.root_paddr
        path: list[tuple[int, int]] = []  # (table frame, entry paddr) per level
        for level in range(defs.NUM_LEVELS):
            entry_paddr = self._entry_paddr(table, vaddr, level)
            raw = self.memory.load_u64(entry_paddr)
            if not raw & _PRESENT:
                raise NotMapped(f"{vaddr:#x} not mapped")
            if _maps_page(raw, level):
                view = entry.decode(raw, level)
                size = PageSize.for_level(level)
                self.memory.store_u64(entry_paddr, 0)
                removed = Mapping(
                    vaddr=defs.vaddr_base(vaddr, size),
                    paddr=view.paddr,
                    size=size,
                    flags=view.flags,
                )
                self._collect_empty_tables(path)
                return removed
            path.append((table, entry_paddr))
            table = raw & defs.ADDR_MASK
        raise AssertionError("unreachable: PT level maps or is empty")

    def _collect_empty_tables(self, path: list[tuple[int, int]]) -> None:
        """Free tables on the walk path that became empty, bottom-up."""
        for parent_table, entry_paddr in reversed(path):
            raw = self.memory.load_u64(entry_paddr)
            child = raw & defs.ADDR_MASK
            if not self._table_is_empty(child):
                return
            self.memory.store_u64(entry_paddr, 0)
            self.allocator.free_frame(child)
            del parent_table

    def unmap_batch(self, vaddrs) -> list[Mapping]:
        """Remove the mappings covering `vaddrs`, all-or-nothing.

        One validating walk records every leaf entry before anything is
        modified, so a missing page (or two addresses covered by the
        same mapping) raises :class:`NotMapped` with the tree untouched
        — sequential unmaps would fail *mid-batch* there.  The walk,
        the entry clears, and the empty-table collection are each one
        pass over the whole batch, which is what makes an N-page unmap
        cheaper than N unmaps: a leaf table shared by the batch is
        scanned for emptiness once, not once per page.
        """
        last = defs.NUM_LEVELS - 1
        shift = defs.LEVEL_SHIFTS[last - 1]
        size_4k = PageSize.for_level(last)
        recorded: list[tuple[int, Mapping, list[tuple[int, int]]]] = []
        seen_leaves: set[int] = set()
        # vaddr >> 21 -> (leaf table paddr, interior path).  The walk is
        # read-only until the point of no return, so a leaf table found
        # once serves every other 4K page of its 2MB region: one load +
        # present check per page instead of a four-level descent.
        leaf_tables: dict[int, tuple[int, list[tuple[int, int]]]] = {}
        for vaddr in vaddrs:
            cached = leaf_tables.get(vaddr >> shift)
            if cached is not None:
                table, path = cached
                entry_paddr = self._entry_paddr(table, vaddr, last)
                raw = self.memory.load_u64(entry_paddr)
                if not raw & _PRESENT:
                    raise NotMapped(f"{vaddr:#x} not mapped")
                if entry_paddr in seen_leaves:
                    raise NotMapped(
                        f"{vaddr:#x} covered by a mapping already "
                        f"unmapped in this batch")
                seen_leaves.add(entry_paddr)
                view = entry.decode(raw, last)
                recorded.append((
                    entry_paddr,
                    Mapping(
                        vaddr=defs.vaddr_base(vaddr, size_4k),
                        paddr=view.paddr,
                        size=size_4k,
                        flags=view.flags,
                    ),
                    path,
                ))
                continue
            if not defs.is_canonical(vaddr):
                raise BadRequest(f"non-canonical vaddr {vaddr:#x}")
            table = self.root_paddr
            path = []
            for level in range(defs.NUM_LEVELS):
                entry_paddr = self._entry_paddr(table, vaddr, level)
                raw = self.memory.load_u64(entry_paddr)
                if not raw & _PRESENT:
                    raise NotMapped(f"{vaddr:#x} not mapped")
                if _maps_page(raw, level):
                    if entry_paddr in seen_leaves:
                        raise NotMapped(
                            f"{vaddr:#x} covered by a mapping already "
                            f"unmapped in this batch")
                    seen_leaves.add(entry_paddr)
                    if level == last:
                        leaf_tables[vaddr >> shift] = (table, path)
                    view = entry.decode(raw, level)
                    size = PageSize.for_level(level)
                    recorded.append((
                        entry_paddr,
                        Mapping(
                            vaddr=defs.vaddr_base(vaddr, size),
                            paddr=view.paddr,
                            size=size,
                            flags=view.flags,
                        ),
                        path,
                    ))
                    break
                path.append((table, entry_paddr))
                table = raw & defs.ADDR_MASK
        # point of no return: clear every leaf entry, then free tables
        # the batch emptied (once per distinct path, bottom-up)
        for entry_paddr, _mapping, _path in recorded:
            self.memory.store_u64(entry_paddr, 0)
        collected: set[tuple] = set()
        for _entry_paddr, _mapping, path in recorded:
            key = tuple(entry_paddr for _table, entry_paddr in path)
            if key in collected:
                continue
            collected.add(key)
            self._collect_empty_tables_batch(path)
        return [mapping for _entry_paddr, mapping, _path in recorded]

    def _collect_empty_tables_batch(self, path: list[tuple[int, int]]) -> None:
        """Bottom-up empty collection tolerant of entries a sibling
        path's collection already cleared (shared ancestors in a batch)."""
        for _parent_table, entry_paddr in reversed(path):
            raw = self.memory.load_u64(entry_paddr)
            if not raw & _PRESENT:
                continue  # an earlier path in the batch freed this child
            child = raw & defs.ADDR_MASK
            if not self._table_is_empty(child):
                return
            self.memory.store_u64(entry_paddr, 0)
            self.allocator.free_frame(child)

    def resolve(self, vaddr: int) -> Mapping | None:
        """Return the mapping covering `vaddr`, or None."""
        if not defs.is_canonical(vaddr):
            raise BadRequest(f"non-canonical vaddr {vaddr:#x}")
        table = self.root_paddr
        for level in range(defs.NUM_LEVELS):
            raw = self.memory.load_u64(self._entry_paddr(table, vaddr, level))
            if not raw & _PRESENT:
                return None
            if _maps_page(raw, level):
                view = entry.decode(raw, level)
                size = PageSize.for_level(level)
                return Mapping(
                    vaddr=defs.vaddr_base(vaddr, size),
                    paddr=view.paddr,
                    size=size,
                    flags=view.flags,
                )
            table = raw & defs.ADDR_MASK
        raise AssertionError("unreachable")

    # -- whole-tree operations ---------------------------------------------------

    def mappings(self) -> list[Mapping]:
        """Enumerate all mappings (used by tests and address-space cloning)."""
        out: list[Mapping] = []
        self._walk_tables(self.root_paddr, 0, 0, out)
        return out

    def _walk_tables(self, table: int, level: int, vbase: int, out: list[Mapping]):
        shift = defs.LEVEL_SHIFTS[level]
        words = self.memory.frame_words(table)
        for index, _raw, view in entry.decode_table(words, level):
            if view.kind is EntryKind.EMPTY:
                continue
            child_vbase = vbase | (index << shift)
            if view.kind is EntryKind.PAGE:
                out.append(
                    Mapping(
                        vaddr=child_vbase,
                        paddr=view.paddr,
                        size=PageSize.for_level(level),
                        flags=view.flags,
                    )
                )
            else:
                self._walk_tables(view.paddr, level + 1, child_vbase, out)

    def destroy(self) -> None:
        """Unmap everything and free every table frame including the root."""
        self._free_tables(self.root_paddr, 0)

    def _free_tables(self, table: int, level: int) -> None:
        if level < defs.NUM_LEVELS - 1:
            words = self.memory.frame_words(table)
            for _index, _raw, view in entry.decode_table(words, level):
                if view.kind is EntryKind.TABLE:
                    self._free_tables(view.paddr, level + 1)
        self.allocator.free_frame(table)

    def table_frames(self) -> list[int]:
        """All frames used to store the tree (root included)."""
        frames: list[int] = []
        self._collect_frames(self.root_paddr, 0, frames)
        return frames

    def _collect_frames(self, table: int, level: int, out: list[int]) -> None:
        out.append(table)
        if level >= defs.NUM_LEVELS - 1:
            return
        words = self.memory.frame_words(table)
        for _index, _raw, view in entry.decode_table(words, level):
            if view.kind is EntryKind.TABLE:
                self._collect_frames(view.paddr, level + 1, out)
