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


_PRESENT = 1 << defs.BIT_PRESENT
_HUGE = 1 << defs.BIT_HUGE


@dataclass(frozen=True)
class Mapping:
    """One mapping as reported by `resolve` and `unmap`."""

    vaddr: int  # page base virtual address
    paddr: int  # frame base physical address
    size: PageSize
    flags: Flags


def _mapping(vaddr: int, raw: int, level: int) -> Mapping:
    """The mapping a page entry `raw` at `level` gives `vaddr`."""
    view = entry.decode(raw, level)
    size = PageSize.for_level(level)
    return Mapping(vaddr=defs.vaddr_base(vaddr, size), paddr=view.paddr,
                   size=size, flags=view.flags)


def _check_map_args(vaddr: int, frame_paddr: int, size: PageSize) -> None:
    mask = int(size) - 1
    if vaddr & mask:
        raise BadRequest(f"vaddr {vaddr:#x} not aligned to {size.name}")
    if frame_paddr & mask:
        raise BadRequest(f"frame {frame_paddr:#x} not aligned to {size.name}")
    if frame_paddr & ~defs.ADDR_MASK:
        raise BadRequest(f"frame {frame_paddr:#x} beyond physical range")


class PageTable:
    """An x86-64 four-level page table over simulated physical memory."""

    def __init__(self, memory: PhysicalMemory, allocator, root_paddr: int | None = None):
        self.memory = memory
        self.allocator = allocator
        if root_paddr is None:
            root_paddr = allocator.alloc_frame()
            memory.zero_frame(root_paddr)
        self.root_paddr = root_paddr

    # -- the walk -----------------------------------------------------------------

    def _entry_paddr(self, table_paddr: int, vaddr: int, level: int) -> int:
        # shift+mask == the bit-field extraction (VC addr_index_extract_*)
        index = (vaddr >> defs.LEVEL_SHIFTS[level]) & 0x1FF
        return table_paddr + index * defs.ENTRY_SIZE

    def _descend(self, vaddr: int, stop: int, path: list[int] | None = None):
        """Follow present table entries from the root; stop at the first
        entry that is non-present, maps a page, or sits at level `stop`.
        Returns ``(table, level, entry_paddr, raw)`` of that entry and
        appends the paddr of every table entry followed to `path`.

        The one four-level walk: `map_frame`, `unmap`, `unmap_batch` and
        `resolve` are readings of it.  The bit tests are semantically
        `entry.decode` (which the refinement proof checks) without an
        EntryView per step, as the compiled Rust original would be."""
        if not defs.is_canonical(vaddr):
            raise BadRequest(f"non-canonical vaddr {vaddr:#x}")
        load = self.memory.load_u64
        table = self.root_paddr
        for level in range(defs.NUM_LEVELS):
            entry_paddr = self._entry_paddr(table, vaddr, level)
            raw = load(entry_paddr)
            if (level == stop or not raw & _PRESENT
                    or (raw & _HUGE and level in (1, 2))):
                return table, level, entry_paddr, raw
            if path is not None:
                path.append(entry_paddr)
            table = raw & defs.ADDR_MASK
        raise AssertionError("unreachable: stop is a level")

    def _set_leaf(self, entry_paddr: int, raw: int, vaddr: int,
                  frame_paddr: int, flags: Flags, level: int) -> None:
        if raw & _PRESENT:
            raise AlreadyMapped(f"{vaddr:#x} already mapped")
        self.memory.store_u64(
            entry_paddr, entry.encode_page(frame_paddr, flags, level))

    # -- operations ---------------------------------------------------------------

    def map_frame(
        self, vaddr: int, frame_paddr: int, size: PageSize, flags: Flags
    ) -> int:
        """Map the page of `size` at `vaddr` to the physical frame at
        `frame_paddr`.  Returns the paddr of the table holding the new
        leaf entry (:meth:`map_batch` caches it to skip repeat walks).

        Raises :class:`BadRequest` on misalignment, :class:`AlreadyMapped`
        when any existing mapping overlaps the range, and whatever the
        allocator raises when a needed intermediate table cannot be
        allocated (in which case the tree is left unchanged)."""
        _check_map_args(vaddr, frame_paddr, size)
        target = size.level
        table, level, entry_paddr, raw = self._descend(vaddr, target)
        if level < target:
            if raw & _PRESENT:
                raise AlreadyMapped(
                    f"{vaddr:#x} covered by a "
                    f"{PageSize.for_level(level).name} page at "
                    f"{defs.LEVEL_NAMES[level]}"
                )
            created: list[tuple[int, int]] = []  # (entry paddr, table frame)
            try:
                for child_level in range(level + 1, target + 1):
                    table = self.allocator.alloc_frame()
                    self.memory.zero_frame(table)
                    self.memory.store_u64(entry_paddr, entry.encode_table(table))
                    created.append((entry_paddr, table))
                    entry_paddr = self._entry_paddr(table, vaddr, child_level)
            except Exception:
                # Roll back the tables created so far so a failed map
                # leaves the tree exactly as it was.
                for entry_paddr, table in reversed(created):
                    self.memory.store_u64(entry_paddr, 0)
                    self.allocator.free_frame(table)
                raise
        self._set_leaf(entry_paddr, raw, vaddr, frame_paddr, flags, target)
        return table

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
                    _check_map_args(vaddr, frame_paddr, size)
                    leaf = self._entry_paddr(table, vaddr, last)
                    self._set_leaf(leaf, self.memory.load_u64(leaf), vaddr,
                                   frame_paddr, flags, last)
                done.append(vaddr)
        except Exception:  # a PtError, or whatever the allocator raises
            for vaddr in reversed(done):
                self.unmap(vaddr)
            raise
        return len(done)

    def unmap(self, vaddr: int) -> Mapping:
        """Remove the mapping covering `vaddr` and return it.

        Intermediate tables left empty by the removal are freed.  Raises
        :class:`NotMapped` when nothing covers `vaddr`."""
        path: list[int] = []
        _table, level, entry_paddr, raw = self._descend(
            vaddr, defs.NUM_LEVELS - 1, path)
        if not raw & _PRESENT:
            raise NotMapped(f"{vaddr:#x} not mapped")
        self.memory.store_u64(entry_paddr, 0)
        self._collect_empty_tables(path)
        return _mapping(vaddr, raw, level)

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
        recorded: dict[int, tuple[Mapping, list[int]]] = {}  # by leaf entry
        # vaddr >> 21 -> (leaf table paddr, interior path).  The walk is
        # read-only until the point of no return, so a leaf table found
        # once serves every other 4K page of its 2MB region: one load +
        # present check per page instead of a four-level descent.
        leaf_tables: dict[int, tuple[int, list[int]]] = {}
        for vaddr in vaddrs:
            cached = leaf_tables.get(vaddr >> shift)
            if cached is not None:
                table, path = cached
                level = last
                entry_paddr = self._entry_paddr(table, vaddr, last)
                raw = self.memory.load_u64(entry_paddr)
            else:
                path = []
                table, level, entry_paddr, raw = self._descend(
                    vaddr, last, path)
                if level == last:
                    leaf_tables[vaddr >> shift] = (table, path)
            if not raw & _PRESENT:
                raise NotMapped(f"{vaddr:#x} not mapped")
            if entry_paddr in recorded:
                raise NotMapped(
                    f"{vaddr:#x} covered by a mapping already "
                    f"unmapped in this batch")
            recorded[entry_paddr] = (_mapping(vaddr, raw, level), path)
        # point of no return: clear every leaf entry, then free tables
        # the batch emptied (once per distinct path, bottom-up)
        for entry_paddr in recorded:
            self.memory.store_u64(entry_paddr, 0)
        collected: set[tuple] = set()
        for _removed, path in recorded.values():
            key = tuple(path)
            if key not in collected:
                collected.add(key)
                self._collect_empty_tables(path)
        return [mapping for mapping, _path in recorded.values()]

    def _collect_empty_tables(self, path: list[int]) -> None:
        """Free tables on the walk path that became empty, bottom-up,
        tolerant of entries a sibling path's collection already cleared
        (shared ancestors in a batch)."""
        for entry_paddr in reversed(path):
            raw = self.memory.load_u64(entry_paddr)
            if not raw & _PRESENT:
                continue  # an earlier path in the batch freed this child
            child = raw & defs.ADDR_MASK
            if not self.memory.is_zero_range(child, defs.PAGE_SIZE):
                return
            self.memory.store_u64(entry_paddr, 0)
            self.allocator.free_frame(child)

    def resolve(self, vaddr: int) -> Mapping | None:
        """Return the mapping covering `vaddr`, or None."""
        _table, level, _entry_paddr, raw = self._descend(
            vaddr, defs.NUM_LEVELS - 1)
        return _mapping(vaddr, raw, level) if raw & _PRESENT else None

    def tables_needed(self, entries) -> int:
        """Table frames that mapping the ``(vaddr, frame, size, flags)``
        `entries` allocates; a table shared by entries counts once."""
        missing: set[tuple[int, int]] = set()
        for vaddr, _frame, size, _flags in entries:
            if defs.is_canonical(vaddr):  # else refused before allocating
                _table, level, _entry, raw = self._descend(vaddr, size.level)
                if not raw & _PRESENT:  # a table per level below `level`
                    missing.update((lvl, vaddr >> defs.LEVEL_SHIFTS[lvl - 1])
                                   for lvl in range(level + 1, size.level + 1))
        return len(missing)

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
