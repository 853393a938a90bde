"""The interpretation (abstraction) function of the refinement proof.

"Given the MMU's interpretation function of the page table in memory, the
implemented map, unmap and resolve functions have the same behavior as their
counterparts in the abstract high-level spec."  This module is that
interpretation function: it reads the raw page-table bits from physical
memory and produces the abstract mathematical map.

It is a *third* reading of the tree, independent of both the implementation
(`PageTable._walk_tables`) and the hardware walker (`Mmu.walk`): it recurses
structurally over tables rather than translating single addresses, so bugs
in either other reading cannot hide.
"""

from __future__ import annotations

from repro import wordlib
from repro.core.pt import defs, entry
from repro.core.pt.entry import EntryKind
from repro.core.spec.highlevel import AbstractPte, AbstractState
from repro.hw.mem import PhysicalMemory
from repro.immutable import FrozenMap


class IllFormedTree(Exception):
    """The bits in memory do not encode a well-formed page-table tree."""


def interpret(
    memory: PhysicalMemory, root_paddr: int, strict: bool = True
) -> AbstractState:
    """Interpret the tree rooted at `root_paddr` as an abstract state.

    With `strict=True`, structural violations (an entry mapping a page at
    PML4 level, misaligned frames, shared table frames / cycles) raise
    :class:`IllFormedTree` — the tree invariants demand our implementation
    never produce such bits."""
    mappings: dict[int, AbstractPte] = {}
    visited: set[int] = set()
    _interpret_table(memory, root_paddr, 0, 0, mappings, visited, strict)
    return AbstractState(mappings=FrozenMap(mappings))


def _interpret_table(
    memory: PhysicalMemory,
    table_paddr: int,
    level: int,
    vbase: int,
    mappings: dict[int, AbstractPte],
    visited: set[int],
    strict: bool,
) -> None:
    if table_paddr in visited:
        raise IllFormedTree(
            f"table frame {table_paddr:#x} reachable twice (cycle or sharing)"
        )
    visited.add(table_paddr)
    if not wordlib.is_aligned(table_paddr, defs.PAGE_SIZE):
        raise IllFormedTree(f"table frame {table_paddr:#x} misaligned")

    shift = defs.LEVEL_SHIFTS[level]
    words = memory.frame_words(table_paddr)
    for index, raw, view in entry.decode_table(words, level):
        if view.kind is EntryKind.EMPTY:  # not present, yet not zero
            if strict:
                raise IllFormedTree(
                    f"non-present entry with stray bits at level {level} "
                    f"index {index}: {raw:#x}"
                )
            continue
        entry_vbase = vbase | (index << shift)
        if view.kind is EntryKind.PAGE:
            if strict and level == 0:
                raise IllFormedTree("PML4 entry maps a page")
            size = defs.PageSize.for_level(level)
            if strict and not wordlib.is_aligned(view.paddr, int(size)):
                raise IllFormedTree(
                    f"page frame {view.paddr:#x} misaligned for {size.name}"
                )
            mappings[entry_vbase] = AbstractPte(view.paddr, size, view.flags)
        else:
            if strict and level == defs.NUM_LEVELS - 1:
                raise IllFormedTree("PT entry marked as a table")
            _interpret_table(
                memory, view.paddr, level + 1, entry_vbase, mappings,
                visited, strict,
            )
