"""Whole-table scans read a table as one `frame_words` unpack and skip
zero words; the per-entry loops they replaced live on here as the
references.  Every scan must agree with its reference on every
post-state of the proof's scenario space, and the skip must not hide a
non-present word with stray bits."""

import pytest

from repro.core.pt import defs, entry
from repro.core.pt.entry import EntryKind
from repro.core.pt.impl import Mapping, PageTable, PtError, SimpleFrameAllocator
from repro.core.refine import proof as proofmod
from repro.core.refine.interp import IllFormedTree, interpret
from repro.core.refine.scenarios import (
    MB,
    MEMORY_SIZE,
    default_vocabulary,
    generate_scenarios,
)
from repro.core.spec.highlevel import AbstractPte
from repro.hw.mem import PhysicalMemory
from repro.nros.pt_unverified import UnverifiedPageTable

_PRESENT = 1 << defs.BIT_PRESENT
_HUGE = 1 << defs.BIT_HUGE


# -- the per-entry references (512 load_u64 + decode calls per table) ---------


def _entries(memory, table, level):
    for index in range(defs.ENTRIES_PER_TABLE):
        raw = memory.load_u64(table + index * defs.ENTRY_SIZE)
        yield index, raw, entry.decode(raw, level)


def ref_interpret(memory, table, level=0, vbase=0, strict=True):
    mappings = {}
    for index, raw, view in _entries(memory, table, level):
        if view.kind is EntryKind.EMPTY:
            if strict and raw != 0:
                raise IllFormedTree(f"stray bits: {raw:#x}")
            continue
        entry_vbase = vbase | (index << defs.LEVEL_SHIFTS[level])
        if view.kind is EntryKind.PAGE:
            mappings[entry_vbase] = AbstractPte(
                view.paddr, defs.PageSize.for_level(level), view.flags)
        else:
            mappings.update(ref_interpret(
                memory, view.paddr, level + 1, entry_vbase, strict))
    return mappings


def ref_reachable_entries(memory, root):
    stack = [(root, 0)]
    while stack:
        table, level = stack.pop()
        for index, raw, view in _entries(memory, table, level):
            yield level, table, index, raw
            if view.kind is EntryKind.TABLE:
                stack.append((view.paddr, level + 1))


def ref_table_frames(memory, table, level=0):
    frames = [table]
    if level < defs.NUM_LEVELS - 1:
        for _index, _raw, view in _entries(memory, table, level):
            if view.kind is EntryKind.TABLE:
                frames += ref_table_frames(memory, view.paddr, level + 1)
    return frames


def ref_mappings(memory, table, level=0, vbase=0):
    out = []
    for index, _raw, view in _entries(memory, table, level):
        child_vbase = vbase | (index << defs.LEVEL_SHIFTS[level])
        if view.kind is EntryKind.PAGE:
            out.append(Mapping(child_vbase, view.paddr,
                               defs.PageSize.for_level(level), view.flags))
        elif view.kind is EntryKind.TABLE:
            out += ref_mappings(memory, view.paddr, level + 1, child_vbase)
    return out


def ref_subtree_is_empty(memory, table, level):
    for index in range(defs.ENTRIES_PER_TABLE):
        raw = memory.load_u64(table + (index << 3))
        if not raw & _PRESENT:
            continue
        if level == 3 or raw & _HUGE:
            return False
        if not ref_subtree_is_empty(memory, raw & defs.ADDR_MASK, level + 1):
            return False
    return True


def ref_invariants(memory, pt):
    """The five scanning invariants, recomputed from the references."""
    entries = list(ref_reachable_entries(memory, pt.root_paddr))
    tables = {}
    for level, table, _index, raw in entries:
        tables[table, level] = tables.get((table, level), 0) + (raw & _PRESENT)
    return {
        "entries_well_formed": all(
            entry.is_well_formed(raw, level) for level, _, _, raw in entries),
        "no_stray_bits_on_empty": all(
            raw == 0 for _, _, _, raw in entries if not raw & 1),
        "frames_aligned": all(
            view.paddr % int(defs.PageSize.for_level(level)) == 0
            for level, _, _, raw in entries
            for view in [entry.decode(raw, level)]
            if view.kind is EntryKind.PAGE),
        "no_empty_intermediate": all(
            present or level == 0 for (_, level), present in tables.items()),
        "no_pml4_huge_bit": not any(
            raw & 1 and raw & _HUGE
            for level, _, _, raw in entries if level == 0),
    }


# -- the state space: every post-state the bounded proof visits ---------------


def _post_states(table_cls):
    """(label, memory, pt) after every vocabulary op — succeeded or
    refused — from every scenario of the quick proof population."""
    for scenario in generate_scenarios(max_depth=2, max_scenarios=12):
        for op in default_vocabulary():
            memory = PhysicalMemory(MEMORY_SIZE)
            pt = table_cls(memory, SimpleFrameAllocator(memory, start=8 * MB))
            for prior in scenario.ops:
                prior.apply(pt)
            try:
                op.apply(pt)
            except PtError:
                pass
            yield f"{scenario.label()} then {op.label()}", memory, pt


@pytest.fixture(scope="module")
def verified_states():
    return list(_post_states(PageTable))


def test_state_space_is_the_quick_population(verified_states):
    assert len(verified_states) == 12 * len(default_vocabulary())
    assert max(len(pt.table_frames()) for _, _, pt in verified_states) >= 7


def test_interpret_agrees_with_per_entry_reference(verified_states):
    for label, memory, pt in verified_states:
        for strict in (True, False):
            got = interpret(memory, pt.root_paddr, strict=strict)
            assert dict(got.mappings.items()) == ref_interpret(
                memory, pt.root_paddr, strict=strict), label


def test_reachable_entries_are_the_nonzero_reference_entries(verified_states):
    for label, memory, pt in verified_states:
        reference = list(ref_reachable_entries(memory, pt.root_paddr))
        assert len(reference) == 512 * len(pt.table_frames())
        assert list(proofmod._reachable_entries(memory, pt.root_paddr)) == [
            item for item in reference if item[3] != 0], label


def test_scanning_invariants_agree_with_reference(verified_states):
    for label, memory, pt in verified_states:
        for name, expected in ref_invariants(memory, pt).items():
            assert proofmod.TREE_INVARIANTS[name](memory, pt) is expected, \
                (label, name)


def test_table_frames_and_mappings_agree_with_reference(verified_states):
    for label, memory, pt in verified_states:
        assert pt.table_frames() == ref_table_frames(
            memory, pt.root_paddr), label
        assert pt.mappings() == ref_mappings(memory, pt.root_paddr), label


def test_destroy_frees_exactly_the_reference_frames(verified_states):
    for label, memory, pt in verified_states:
        expected = ref_table_frames(memory, pt.root_paddr)
        freed = []
        pt.allocator.free_frame = freed.append
        pt.destroy()
        assert sorted(freed) == sorted(expected), label


def test_unverified_subtree_scans_agree_with_reference():
    """No GC on this table, so unmaps leave empty subtrees behind —
    both answers of `_subtree_is_empty` occur."""
    answers = set()
    for label, memory, pt in _post_states(UnverifiedPageTable):
        subtrees = [(pt.root_paddr, 0)] + [
            (raw & defs.ADDR_MASK, 1)
            for raw in memory.frame_words(pt.root_paddr) if raw & _PRESENT]
        for table, level in subtrees:
            got = pt._subtree_is_empty(table, level)
            assert got is ref_subtree_is_empty(memory, table, level), label
            answers.add(got)
        expected = ref_table_frames(memory, pt.root_paddr)
        freed = []
        pt.allocator.free_frame = freed.append
        pt._free_subtree(pt.root_paddr, 0)
        assert sorted(freed) == sorted(expected), label
    assert answers == {True, False}


# -- must-fail mutant for the fast path ----------------------------------------


@pytest.mark.parametrize("level", range(defs.NUM_LEVELS))
def test_stray_bits_on_a_non_present_word_are_still_seen(level):
    """`raw = 0x2`: present clear, one stray bit.  Skipping on the
    present bit instead of on zero would hide it from every check."""
    memory = PhysicalMemory(MEMORY_SIZE)
    pt = PageTable(memory, SimpleFrameAllocator(memory, start=8 * MB))
    pt.map_frame(0x1000, 0x10_0000, defs.PageSize.SIZE_4K,
                 defs.Flags.user_rw())
    before = interpret(memory, pt.root_paddr)
    table = pt.table_frames()[level]
    memory.store_u64(table + 0x100 * defs.ENTRY_SIZE, 0x2)

    with pytest.raises(IllFormedTree, match="stray"):
        interpret(memory, pt.root_paddr)
    assert not proofmod.inv_no_stray_bits_on_empty(memory, pt)
    assert not proofmod.inv_entries_well_formed(memory, pt)
    assert ref_invariants(memory, pt)["no_stray_bits_on_empty"] is False
    # a lenient reading ignores the word, as the hardware walker would
    assert interpret(memory, pt.root_paddr, strict=False) == before
    assert pt.mappings() == ref_mappings(memory, pt.root_paddr)
    assert (level, table, 0x100, 0x2) in list(
        proofmod._reachable_entries(memory, pt.root_paddr))


def test_decode_shares_one_empty_view():
    assert entry.decode(0, 0) is entry.decode(0x2, 3)
    assert entry.decode(0, 1).kind is EntryKind.EMPTY
    assert list(entry.decode_table([0, 0x2, 0, 0x3], 3)) == [
        (1, 0x2, entry.decode(0x2, 3)), (3, 0x3, entry.decode(0x3, 3))]
