"""Assembly of the page-table refinement proof (Figure 2).

Builds the full verification-condition population:

* ``entry-lemmas`` / ``address-lemmas`` / ``marshal-lemmas`` — SMT goals
  (:mod:`repro.core.refine.lemmas`);
* ``invariants`` — structural tree invariants, shown preserved by every
  operation over the bounded scenario space;
* ``simulation`` — the forward-simulation diagrams: implementation
  behaviour matches the high-level spec's transitions, success and failure;
* ``hardware-agreement`` — the independent MMU walker agrees with the
  abstract map on every probe address;
* ``tlb`` — the shootdown protocol keeps TLBs consistent.

`build_proof()` returns a :class:`ProofEngine` whose `run()` produces the
timing population of Figure 1a.  Optional groups (node-replication
linearizability, the client syscall contract) are added by their own
modules to keep the layering of the paper's Figure 2.
"""

from __future__ import annotations

from repro.core.pt import defs, entry
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import (
    AlreadyMapped,
    BadRequest,
    NotMapped,
    PageTable,
    PtError,
    SimpleFrameAllocator,
)
from repro.core.refine import scenarios as scen
from repro.core.refine.interp import interpret
from repro.core.refine.lemmas import all_lemma_vcs
from repro.core.spec import hardware as hwspec
from repro.core.spec.highlevel import AbstractState, map_enabled, unmap_enabled
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import AccessType, Mmu, TranslationFault
from repro.hw.tlb import Tlb
from repro.verif.engine import ProofEngine
from repro.verif.vc import VC

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# Tree invariants, as individual named predicates over (memory, pt)
# ---------------------------------------------------------------------------


def _reachable_entries(memory, root):
    """Yield (level, table_paddr, index, raw) for every reachable entry
    that is not the zero word (which satisfies every predicate below)."""
    stack = [(root, 0)]
    while stack:
        table, level = stack.pop()
        words = memory.frame_words(table)
        for index, raw, view in entry.decode_table(words, level):
            yield level, table, index, raw
            if view.kind is entry.EntryKind.TABLE:
                stack.append((view.paddr, level + 1))


def inv_entries_well_formed(memory, pt):
    return all(
        entry.is_well_formed(raw, level)
        for level, _, _, raw in _reachable_entries(memory, pt.root_paddr)
    )


def inv_no_shared_tables(memory, pt):
    frames = pt.table_frames()
    return len(frames) == len(set(frames))


def inv_no_stray_bits_on_empty(memory, pt):
    return all(
        raw == 0
        for level, _, _, raw in _reachable_entries(memory, pt.root_paddr)
        if not raw & 1
    )


def inv_frames_aligned(memory, pt):
    for level, _, _, raw in _reachable_entries(memory, pt.root_paddr):
        view = entry.decode(raw, level)
        if view.kind is entry.EntryKind.PAGE:
            if view.paddr % int(PageSize.for_level(level)):
                return False
    return True


def inv_no_empty_intermediate(memory, pt):
    stack = [(pt.root_paddr, 0)]
    while stack:
        table, level = stack.pop()
        present = 0
        words = memory.frame_words(table)
        for _index, _raw, view in entry.decode_table(words, level):
            if view.kind is not entry.EntryKind.EMPTY:
                present += 1
            if view.kind is entry.EntryKind.TABLE:
                stack.append((view.paddr, level + 1))
        if level > 0 and present == 0:
            return False
    return True


def inv_no_pml4_huge_bit(memory, pt):
    return not any(
        raw & 1 and raw & (1 << defs.BIT_HUGE)
        for raw in memory.frame_words(pt.root_paddr)
    )


def inv_tables_within_memory(memory, pt):
    return all(0 <= frame < memory.size for frame in pt.table_frames())


def inv_interp_no_overlap(memory, pt):
    abstract = interpret(memory, pt.root_paddr)
    spans = sorted(
        (base, base + int(pte.size)) for base, pte in abstract.mappings.items()
    )
    return all(b >= a_end for (_, a_end), (b, _) in zip(spans, spans[1:]))


def inv_interp_aligned(memory, pt):
    abstract = interpret(memory, pt.root_paddr)
    return all(
        base % int(pte.size) == 0 and pte.frame % int(pte.size) == 0
        for base, pte in abstract.mappings.items()
    )


def inv_interp_canonical(memory, pt):
    abstract = interpret(memory, pt.root_paddr)
    return all(
        defs.is_canonical(base) and defs.is_canonical(base + int(pte.size) - 1)
        for base, pte in abstract.mappings.items()
    )


TREE_INVARIANTS = {
    "entries_well_formed": inv_entries_well_formed,
    "no_shared_tables": inv_no_shared_tables,
    "no_stray_bits_on_empty": inv_no_stray_bits_on_empty,
    "frames_aligned": inv_frames_aligned,
    "no_empty_intermediate": inv_no_empty_intermediate,
    "no_pml4_huge_bit": inv_no_pml4_huge_bit,
    "tables_within_memory": inv_tables_within_memory,
    "interp_no_overlap": inv_interp_no_overlap,
    "interp_aligned": inv_interp_aligned,
    "interp_canonical": inv_interp_canonical,
}


# ---------------------------------------------------------------------------
# Operation kinds the preservation VCs quantify over
# ---------------------------------------------------------------------------


def _vocab_ops_of_kind(kind: str):
    vocab = scen.default_vocabulary()
    if kind == "map_4k":
        return [op for op in vocab
                if isinstance(op, scen.MapOp) and op.size is PageSize.SIZE_4K]
    if kind == "map_2m":
        return [op for op in vocab
                if isinstance(op, scen.MapOp) and op.size is PageSize.SIZE_2M]
    if kind == "map_1g":
        return [op for op in vocab
                if isinstance(op, scen.MapOp) and op.size is PageSize.SIZE_1G]
    if kind == "unmap":
        return [op for op in vocab if isinstance(op, scen.UnmapOp)]
    raise ValueError(kind)


OP_KINDS = ("map_4k", "map_2m", "map_1g", "unmap", "failed_op", "resolve")


def _invariant_preservation_vc(
    inv_name: str, kind: str, scenario_source
) -> VC:
    invariant = TREE_INVARIANTS[inv_name]

    def check():
        for scenario in scenario_source():
            if kind == "resolve":
                memory, pt = scenario.build()
                for probe in (0x1000, 0x2000, 0x40_0000, scen.GB, 0x7000):
                    pt.resolve(probe)
                if not invariant(memory, pt):
                    return (scenario.label(), "resolve")
                continue
            if kind == "failed_op":
                ops = scen.default_vocabulary()
            else:
                ops = _vocab_ops_of_kind(kind)
            for op in ops:
                memory, pt = scenario.build()
                try:
                    op.apply(pt)
                    if kind == "failed_op":
                        continue  # only failures interest this kind
                except PtError:
                    if kind != "failed_op":
                        continue  # only successes interest these kinds
                if not invariant(memory, pt):
                    return (scenario.label(), op.label())
        return None

    return VC(
        name=f"inv_{inv_name}_preserved_by_{kind}",
        category="invariants",
        check=check,
        description=f"{inv_name} holds after every {kind} over the scenario space",
    )


# ---------------------------------------------------------------------------
# Simulation diagrams
# ---------------------------------------------------------------------------


def _sim_map_success_vc(size: PageSize, scenario_source) -> VC:
    def check():
        for scenario in scenario_source():
            for op in _vocab_ops_of_kind(f"map_{size.name[5:].lower()}"):
                spec_args = (op.vaddr, op.frame, op.size, op.flags)
                if not map_enabled(scenario.abstract, spec_args):
                    continue
                memory, pt = scenario.build()
                try:
                    op.apply(pt)
                except PtError as exc:
                    return (scenario.label(), op.label(), f"impl failed: {exc}")
                got = interpret(memory, pt.root_paddr)
                expected = scenario.abstract.map_page(*spec_args)
                if got.mappings != expected.mappings:
                    return (scenario.label(), op.label(), "diagram mismatch")
        return None

    return VC(
        name=f"sim_map_{size.name[5:].lower()}_success_commutes",
        category="simulation",
        check=check,
        description=f"spec-enabled {size.name} maps succeed and commute",
    )


def _sim_map_failure_vc(size: PageSize, scenario_source) -> VC:
    def check():
        for scenario in scenario_source():
            for op in _vocab_ops_of_kind(f"map_{size.name[5:].lower()}"):
                spec_args = (op.vaddr, op.frame, op.size, op.flags)
                if map_enabled(scenario.abstract, spec_args):
                    continue
                memory, pt = scenario.build()
                try:
                    op.apply(pt)
                    return (scenario.label(), op.label(),
                            "impl succeeded where spec disabled")
                except (AlreadyMapped, BadRequest):
                    pass
                got = interpret(memory, pt.root_paddr)
                if got.mappings != scenario.abstract.mappings:
                    return (scenario.label(), op.label(),
                            "failed map changed the tree")
        return None

    return VC(
        name=f"sim_map_{size.name[5:].lower()}_failure_agrees",
        category="simulation",
        check=check,
        description=f"spec-disabled {size.name} maps fail and leave state",
    )


def _sim_unmap_success_vc(scenario_source) -> VC:
    def check():
        for scenario in scenario_source():
            for op in _vocab_ops_of_kind("unmap"):
                if not unmap_enabled(scenario.abstract, (op.vaddr,)):
                    continue
                memory, pt = scenario.build()
                base, pte = scenario.abstract.lookup(op.vaddr)
                removed = pt.unmap(op.vaddr)
                if (removed.vaddr, removed.paddr, removed.size) != (
                    base, pte.frame, pte.size,
                ):
                    return (scenario.label(), op.label(), "return mismatch")
                got = interpret(memory, pt.root_paddr)
                expected = scenario.abstract.unmap_page(op.vaddr)
                if got.mappings != expected.mappings:
                    return (scenario.label(), op.label(), "diagram mismatch")
        return None

    return VC(
        name="sim_unmap_success_commutes",
        category="simulation",
        check=check,
        description="spec-enabled unmaps succeed, return the removed "
                    "mapping, and commute",
    )


def _sim_unmap_failure_vc(scenario_source) -> VC:
    def check():
        for scenario in scenario_source():
            for op in _vocab_ops_of_kind("unmap"):
                if unmap_enabled(scenario.abstract, (op.vaddr,)):
                    continue
                memory, pt = scenario.build()
                try:
                    pt.unmap(op.vaddr)
                    return (scenario.label(), op.label(),
                            "unmap of unmapped address succeeded")
                except NotMapped:
                    pass
                got = interpret(memory, pt.root_paddr)
                if got.mappings != scenario.abstract.mappings:
                    return (scenario.label(), op.label(), "tree changed")
        return None

    return VC(
        name="sim_unmap_failure_agrees",
        category="simulation",
        check=check,
        description="unmap fails exactly when the spec says nothing is mapped",
    )


def _sim_resolve_vc(kind: str, scenario_source) -> VC:
    """kind is a size name or 'unmapped'."""

    def check():
        probes = (0x0, 0x1000, 0x1008, 0x2000, 0x2ff8, 0x40_0000,
                  0x40_0000 + 0x10_0000, 1 << 39, scen.GB, scen.GB + 0x12_3000,
                  0x7000, 0x9_9000)
        for scenario in scenario_source():
            memory, pt = scenario.build()
            before = interpret(memory, pt.root_paddr)
            for vaddr in probes:
                hit = scenario.abstract.lookup(vaddr)
                if kind == "unmapped":
                    if hit is not None:
                        continue
                    if pt.resolve(vaddr) is not None:
                        return (scenario.label(), hex(vaddr),
                                "resolve found a phantom mapping")
                    continue
                if hit is None or hit[1].size.name != kind:
                    continue
                base, pte = hit
                resolved = pt.resolve(vaddr)
                if resolved is None:
                    return (scenario.label(), hex(vaddr), "resolve missed")
                if (resolved.vaddr, resolved.paddr, resolved.size,
                        resolved.flags) != (base, pte.frame, pte.size,
                                            pte.flags):
                    return (scenario.label(), hex(vaddr), "resolve mismatch")
            after = interpret(memory, pt.root_paddr)
            if before.mappings != after.mappings:
                return (scenario.label(), "resolve mutated the tree")
        return None

    return VC(
        name=f"sim_resolve_agrees_{kind.lower()}",
        category="simulation",
        check=check,
        description=f"resolve agrees with the abstract map ({kind})",
    )


def _sim_overlap_matrix_vc(new_size: PageSize, old_size: PageSize) -> VC:
    """Direct construction: a page of `old_size` blocks any overlapping map
    of `new_size`, in both nesting directions."""

    def check():
        memory = PhysicalMemory(scen.MEMORY_SIZE)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt = PageTable(memory, allocator)
        region = 1 << 30  # 1 GiB-aligned region, valid base for any size
        pt.map_frame(region, region, old_size, Flags.user_rw())
        before = interpret(memory, pt.root_paddr)

        # candidate overlapping vaddrs: same base, interior page of the
        # larger region, and the enclosing base when new is bigger
        candidates = {region}
        if int(new_size) < int(old_size):
            candidates.add(region + int(old_size) - int(new_size))
            candidates.add(region + int(new_size))
        for vaddr in sorted(candidates):
            try:
                pt.map_frame(vaddr, 0, new_size, Flags.user_rw())
                return (f"map {new_size.name} at {vaddr:#x} over "
                        f"{old_size.name} succeeded")
            except AlreadyMapped:
                pass
        after = interpret(memory, pt.root_paddr)
        if before.mappings != after.mappings:
            return "rejected overlap mutated the tree"
        return None

    return VC(
        name=f"sim_overlap_{new_size.name[5:].lower()}_over_{old_size.name[5:].lower()}",
        category="simulation",
        check=check,
        description=f"{new_size.name} over existing {old_size.name} is rejected",
    )


def _sim_unmap_interior_vc(size: PageSize) -> VC:
    def check():
        memory = PhysicalMemory(scen.MEMORY_SIZE)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt = PageTable(memory, allocator)
        region = 1 << 30
        pt.map_frame(region, region, size, Flags.user_rw())
        interior = region + int(size) // 2 + 0x8
        removed = pt.unmap(interior)
        if removed.vaddr != region:
            return f"interior unmap removed {removed.vaddr:#x}"
        if interpret(memory, pt.root_paddr).mappings:
            return "mapping survived interior unmap"
        return None

    return VC(
        name=f"sim_unmap_interior_{size.name[5:].lower()}",
        category="simulation",
        check=check,
        description=f"unmap through an interior address removes the {size.name} page",
    )


# ---------------------------------------------------------------------------
# Hardware-agreement obligations
# ---------------------------------------------------------------------------


def _hw_walk_agreement_vc(kind: str, scenario_source) -> VC:
    """kind: a size name (mapped agreement) or 'unmapped' (fault
    agreement)."""

    def check():
        for scenario in scenario_source():
            memory, pt = scenario.build()
            if kind != "unmapped" and not any(
                pte.size.name == kind
                for pte in scenario.abstract.mappings.values()
            ):
                continue
            probes = hwspec.probe_addresses_for(scenario.abstract)
            result = hwspec.walk_agrees_with_abstract(
                memory, pt.root_paddr, scenario.abstract, probes
            )
            if result is not None:
                return (scenario.label(),) + result
        return None

    return VC(
        name=f"hw_walk_agrees_{kind.lower()}",
        category="hardware-agreement",
        check=check,
        description=f"MMU walk matches the abstract map ({kind})",
    )


def _hw_permission_vc(which: str) -> VC:
    def check():
        memory = PhysicalMemory(scen.MEMORY_SIZE)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt = PageTable(memory, allocator)
        mmu = Mmu(memory)
        if which == "write_to_readonly":
            pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K,
                         Flags(writable=False, user=True))
            try:
                mmu.translate(pt.root_paddr, 0x1000, AccessType.WRITE,
                              user_mode=True)
                return "write to read-only page did not fault"
            except TranslationFault:
                return None
        if which == "user_to_supervisor":
            pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.kernel_rw())
            try:
                mmu.translate(pt.root_paddr, 0x1000, AccessType.READ,
                              user_mode=True)
                return "user access to supervisor page did not fault"
            except TranslationFault:
                pass
            # and the kernel can still access it
            mmu.translate(pt.root_paddr, 0x1000, AccessType.READ)
            return None
        if which == "execute_nx":
            pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K,
                         Flags(writable=True, user=True, executable=False))
            try:
                mmu.translate(pt.root_paddr, 0x1000, AccessType.EXECUTE,
                              user_mode=True)
                return "execute of NX page did not fault"
            except TranslationFault:
                return None
        raise ValueError(which)

    return VC(
        name=f"hw_permission_{which}",
        category="hardware-agreement",
        check=check,
        description=f"permission fault behaviour: {which}",
    )


def _hw_memops_vc(which: str, scenario_source) -> VC:
    """Reads/writes through the MMU behave like the abstract read/write."""

    def check():
        for scenario in scenario_source():
            memory, pt = scenario.build()
            mmu = Mmu(memory)
            abstract = scenario.abstract
            writable = [
                (base, pte)
                for base, pte in abstract.mappings.items()
                if pte.flags.writable
            ]
            for base, pte in writable:
                vaddr = base + 0x18
                value = (base ^ 0xA5A5_5A5A) & ((1 << 64) - 1)
                if which == "store_then_load":
                    mmu.store_u64(pt.root_paddr, vaddr, value)
                    if mmu.load_u64(pt.root_paddr, vaddr) != value:
                        return (scenario.label(), hex(vaddr), "readback mismatch")
                    abstract = abstract.write_word(vaddr, value)
                    if abstract.read_word(vaddr) != value:
                        return (scenario.label(), hex(vaddr), "spec mismatch")
                elif which == "aliasing":
                    aliases = [
                        other for other, op in abstract.mappings.items()
                        if op.frame == pte.frame and op.size == pte.size
                    ]
                    if len(aliases) < 2:
                        continue
                    mmu.store_u64(pt.root_paddr, aliases[0] + 0x20, value)
                    got = mmu.load_u64(pt.root_paddr, aliases[1] + 0x20)
                    if got != value:
                        return (scenario.label(), "alias readback mismatch")
        return None

    return VC(
        name=f"hw_memops_{which}",
        category="hardware-agreement",
        check=check,
        description=f"memory semantics through translation: {which}",
    )


def _hw_resolve_vs_walk_vc(size: PageSize, scenario_source) -> VC:
    def check():
        for scenario in scenario_source():
            memory, pt = scenario.build()
            mmu = Mmu(memory)
            for base, pte in scenario.abstract.mappings.items():
                if pte.size != size:
                    continue
                for vaddr in (base, base + 0x8, base + int(size) - 8):
                    resolved = pt.resolve(vaddr)
                    walked = mmu.walk(pt.root_paddr, vaddr)
                    if resolved is None:
                        return (scenario.label(), hex(vaddr), "resolve missed")
                    if (walked.frame_paddr, walked.page_size, walked.flags) != (
                        resolved.paddr, resolved.size, resolved.flags,
                    ):
                        return (scenario.label(), hex(vaddr), "disagreement")
        return None

    return VC(
        name=f"hw_resolve_matches_walk_{size.name[5:].lower()}",
        category="hardware-agreement",
        check=check,
        description=f"impl resolve and MMU walk agree on {size.name} pages",
    )


# ---------------------------------------------------------------------------
# TLB obligations
# ---------------------------------------------------------------------------


def _tlb_vc(which: str, scenario_source) -> VC:
    def check():
        if which in ("shootdown_4k", "shootdown_2m", "shootdown_1g"):
            size = {"shootdown_4k": PageSize.SIZE_4K,
                    "shootdown_2m": PageSize.SIZE_2M,
                    "shootdown_1g": PageSize.SIZE_1G}[which]
            memory = PhysicalMemory(scen.MEMORY_SIZE)
            allocator = SimpleFrameAllocator(memory, start=8 * MB)
            pt = PageTable(memory, allocator)
            mmu = Mmu(memory)
            region = 1 << 30
            pt.map_frame(region, region, size, Flags.user_rw())
            tlb = Tlb()
            tlb.insert(mmu.walk(pt.root_paddr, region + 0x8))
            pt.unmap(region)
            tlb.invalidate_page(region + 0x8)  # the shootdown
            result = hwspec.tlb_consistent(
                memory, pt.root_paddr, tlb, [region, region + 0x8]
            )
            return result

        if which == "fill_consistent":
            for scenario in scenario_source():
                memory, pt = scenario.build()
                mmu = Mmu(memory)
                tlb = Tlb()
                for base in scenario.abstract.mappings.keys():
                    tlb.insert(mmu.walk(pt.root_paddr, base))
                probes = hwspec.probe_addresses_for(scenario.abstract)
                result = hwspec.tlb_consistent(
                    memory, pt.root_paddr, tlb, probes
                )
                if result is not None:
                    return (scenario.label(),) + result
            return None

        if which == "flush_consistent":
            for scenario in scenario_source():
                memory, pt = scenario.build()
                mmu = Mmu(memory)
                tlb = Tlb()
                for base in scenario.abstract.mappings.keys():
                    tlb.insert(mmu.walk(pt.root_paddr, base))
                # mutate arbitrarily, then a full flush must restore
                # consistency no matter what changed
                for op in scen.default_vocabulary():
                    try:
                        op.apply(pt)
                    except PtError:
                        pass
                tlb.flush()
                probes = hwspec.probe_addresses_for(
                    interpret(memory, pt.root_paddr)
                )
                result = hwspec.tlb_consistent(memory, pt.root_paddr, tlb,
                                               probes)
                if result is not None:
                    return (scenario.label(),) + result
            return None

        if which == "remap_after_shootdown":
            memory = PhysicalMemory(scen.MEMORY_SIZE)
            allocator = SimpleFrameAllocator(memory, start=8 * MB)
            pt = PageTable(memory, allocator)
            mmu = Mmu(memory)
            tlb = Tlb()
            pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
            tlb.insert(mmu.walk(pt.root_paddr, 0x1000))
            pt.unmap(0x1000)
            tlb.invalidate_page(0x1000)
            pt.map_frame(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
            tlb.insert(mmu.walk(pt.root_paddr, 0x1000))
            hit = tlb.lookup(0x1000)
            if hit is None or hit.paddr != 0x20_0000:
                return "remapped translation not visible"
            return hwspec.tlb_consistent(memory, pt.root_paddr, tlb, [0x1000])

        if which == "eviction_preserves_consistency":
            memory = PhysicalMemory(scen.MEMORY_SIZE)
            allocator = SimpleFrameAllocator(memory, start=8 * MB)
            pt = PageTable(memory, allocator)
            mmu = Mmu(memory)
            tlb = Tlb(capacity=4)
            vaddrs = [0x1000 * (i + 1) for i in range(12)]
            for i, vaddr in enumerate(vaddrs):
                pt.map_frame(vaddr, 0x10_0000 + 0x1000 * i,
                             PageSize.SIZE_4K, Flags.user_rw())
                tlb.insert(mmu.walk(pt.root_paddr, vaddr))
            if len(tlb) > 4:
                return "TLB exceeded capacity"
            return hwspec.tlb_consistent(memory, pt.root_paddr, tlb, vaddrs)

        if which == "stale_entry_detected":
            # The consistency checker must *catch* a skipped shootdown —
            # this VC guards the checker itself against vacuity.
            memory = PhysicalMemory(scen.MEMORY_SIZE)
            allocator = SimpleFrameAllocator(memory, start=8 * MB)
            pt = PageTable(memory, allocator)
            mmu = Mmu(memory)
            tlb = Tlb()
            pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
            tlb.insert(mmu.walk(pt.root_paddr, 0x1000))
            pt.unmap(0x1000)  # no invalidation: protocol violated
            result = hwspec.tlb_consistent(memory, pt.root_paddr, tlb, [0x1000])
            if result is None:
                return "checker failed to detect a stale TLB entry"
            return None

        raise ValueError(which)

    return VC(
        name=f"tlb_{which}",
        category="tlb",
        check=check,
        description=f"TLB protocol obligation: {which}",
    )


# ---------------------------------------------------------------------------
# End-to-end refinement traces (the theorem of Section 4.4)
# ---------------------------------------------------------------------------


def _refinement_trace_vc(which: str) -> VC:
    """Replay a long pseudo-random operation trace and check that the
    abstraction of every intermediate concrete state equals the state of
    the high-level machine run on the same (successful) operations, and
    that observable return values agree."""
    import random

    def check():
        rng = random.Random(0xC0FFEE if which == "state" else 0xBEEF)
        memory = PhysicalMemory(scen.MEMORY_SIZE)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt = PageTable(memory, allocator)
        spec = AbstractState()
        vocab = scen.default_vocabulary()
        probes = (0x1000, 0x2000, 0x40_0000, scen.GB, 1 << 39, 0x7000)
        for step in range(120):
            op = rng.choice(vocab)
            try:
                op.apply(pt)
                impl_ok = True
            except PtError:
                impl_ok = False
            if isinstance(op, scen.MapOp):
                spec_args = (op.vaddr, op.frame, op.size, op.flags)
                spec_ok = map_enabled(spec, spec_args)
                if spec_ok:
                    spec = spec.map_page(*spec_args)
            else:
                spec_ok = unmap_enabled(spec, (op.vaddr,))
                if spec_ok:
                    spec = spec.unmap_page(op.vaddr)
            if impl_ok != spec_ok:
                return (f"step {step}", op.label(),
                        f"impl_ok={impl_ok} spec_ok={spec_ok}")
            if which == "state":
                got = interpret(memory, pt.root_paddr)
                if got.mappings != spec.mappings:
                    return (f"step {step}", op.label(), "abstraction diverged")
            else:  # observable return values of resolve
                for vaddr in probes:
                    resolved = pt.resolve(vaddr)
                    hit = spec.lookup(vaddr)
                    if (resolved is None) != (hit is None):
                        return (f"step {step}", hex(vaddr),
                                "resolve observability mismatch")
                    if resolved is not None:
                        base, pte = hit
                        if (resolved.vaddr, resolved.paddr) != (base, pte.frame):
                            return (f"step {step}", hex(vaddr),
                                    "resolve returned different values")
        return None

    return VC(
        name=f"refinement_trace_{which}",
        category="refinement",
        check=check,
        description="every behaviour of the implementation corresponds to a "
                    f"behaviour of the high-level spec ({which})",
    )


def _tlb_context_switch_vc() -> VC:
    """Flushing on address-space switch keeps translations consistent even
    across two different page tables sharing one TLB (CR3 reload)."""

    def check():
        memory = PhysicalMemory(scen.MEMORY_SIZE)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt_a = PageTable(memory, allocator)
        pt_b = PageTable(memory, allocator)
        pt_a.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
        pt_b.map_frame(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
        mmu = Mmu(memory)
        tlb = Tlb()
        tlb.insert(mmu.walk(pt_a.root_paddr, 0x1000))
        # context switch: CR3 reload flushes the (non-global) TLB
        tlb.flush()
        result = hwspec.tlb_consistent(memory, pt_b.root_paddr, tlb, [0x1000])
        if result is not None:
            return result
        tlb.insert(mmu.walk(pt_b.root_paddr, 0x1000))
        hit = tlb.lookup(0x1000)
        if hit is None or hit.frame_paddr != 0x20_0000:
            return "process B saw process A's translation"
        return None

    return VC(
        name="tlb_context_switch_flush",
        category="tlb",
        check=check,
        description="CR3 reload isolates address spaces sharing a TLB",
    )


# ---------------------------------------------------------------------------
# Proof assembly
# ---------------------------------------------------------------------------


def proof_structure() -> list[str]:
    """Render the proof structure of Figure 2 as text: the high-level
    spec on top, refinement in the middle, implementation + hardware spec
    below, with the VC groups attached to each layer."""
    return [
        "+--------------------------------------------------------------+",
        "| (2) High-level specification                                 |",
        "|     state: Map VAddr -> PTE;  ops: map / unmap / resolve     |",
        "|     module: repro.core.spec.highlevel                        |",
        "+------------------------------^-------------------------------+",
        "                               | refinement proofs              ",
        "                               | groups: entry-lemmas,          ",
        "                               |   address-lemmas, invariants,  ",
        "                               |   simulation, refinement       ",
        "+------------------------------+-------------------------------+",
        "| (3) Page-table implementation   (1) Hardware specification   |",
        "|     executable map/unmap/        MMU walker + TLB model      |",
        "|     resolve over PT bits         repro.hw.mmu / repro.hw.tlb |",
        "|     repro.core.pt.impl                                       |",
        "|     groups: hardware-agreement, tlb                          |",
        "+--------------------------------------------------------------+",
        "  client contract (Sec. 3): groups contract, marshal-lemmas    ",
        "  concurrency (Sec. 4.3):   group nr-linearizability           ",
    ]


class _ScenarioCache:
    """Builds the scenario list once and shares it across VCs."""

    def __init__(self, max_depth: int, max_scenarios: int) -> None:
        self.max_depth = max_depth
        self.max_scenarios = max_scenarios
        self._scenarios: list | None = None

    def __call__(self):
        if self._scenarios is None:
            self._scenarios = scen.generate_scenarios(
                max_depth=self.max_depth, max_scenarios=self.max_scenarios
            )
        return self._scenarios


def build_proof(
    include_lemmas: bool = True,
    include_structural: bool = True,
    include_nr: bool = True,
    include_contract: bool = True,
    include_sched: bool = False,
    include_rg: bool = False,
    scenario_depth: int = 3,
    scenario_cap: int = 60,
) -> ProofEngine:
    """Assemble the full proof as a :class:`ProofEngine`.

    The default configuration registers the complete VC population used by
    the Figure 1a benchmark; the flags let tests and ablations run layers
    in isolation.

    The engine carries a `rebuild_spec` naming this builder and its exact
    arguments: the provenance `repro.prover`'s cache keys the structural
    VCs' verdicts by.
    """
    engine = ProofEngine()
    engine.rebuild_spec = ("pt-refinement", {
        "include_lemmas": include_lemmas,
        "include_structural": include_structural,
        "include_nr": include_nr,
        "include_contract": include_contract,
        "include_sched": include_sched,
        "include_rg": include_rg,
        "scenario_depth": scenario_depth,
        "scenario_cap": scenario_cap,
    })
    source = _ScenarioCache(scenario_depth, scenario_cap)

    if include_lemmas:
        for vc in all_lemma_vcs():
            engine.add(vc, group=vc.category)

    if include_structural:
        for inv_name in TREE_INVARIANTS:
            for kind in OP_KINDS:
                engine.add(
                    _invariant_preservation_vc(inv_name, kind, source),
                    group="invariants",
                )
        for size in PageSize:
            engine.add(_sim_map_success_vc(size, source), group="simulation")
            engine.add(_sim_map_failure_vc(size, source), group="simulation")
        engine.add(_sim_unmap_success_vc(source), group="simulation")
        engine.add(_sim_unmap_failure_vc(source), group="simulation")
        for kind in ("SIZE_4K", "SIZE_2M", "SIZE_1G", "unmapped"):
            engine.add(_sim_resolve_vc(kind, source), group="simulation")
        for new_size in PageSize:
            for old_size in PageSize:
                engine.add(_sim_overlap_matrix_vc(new_size, old_size),
                           group="simulation")
        for size in PageSize:
            engine.add(_sim_unmap_interior_vc(size), group="simulation")

        for kind in ("SIZE_4K", "SIZE_2M", "SIZE_1G", "unmapped"):
            engine.add(_hw_walk_agreement_vc(kind, source),
                       group="hardware-agreement")
        for which in ("write_to_readonly", "user_to_supervisor", "execute_nx"):
            engine.add(_hw_permission_vc(which), group="hardware-agreement")
        for which in ("store_then_load", "aliasing"):
            engine.add(_hw_memops_vc(which, source),
                       group="hardware-agreement")
        for size in PageSize:
            engine.add(_hw_resolve_vs_walk_vc(size, source),
                       group="hardware-agreement")

        for which in ("shootdown_4k", "shootdown_2m", "shootdown_1g",
                      "fill_consistent", "flush_consistent",
                      "remap_after_shootdown",
                      "eviction_preserves_consistency",
                      "stale_entry_detected"):
            engine.add(_tlb_vc(which, source), group="tlb")
        engine.add(_tlb_context_switch_vc(), group="tlb")

        engine.add(_refinement_trace_vc("state"), group="refinement")
        engine.add(_refinement_trace_vc("observable"), group="refinement")

    if include_nr:
        from repro.nr.proof import linearizability_vcs

        for vc in linearizability_vcs():
            engine.add(vc, group="nr-linearizability")

    if include_contract:
        from repro.core.contract.proof import contract_vcs

        for vc in contract_vcs():
            engine.add(vc, group="contract")

    if include_sched:
        from repro.verif.schedproof import scheduler_vcs

        for vc in scheduler_vcs():
            engine.add(vc, group="scheduler")

    if include_rg:
        from repro.verif.rgproof import rg_vcs

        for vc in rg_vcs():
            engine.add(vc, group="rg")

    return engine
