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

The simulation step is stated once, in :func:`_diagram`: the simulation
VCs apply it to one operation from every scenario, the refinement traces
to every step of a long run.

`build_proof()` returns a :class:`ProofEngine` whose `run()` produces the
timing population of Figure 1a.  Optional groups (node-replication
linearizability, the client syscall contract) are added by their own
modules to keep the layering of the paper's Figure 2.
"""

from __future__ import annotations

import functools
import random

from repro.core.pt import defs, entry
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import (
    AlreadyMapped,
    BadRequest,
    Mapping,
    NotMapped,
    PageTable,
    PtError,
)
from repro.core.refine import scenarios as scen
from repro.core.refine.interp import interpret
from repro.core.refine.lemmas import all_lemma_vcs
from repro.core.spec import hardware as hwspec
from repro.core.spec import highlevel as spec
from repro.hw.mmu import AccessType, Mmu, TranslationFault
from repro.hw.tlb import Tlb
from repro.verif.engine import ProofEngine
from repro.verif.vc import VC

_VOCABULARY = tuple(scen.default_vocabulary())

#: The addresses `resolve` is probed at: page bases, interiors and last
#: words of the vocabulary's pages, and unmapped neighbours.
_PROBES = (0x0, 0x1000, 0x1008, 0x2000, 0x2ff8, 0x40_0000,
           0x40_0000 + 0x10_0000, 1 << 39, scen.GB, scen.GB + 0x12_3000,
           0x7000, 0x9_9000)


def _short(size: PageSize) -> str:
    return size.name[5:].lower()  # SIZE_4K -> 4k


def _kind(op) -> str:
    """The OP_KINDS entry a vocabulary op belongs to."""
    return f"map_{_short(op.size)}" if isinstance(op, scen.MapOp) else "unmap"


# ---------------------------------------------------------------------------
# Tree invariants, as individual named predicates over (memory, pt)
# ---------------------------------------------------------------------------


def _tables(memory, root):
    """Yield (level, table_paddr, entries) for every reachable table, where
    `entries` lists (index, raw, view) for each word that is not zero (the
    zero word satisfies every predicate below)."""
    stack = [(root, 0)]
    while stack:
        table, level = stack.pop()
        entries = list(entry.decode_table(memory.frame_words(table), level))
        yield level, table, entries
        stack.extend((view.paddr, level + 1) for _, _, view in entries
                     if view.kind is entry.EntryKind.TABLE)


def _reachable_entries(memory, root):
    """Yield (level, table_paddr, index, raw) for every reachable entry
    that is not the zero word."""
    for level, table, entries in _tables(memory, root):
        for index, raw, _view in entries:
            yield level, table, index, raw


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
    return all(
        view.paddr % int(PageSize.for_level(level)) == 0
        for level, _, entries in _tables(memory, pt.root_paddr)
        for _, _, view in entries if view.kind is entry.EntryKind.PAGE
    )


def inv_no_empty_intermediate(memory, pt):
    return all(
        level == 0 or any(view.kind is not entry.EntryKind.EMPTY
                          for _, _, view in entries)
        for level, _, entries in _tables(memory, pt.root_paddr)
    )


def inv_no_pml4_huge_bit(memory, pt):
    return not any(
        raw & 1 and raw & (1 << defs.BIT_HUGE)
        for raw in memory.frame_words(pt.root_paddr)
    )


def inv_tables_within_memory(memory, pt):
    return all(0 <= frame < memory.size for frame in pt.table_frames())


def _of_interpretation(invariant):
    """A high-level spec invariant, demanded of the tree's abstraction."""
    return lambda memory, pt: invariant(interpret(memory, pt.root_paddr))


TREE_INVARIANTS = {
    "entries_well_formed": inv_entries_well_formed,
    "no_shared_tables": inv_no_shared_tables,
    "no_stray_bits_on_empty": inv_no_stray_bits_on_empty,
    "frames_aligned": inv_frames_aligned,
    "no_empty_intermediate": inv_no_empty_intermediate,
    "no_pml4_huge_bit": inv_no_pml4_huge_bit,
    "tables_within_memory": inv_tables_within_memory,
    "interp_no_overlap": _of_interpretation(spec.no_overlap_invariant),
    "interp_aligned": _of_interpretation(spec.aligned_invariant),
    "interp_canonical": _of_interpretation(spec.canonical_invariant),
}


# ---------------------------------------------------------------------------
# Quantifying over the scenario space
# ---------------------------------------------------------------------------


def _each_scenario(source, check_one):
    """`check_one(abstract, memory, pt)` on a fresh build of every
    scenario: the first problem it reports, labelled, or None."""
    for scenario in source():
        problem = check_one(scenario.abstract, *scenario.build())
        if problem is not None:
            return scenario.label(), problem
    return None


def _each_step(source, select, check_one):
    """`check_one(abstract, op, memory, pt)` on a fresh build of every
    scenario, once per vocabulary op that `select(abstract, op)` admits."""
    for scenario in source():
        for op in _VOCABULARY:
            if select(scenario.abstract, op):
                problem = check_one(scenario.abstract, op, *scenario.build())
                if problem is not None:
                    return scenario.label(), op.label(), problem
    return None


OP_KINDS = ("map_4k", "map_2m", "map_1g", "unmap", "failed_op", "resolve")


def _invariant_preservation_vc(
    inv_name: str, kind: str, scenario_source
) -> VC:
    invariant = TREE_INVARIANTS[inv_name]

    def after_resolves(abstract, memory, pt):
        for vaddr in _PROBES:
            pt.resolve(vaddr)
        return None if invariant(memory, pt) else "broken by resolve"

    def after_op(abstract, op, memory, pt):
        try:
            op.apply(pt)
            refused = False
        except PtError:
            refused = True
        # failed_op is about refusals only, the other kinds successes only
        if refused is (kind == "failed_op") and not invariant(memory, pt):
            return "broken"
        return None

    def check():
        if kind == "resolve":
            return _each_scenario(scenario_source, after_resolves)
        return _each_step(scenario_source,
                          lambda _, op: kind in ("failed_op", _kind(op)),
                          after_op)

    return VC(
        name=f"inv_{inv_name}_preserved_by_{kind}",
        category="invariants",
        check=check,
        description=f"{inv_name} holds after every {kind} over the scenario space",
    )


# ---------------------------------------------------------------------------
# The simulation step
# ---------------------------------------------------------------------------


def _spec_step(abstract, op):
    """The spec's side of `op`: whether it is enabled, the post-state
    (`abstract` itself when not), and the refusal the implementation
    must raise when it is not."""
    if isinstance(op, scen.MapOp):
        args = (op.vaddr, op.frame, op.size, op.flags)
        if spec.map_enabled(abstract, args):
            return True, abstract.map_page(*args), None
        return False, abstract, (AlreadyMapped, BadRequest)
    if spec.unmap_enabled(abstract, (op.vaddr,)):
        return True, abstract.unmap_page(op.vaddr), None
    return False, abstract, NotMapped


def _mapping_at(abstract, vaddr) -> Mapping | None:
    """What `resolve(vaddr)` — or `unmap(vaddr)` — owes per the spec."""
    hit = abstract.lookup(vaddr)
    if hit is None:
        return None
    base, pte = hit
    return Mapping(base, pte.frame, pte.size, pte.flags)


def _diagram(abstract, op, memory, pt):
    """One step of the forward simulation: run `op` on the tree
    (`memory`, `pt`) whose interpretation is `abstract`, and check that
    the square commutes.  An op the spec enables succeeds, an unmap
    returns the mapping the spec removes, and the tree's interpretation
    becomes the spec's post-state; an op the spec refuses raises the
    typed refusal and leaves the interpretation alone.

    Returns ``(post, problem)``: the spec's post-state, and None or what
    broke.  The oracle the symbolic step lemmas must agree with."""
    enabled, post, refusal = _spec_step(abstract, op)
    try:
        returned = op.apply(pt)
    except PtError as exc:
        if enabled or not isinstance(exc, refusal):
            return post, f"impl raised {exc!r}"
    else:
        if not enabled:
            return post, "impl succeeded where the spec refuses"
        if isinstance(op, scen.UnmapOp) and \
                returned != _mapping_at(abstract, op.vaddr):
            return post, f"unmap returned {returned}"
    if interpret(memory, pt.root_paddr).mappings != post.mappings:
        return post, "diagram does not commute"
    return post, None


def _resolve_problem(pt, abstract, vaddr):
    """How `pt.resolve(vaddr)` disagrees with the abstract map, or None."""
    got, owed = pt.resolve(vaddr), _mapping_at(abstract, vaddr)
    return None if got == owed else f"resolve({vaddr:#x}) = {got}, spec {owed}"


# ---------------------------------------------------------------------------
# Simulation diagrams
# ---------------------------------------------------------------------------


def _sim_step_vc(kind: str, enabled: bool, scenario_source) -> VC:
    """The diagram for every `kind` op the spec enables (or refuses)."""

    def select(abstract, op):
        return _kind(op) == kind and _spec_step(abstract, op)[0] is enabled

    def diagram(abstract, op, memory, pt):
        return _diagram(abstract, op, memory, pt)[1]

    outcome = "success_commutes" if enabled else "failure_agrees"
    return VC(
        name=f"sim_{kind}_{outcome}",
        category="simulation",
        check=lambda: _each_step(scenario_source, select, diagram),
        description=f"spec-{'enabled' if enabled else 'disabled'} {kind} "
                    "ops commute with the spec",
    )


def _sim_resolve_vc(kind: str, scenario_source) -> VC:
    """kind is a size name or 'unmapped'."""

    def resolves(abstract, memory, pt):
        for vaddr in _PROBES:
            hit = abstract.lookup(vaddr)
            if (hit[1].size.name if hit else "unmapped") == kind:
                problem = _resolve_problem(pt, abstract, vaddr)
                if problem is not None:
                    return problem
        if interpret(memory, pt.root_paddr).mappings != abstract.mappings:
            return "resolve mutated the tree"
        return None

    return VC(
        name=f"sim_resolve_agrees_{kind.lower()}",
        category="simulation",
        check=lambda: _each_scenario(scenario_source, resolves),
        description=f"resolve agrees with the abstract map ({kind})",
    )


def _sim_overlap_matrix_vc(new_size: PageSize, old_size: PageSize) -> VC:
    """Direct construction: a page of `old_size` blocks any overlapping map
    of `new_size`, in both nesting directions."""

    def check():
        memory, pt = scen.Scenario().build()
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
        name=f"sim_overlap_{_short(new_size)}_over_{_short(old_size)}",
        category="simulation",
        check=check,
        description=f"{new_size.name} over existing {old_size.name} is rejected",
    )


def _sim_unmap_interior_vc(size: PageSize) -> VC:
    def check():
        memory, pt = scen.Scenario().build()
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
        name=f"sim_unmap_interior_{_short(size)}",
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

    def agrees(abstract, memory, pt):
        if kind != "unmapped" and all(
            pte.size.name != kind for pte in abstract.mappings.values()
        ):
            return None
        return hwspec.walk_agrees_with_abstract(
            memory, pt.root_paddr, abstract,
            hwspec.probe_addresses_for(abstract))

    return VC(
        name=f"hw_walk_agrees_{kind.lower()}",
        category="hardware-agreement",
        check=lambda: _each_scenario(scenario_source, agrees),
        description=f"MMU walk matches the abstract map ({kind})",
    )


_USER, _SUPERVISOR = True, False

#: name -> (flags of a 4K page, the access to it that must fault, the
#: accesses to the same page that must succeed); an access is a pair
#: (access type, user mode).
_PERMISSIONS = {
    "write_to_readonly": (
        Flags(writable=False, user=True),
        (AccessType.WRITE, _USER),
        [(AccessType.READ, _USER)]),
    "user_to_supervisor": (
        Flags.kernel_rw(),
        (AccessType.READ, _USER),
        [(AccessType.READ, _SUPERVISOR), (AccessType.WRITE, _SUPERVISOR)]),
    "execute_nx": (
        Flags(writable=True, user=True, executable=False),
        (AccessType.EXECUTE, _USER),
        [(AccessType.READ, _USER), (AccessType.WRITE, _USER)]),
}


def _hw_permission_vc(name: str, flags: Flags, forbidden, permitted) -> VC:
    def check():
        memory, pt = scen.Scenario().build()
        pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, flags)
        mmu = Mmu(memory)

        def faults(access, user_mode):
            try:
                mmu.translate(pt.root_paddr, 0x1000, access, user_mode)
            except TranslationFault:
                return True
            return False

        if not faults(*forbidden):
            return f"{forbidden} did not fault"
        for access in permitted:
            if faults(*access):
                return f"{access} faulted"
        return None

    return VC(
        name=f"hw_permission_{name}",
        category="hardware-agreement",
        check=check,
        description=f"permission fault behaviour, both sides: {name}",
    )


def _store_then_load(abstract, memory, pt):
    """A store through the MMU to each writable page reads back, as the
    abstract write/read does."""
    mmu = Mmu(memory)
    for base, pte in abstract.mappings.items():
        if not pte.flags.writable:
            continue
        vaddr = base + 0x18
        value = (base ^ 0xA5A5_5A5A) & ((1 << 64) - 1)
        mmu.store_u64(pt.root_paddr, vaddr, value)
        if mmu.load_u64(pt.root_paddr, vaddr) != value:
            return hex(vaddr), "readback mismatch"
        abstract = abstract.write_word(vaddr, value)
        if abstract.read_word(vaddr) != value:
            return hex(vaddr), "spec mismatch"
    return None


def _aliasing(abstract, memory, pt):
    """A store through one page is visible through every page mapping
    the same frame."""
    mmu = Mmu(memory)
    for base, pte in abstract.mappings.items():
        if not pte.flags.writable:
            continue
        aliases = [other for other, op in abstract.mappings.items()
                   if op.frame == pte.frame and op.size == pte.size]
        if len(aliases) < 2:
            continue
        value = (base ^ 0xA5A5_5A5A) & ((1 << 64) - 1)
        mmu.store_u64(pt.root_paddr, aliases[0] + 0x20, value)
        if mmu.load_u64(pt.root_paddr, aliases[1] + 0x20) != value:
            return "alias readback mismatch"
    return None


_MEMOPS = {"store_then_load": _store_then_load, "aliasing": _aliasing}


def _hw_memops_vc(name: str, memop, scenario_source) -> VC:
    """Reads/writes through the MMU behave like the abstract read/write."""
    return VC(
        name=f"hw_memops_{name}",
        category="hardware-agreement",
        check=lambda: _each_scenario(scenario_source, memop),
        description=f"memory semantics through translation: {name}",
    )


def _hw_resolve_vs_walk_vc(size: PageSize, scenario_source) -> VC:
    def agrees(abstract, memory, pt):
        mmu = Mmu(memory)
        for base, pte in abstract.mappings.items():
            if pte.size != size:
                continue
            for vaddr in (base, base + 0x8, base + int(size) - 8):
                resolved = pt.resolve(vaddr)
                walked = mmu.walk(pt.root_paddr, vaddr)
                if resolved is None or (
                    walked.frame_paddr, walked.page_size, walked.flags,
                ) != (resolved.paddr, resolved.size, resolved.flags):
                    return hex(vaddr), "resolve and walk disagree"
        return None

    return VC(
        name=f"hw_resolve_matches_walk_{_short(size)}",
        category="hardware-agreement",
        check=lambda: _each_scenario(scenario_source, agrees),
        description=f"impl resolve and MMU walk agree on {size.name} pages",
    )


# ---------------------------------------------------------------------------
# TLB obligations: name -> check(scenario source)
# ---------------------------------------------------------------------------


def _fill(tlb: Tlb, memory, root_paddr: int, vaddrs) -> Tlb:
    """`tlb` after inserting a fresh walk of each of `vaddrs`."""
    mmu = Mmu(memory)
    for vaddr in vaddrs:
        tlb.insert(mmu.walk(root_paddr, vaddr))
    return tlb


def _tlb_shootdown(size: PageSize, _source):
    memory, pt = scen.Scenario().build()
    region = 1 << 30
    pt.map_frame(region, region, size, Flags.user_rw())
    tlb = _fill(Tlb(), memory, pt.root_paddr, [region + 0x8])
    pt.unmap(region)
    tlb.invalidate_page(region + 0x8)  # the shootdown
    return hwspec.tlb_consistent(
        memory, pt.root_paddr, tlb, [region, region + 0x8])


def _tlb_fill_consistent(source):
    def consistent(abstract, memory, pt):
        tlb = _fill(Tlb(), memory, pt.root_paddr, abstract.mappings.keys())
        return hwspec.tlb_consistent(
            memory, pt.root_paddr, tlb, hwspec.probe_addresses_for(abstract))

    return _each_scenario(source, consistent)


def _tlb_flush_consistent(source):
    def consistent(abstract, memory, pt):
        tlb = _fill(Tlb(), memory, pt.root_paddr, abstract.mappings.keys())
        # mutate arbitrarily, then a full flush must restore consistency
        # no matter what changed
        for op in _VOCABULARY:
            try:
                op.apply(pt)
            except PtError:
                pass
        tlb.flush()
        probes = hwspec.probe_addresses_for(interpret(memory, pt.root_paddr))
        return hwspec.tlb_consistent(memory, pt.root_paddr, tlb, probes)

    return _each_scenario(source, consistent)


def _tlb_remap_after_shootdown(_source):
    memory, pt = scen.Scenario().build()
    pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
    tlb = _fill(Tlb(), memory, pt.root_paddr, [0x1000])
    pt.unmap(0x1000)
    tlb.invalidate_page(0x1000)
    pt.map_frame(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
    hit = _fill(tlb, memory, pt.root_paddr, [0x1000]).lookup(0x1000)
    if hit is None or hit.paddr != 0x20_0000:
        return "remapped translation not visible"
    return hwspec.tlb_consistent(memory, pt.root_paddr, tlb, [0x1000])


def _tlb_eviction_preserves_consistency(_source):
    memory, pt = scen.Scenario().build()
    vaddrs = [0x1000 * (i + 1) for i in range(12)]
    for i, vaddr in enumerate(vaddrs):
        pt.map_frame(vaddr, 0x10_0000 + 0x1000 * i, PageSize.SIZE_4K,
                     Flags.user_rw())
    tlb = _fill(Tlb(capacity=4), memory, pt.root_paddr, vaddrs)
    if len(tlb) > 4:
        return "TLB exceeded capacity"
    return hwspec.tlb_consistent(memory, pt.root_paddr, tlb, vaddrs)


def _tlb_stale_entry_detected(_source):
    """The consistency checker must *catch* a skipped shootdown — this
    obligation guards the checker itself against vacuity."""
    memory, pt = scen.Scenario().build()
    pt.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
    tlb = _fill(Tlb(), memory, pt.root_paddr, [0x1000])
    pt.unmap(0x1000)  # no invalidation: protocol violated
    if hwspec.tlb_consistent(memory, pt.root_paddr, tlb, [0x1000]) is None:
        return "checker failed to detect a stale TLB entry"
    return None


def _tlb_context_switch_flush(_source):
    """Flushing on address-space switch keeps translations consistent even
    across two different page tables sharing one TLB (CR3 reload)."""
    memory, pt_a = scen.Scenario().build()
    pt_b = PageTable(memory, pt_a.allocator)
    pt_a.map_frame(0x1000, 0x10_0000, PageSize.SIZE_4K, Flags.user_rw())
    pt_b.map_frame(0x1000, 0x20_0000, PageSize.SIZE_4K, Flags.user_rw())
    tlb = _fill(Tlb(), memory, pt_a.root_paddr, [0x1000])
    tlb.flush()  # context switch: CR3 reload flushes the (non-global) TLB
    result = hwspec.tlb_consistent(memory, pt_b.root_paddr, tlb, [0x1000])
    if result is not None:
        return result
    hit = _fill(tlb, memory, pt_b.root_paddr, [0x1000]).lookup(0x1000)
    if hit is None or hit.frame_paddr != 0x20_0000:
        return "process B saw process A's translation"
    return None


TLB_OBLIGATIONS = {
    **{f"shootdown_{_short(size)}": functools.partial(_tlb_shootdown, size)
       for size in PageSize},
    "fill_consistent": _tlb_fill_consistent,
    "flush_consistent": _tlb_flush_consistent,
    "remap_after_shootdown": _tlb_remap_after_shootdown,
    "eviction_preserves_consistency": _tlb_eviction_preserves_consistency,
    "stale_entry_detected": _tlb_stale_entry_detected,
    "context_switch_flush": _tlb_context_switch_flush,
}


# ---------------------------------------------------------------------------
# End-to-end refinement traces (the theorem of Section 4.4)
# ---------------------------------------------------------------------------


def _refinement_trace_vc(name: str, seed: int, probes=()) -> VC:
    """Replay a long pseudo-random operation trace from the empty tree,
    checking the simulation diagram at every step — and, for the
    observable trace, that `resolve` agrees with the spec at `probes`
    after every step."""

    def check():
        rng = random.Random(seed)
        memory, pt = scen.Scenario().build()
        abstract = spec.AbstractState()
        for step in range(120):
            op = rng.choice(_VOCABULARY)
            abstract, problem = _diagram(abstract, op, memory, pt)
            for vaddr in probes:
                problem = problem or _resolve_problem(pt, abstract, vaddr)
            if problem is not None:
                return f"step {step}", op.label(), problem
        return None

    return VC(
        name=f"refinement_trace_{name}",
        category="refinement",
        check=check,
        description="every behaviour of the implementation corresponds to a "
                    f"behaviour of the high-level spec ({name})",
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
    # built on first use, then shared by every VC of this engine
    source = functools.cache(functools.partial(
        scen.generate_scenarios, max_depth=scenario_depth,
        max_scenarios=scenario_cap))

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
        for kind in ("map_4k", "map_2m", "map_1g", "unmap"):
            for enabled in (True, False):
                engine.add(_sim_step_vc(kind, enabled, source),
                           group="simulation")
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
        for name, case in _PERMISSIONS.items():
            engine.add(_hw_permission_vc(name, *case),
                       group="hardware-agreement")
        for name, memop in _MEMOPS.items():
            engine.add(_hw_memops_vc(name, memop, source),
                       group="hardware-agreement")
        for size in PageSize:
            engine.add(_hw_resolve_vs_walk_vc(size, source),
                       group="hardware-agreement")

        for name, obligation in TLB_OBLIGATIONS.items():
            engine.add(VC(name=f"tlb_{name}", category="tlb",
                          check=functools.partial(obligation, source),
                          description=f"TLB protocol obligation: {name}"),
                       group="tlb")

        engine.add(_refinement_trace_vc("state", 0xC0FFEE),
                   group="refinement")
        engine.add(_refinement_trace_vc("observable", 0xBEEF, _PROBES),
                   group="refinement")

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
