"""Scenario generation for the bounded refinement proof.

The simulation and invariant VCs quantify over "all reachable low-level
states" — here, all page-table trees produced by executing bounded sequences
of operations over a small but adversarial vocabulary of addresses (aliasing
slots, all three page sizes, shared and private intermediate tables).

States are replayable: a scenario stores the op sequence, and `build()`
reconstructs the concrete memory/page-table pair from scratch, which is what
lets each VC mutate its own private copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import Mapping, PageTable, PtError, SimpleFrameAllocator
from repro.core.refine.interp import interpret
from repro.core.spec.highlevel import AbstractState
from repro.hw.mem import PhysicalMemory

MB = 1024 * 1024
MEMORY_SIZE = 16 * MB

# The vocabulary: two 4K slots sharing a PT, one 4K slot in a different
# PML4 subtree, a 2M slot, a 2M slot overlapping the 4K pair's PD, and a
# 1G slot.  Frames include an aliased frame used by two mappings.
GB = 1 << 30


@dataclass(frozen=True)
class MapOp:
    vaddr: int
    frame: int
    size: PageSize
    flags: Flags

    def apply(self, pt: PageTable) -> None:
        pt.map_frame(self.vaddr, self.frame, self.size, self.flags)

    def label(self) -> str:
        return f"map({self.vaddr:#x},{self.frame:#x},{self.size.name})"


@dataclass(frozen=True)
class UnmapOp:
    vaddr: int

    def apply(self, pt: PageTable) -> Mapping:
        return pt.unmap(self.vaddr)

    def label(self) -> str:
        return f"unmap({self.vaddr:#x})"


def default_vocabulary() -> list:
    """The operation vocabulary the bounded proof quantifies over."""
    rw = Flags.user_rw()
    ro = Flags(writable=False, user=True, executable=True)
    kernel = Flags.kernel_rw()
    ops: list = [
        # 4K pages: two sharing one PT, one in a different PML4 subtree
        MapOp(0x1000, 0x10_0000, PageSize.SIZE_4K, rw),
        MapOp(0x2000, 0x20_0000, PageSize.SIZE_4K, ro),
        MapOp(1 << 39, 0x10_0000, PageSize.SIZE_4K, kernel),  # aliased frame
        # 2M pages: one independent, one whose PD region covers the 4K pair
        MapOp(0x40_0000, 0x40_0000, PageSize.SIZE_2M, rw),
        MapOp(0x0, 0x20_0000, PageSize.SIZE_2M, rw),  # covers 0x1000/0x2000
        # 1G page
        MapOp(GB, 0x4000_0000, PageSize.SIZE_1G, ro),
        # unmaps at page bases and interior addresses
        UnmapOp(0x1000),
        UnmapOp(0x2000),
        UnmapOp(1 << 39),
        UnmapOp(0x40_0000 + 0x1000),  # interior of the 2M page
        UnmapOp(GB + 0x12_3000),  # interior of the 1G page
    ]
    return ops


@dataclass
class Scenario:
    """A replayable low-level state reached by an op sequence."""

    ops: tuple = ()
    abstract: AbstractState = field(default_factory=AbstractState)

    def build(self) -> tuple[PhysicalMemory, PageTable]:
        """Reconstruct the concrete state by replaying the ops."""
        memory = PhysicalMemory(MEMORY_SIZE)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt = PageTable(memory, allocator)
        for op in self.ops:
            op.apply(pt)
        return memory, pt

    def label(self) -> str:
        if not self.ops:
            return "<empty>"
        return "; ".join(op.label() for op in self.ops)


def generate_scenarios(
    vocabulary=None,
    max_depth: int = 3,
    max_scenarios: int = 120,
) -> list[Scenario]:
    """BFS over op sequences, deduplicating by abstract state.

    Only *successful* op applications extend a scenario (failed operations
    are covered by the dedicated failure-agreement VCs); dedup keeps one
    shortest witness per distinct abstract state, plus distinct op histories
    up to the cap so tree-shape diversity survives (the same abstract state
    can be represented by different trees after garbage collection)."""
    if vocabulary is None:
        vocabulary = default_vocabulary()

    scenarios: list[Scenario] = []
    seen_histories: set[tuple] = set()
    seen_abstract_count: dict[AbstractState, int] = {}
    frontier = [Scenario()]

    while frontier and len(scenarios) < max_scenarios:
        next_frontier: list[Scenario] = []
        for scenario in frontier:
            if len(scenarios) >= max_scenarios:
                break
            scenarios.append(scenario)
            if len(scenario.ops) >= max_depth:
                continue
            for op in vocabulary:
                try:
                    # apply to a fresh copy to test success
                    mem2, pt2 = scenario.build()
                    op.apply(pt2)
                except PtError:
                    continue
                history = scenario.ops + (op,)
                if history in seen_histories:
                    continue
                seen_histories.add(history)
                abstract = interpret(mem2, pt2.root_paddr)
                # keep at most 2 witnesses per abstract state
                count = seen_abstract_count.get(abstract, 0)
                if count >= 2:
                    continue
                seen_abstract_count[abstract] = count + 1
                next_frontier.append(Scenario(history, abstract))
        frontier = next_frontier
    return scenarios
