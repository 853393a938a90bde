"""The high-level specification (Figure 2, box 2).

"The spec describes the page table as a mathematical map from virtual
addresses to page table entries storing the physical address and permission
bits" — and has transitions for map, unmap, resolve, and memory reads and
writes.  This is the spec a *client application* programs against: no trees,
no bits, no TLBs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pt.defs import Flags, PageSize, is_canonical, vaddr_base, vaddr_offset
from repro.immutable import EMPTY_MAP, FrozenMap
from repro.verif.statemachine import SpecStateMachine, Transition


@dataclass(frozen=True)
class AbstractPte:
    """An entry of the abstract map: frame base, page size, permissions."""

    frame: int
    size: PageSize
    flags: Flags


@dataclass(frozen=True)
class AbstractState:
    """The client-visible machine state.

    `mappings` is the mathematical map (page base vaddr -> AbstractPte);
    `mem` is the abstract word store keyed by physical word address — two
    virtual pages mapping the same frame alias, exactly as on hardware.
    """

    mappings: FrozenMap = EMPTY_MAP
    mem: FrozenMap = EMPTY_MAP

    # -- queries ----------------------------------------------------------------

    def lookup(self, vaddr: int) -> tuple[int, AbstractPte] | None:
        """The (page base, pte) covering `vaddr`, or None."""
        for size in PageSize:
            base = vaddr_base(vaddr, size)
            pte = self.mappings.get(base)
            if pte is not None and pte.size == size:
                return base, pte
        return None

    def translate(self, vaddr: int) -> int | None:
        """The physical address `vaddr` maps to, or None."""
        hit = self.lookup(vaddr)
        if hit is None:
            return None
        _, pte = hit
        return pte.frame + vaddr_offset(vaddr, pte.size)

    def overlaps(self, vaddr: int, size: PageSize) -> bool:
        """Would a new page of `size` at `vaddr` overlap existing mappings?"""
        start, end = vaddr, vaddr + int(size)
        for base, pte in self.mappings.items():
            if base < end and start < base + int(pte.size):
                return True
        return False

    # -- spec operations (pure) ----------------------------------------------------

    def map_page(
        self, vaddr: int, frame: int, size: PageSize, flags: Flags
    ) -> "AbstractState":
        return AbstractState(
            mappings=self.mappings.set(vaddr, AbstractPte(frame, size, flags)),
            mem=self.mem,
        )

    def unmap_page(self, vaddr: int) -> "AbstractState":
        base, _ = self.lookup(vaddr)
        return AbstractState(mappings=self.mappings.remove(base), mem=self.mem)

    def write_word(self, vaddr: int, value: int) -> "AbstractState":
        paddr = self.translate(vaddr)
        if paddr is None:
            raise ValueError(f"write to unmapped address {vaddr:#x}")
        return AbstractState(
            mappings=self.mappings, mem=self.mem.set(paddr, value)
        )

    def read_word(self, vaddr: int) -> int:
        paddr = self.translate(vaddr)
        if paddr is None:
            raise ValueError(f"read of unmapped address {vaddr:#x}")
        return self.mem.get(paddr, 0)


def map_enabled(state: AbstractState, args) -> bool:
    """Enabling condition of the abstract `map` transition."""
    vaddr, frame, size, flags = args
    del flags
    return (
        is_canonical(vaddr)
        and vaddr % int(size) == 0
        and frame % int(size) == 0
        and not state.overlaps(vaddr, size)
    )


def unmap_enabled(state: AbstractState, args) -> bool:
    (vaddr,) = args
    return is_canonical(vaddr) and state.lookup(vaddr) is not None


def write_enabled(state: AbstractState, args) -> bool:
    vaddr, value = args
    del value
    hit = state.lookup(vaddr)
    return hit is not None and hit[1].flags.writable


def highlevel_machine(
    vaddrs=(),
    frames=(),
    sizes=(PageSize.SIZE_4K,),
    flag_choices=(Flags.user_rw(),),
    values=(0, 1),
) -> SpecStateMachine:
    """Build the high-level spec machine over a bounded vocabulary.

    The vocabularies keep bounded exploration tractable while covering the
    interesting interleavings (overlap, remap, aliasing).
    """

    def map_args(state):
        del state
        for vaddr in vaddrs:
            for frame in frames:
                for size in sizes:
                    for flags in flag_choices:
                        yield (vaddr, frame, size, flags)

    def unmap_args(state):
        del state
        for vaddr in vaddrs:
            yield (vaddr,)

    def write_args(state):
        del state
        for vaddr in vaddrs:
            for value in values:
                yield (vaddr, value)

    return SpecStateMachine(
        name="highlevel",
        init_states=[AbstractState()],
        transitions=[
            Transition(
                name="map",
                enabled=map_enabled,
                apply=lambda s, a: s.map_page(*a),
                args=map_args,
            ),
            Transition(
                name="unmap",
                enabled=unmap_enabled,
                apply=lambda s, a: s.unmap_page(a[0]),
                args=unmap_args,
            ),
            Transition(
                name="write",
                enabled=write_enabled,
                apply=lambda s, a: s.write_word(*a),
                args=write_args,
            ),
        ],
        invariants={
            "no_overlap": no_overlap_invariant,
            "aligned": aligned_invariant,
            "canonical": canonical_invariant,
        },
    )


# The invariants of a well-formed abstract map — also what the refinement
# proof demands of the interpretation of every page-table tree.


def no_overlap_invariant(state: AbstractState) -> bool:
    spans = sorted(
        (base, base + int(pte.size)) for base, pte in state.mappings.items()
    )
    for (_, end), (start, _) in zip(spans, spans[1:]):
        if start < end:
            return False
    return True


def aligned_invariant(state: AbstractState) -> bool:
    return all(
        base % int(pte.size) == 0 and pte.frame % int(pte.size) == 0
        for base, pte in state.mappings.items()
    )


def canonical_invariant(state: AbstractState) -> bool:
    """Every mapped page lies wholly in the canonical range: its first
    and its last byte."""
    return all(
        is_canonical(base) and is_canonical(base + int(pte.size) - 1)
        for base, pte in state.mappings.items()
    )
