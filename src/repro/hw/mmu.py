"""The hardware page walker — the executable hardware specification.

This module is intentionally written *independently* of the page-table
implementation in :mod:`repro.core.pt.impl`: it interprets whatever bits are
in physical memory exactly the way an x86-64 MMU would (modulo the modelling
simplifications listed in DESIGN.md).  The refinement proof then shows that
the implementation maintains bits whose interpretation matches the abstract
map.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import wordlib
from repro.core.pt import defs
from repro.hw.mem import PhysicalMemory


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"


class TranslationFault(Exception):
    """A page fault: translation failed or permissions were violated."""

    def __init__(self, vaddr: int, reason: str) -> None:
        super().__init__(f"page fault at {vaddr:#x}: {reason}")
        self.vaddr = vaddr
        self.reason = reason


@dataclass(frozen=True)
class Translation:
    """The result of a successful walk."""

    paddr: int
    page_base_vaddr: int
    page_size: defs.PageSize
    flags: defs.Flags

    @property
    def frame_paddr(self) -> int:
        return wordlib.align_down(self.paddr, int(self.page_size))


def check_access(vaddr: int, flags: defs.Flags, access: AccessType,
                 user_mode: bool) -> None:
    """The architecture's permission rule, for a walked or a cached
    translation alike: user accesses require the user bit, writes the
    writable bit, instruction fetches an executable entry (NX clear)."""
    if user_mode and not flags.user:
        raise TranslationFault(vaddr, "supervisor page accessed from user")
    if access is AccessType.WRITE and not flags.writable:
        raise TranslationFault(vaddr, "write to read-only page")
    if access is AccessType.EXECUTE and not flags.executable:
        raise TranslationFault(vaddr, "execute of NX page")


class Mmu:
    """Walks page tables in physical memory; :meth:`translate` applies
    :func:`check_access` to the walk."""

    def __init__(self, memory: PhysicalMemory) -> None:
        self.memory = memory
        self.walks = 0  # counted so the TLB ablation can report walk savings

    def walk(self, root_paddr: int, vaddr: int) -> Translation:
        """Translate `vaddr` using the tree rooted at `root_paddr`,
        without permission checks (those depend on the access)."""
        if not defs.is_canonical(vaddr):
            raise TranslationFault(vaddr, "non-canonical address")
        self.walks += 1
        table = root_paddr
        for level in range(defs.NUM_LEVELS):
            index = defs.vaddr_index(vaddr, level)
            raw = self.memory.load_u64(table + index * defs.ENTRY_SIZE)
            if not wordlib.bit(raw, defs.BIT_PRESENT):
                raise TranslationFault(vaddr, f"not present at {defs.LEVEL_NAMES[level]}")
            maps_page = level == 3 or (
                level in (1, 2) and wordlib.bit(raw, defs.BIT_HUGE)
            )
            if maps_page:
                size = defs.PageSize.for_level(level)
                base = wordlib.align_down(raw & defs.ADDR_MASK, int(size))
                flags = defs.Flags(
                    writable=bool(wordlib.bit(raw, defs.BIT_WRITABLE)),
                    user=bool(wordlib.bit(raw, defs.BIT_USER)),
                    executable=not wordlib.bit(raw, defs.BIT_NX),
                    write_through=bool(wordlib.bit(raw, defs.BIT_WRITE_THROUGH)),
                    cache_disable=bool(wordlib.bit(raw, defs.BIT_CACHE_DISABLE)),
                    global_=bool(wordlib.bit(raw, defs.BIT_GLOBAL)),
                )
                return Translation(
                    paddr=base + defs.vaddr_offset(vaddr, size),
                    page_base_vaddr=defs.vaddr_base(vaddr, size),
                    page_size=size,
                    flags=flags,
                )
            table = raw & defs.ADDR_MASK
        raise AssertionError("unreachable: PT level always maps or faults")

    def translate(
        self,
        root_paddr: int,
        vaddr: int,
        access: AccessType = AccessType.READ,
        user_mode: bool = False,
    ) -> Translation:
        """Walk and enforce permissions for the given access."""
        translation = self.walk(root_paddr, vaddr)
        check_access(vaddr, translation.flags, access, user_mode)
        return translation

    # -- convenience accessors (only the hw_memops_* VCs use them) -----------

    def load_u64(
        self, root_paddr: int, vaddr: int, user_mode: bool = False
    ) -> int:
        t = self.translate(root_paddr, vaddr, AccessType.READ, user_mode)
        return self.memory.load_u64(t.paddr)

    def store_u64(
        self, root_paddr: int, vaddr: int, value: int, user_mode: bool = False
    ) -> None:
        t = self.translate(root_paddr, vaddr, AccessType.WRITE, user_mode)
        self.memory.store_u64(t.paddr, value)
