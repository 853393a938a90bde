"""Copying between user buffers and kernel memory — the *mapping obligation*.

"The mapping obligation is that the process memory for the buffer appear at
a known location in kernel space."  The kernel never trusts user pointers:
every page of a buffer goes through the address space's one checked
translation (:meth:`~repro.nros.vspace.VSpace.translate`), which enforces
the user and writable bits for the direction of the copy and raises
:class:`~repro.hw.mmu.TranslationFault` naming the first bad page.
"""

from __future__ import annotations

from repro.core.pt import defs
from repro.hw.mmu import AccessType


def _chunks(vspace, core: int, vaddr: int, length: int, access: AccessType):
    """Split [vaddr, vaddr+length) at 4 KiB page boundaries and translate
    each piece as a user-mode `access`: yields (paddr, chunk length)."""
    end = vaddr + length
    while vaddr < end:
        page_end = defs.vaddr_base(vaddr, defs.PageSize.SIZE_4K) + defs.PAGE_SIZE
        chunk_end = min(end, page_end)
        yield vspace.translate(core, vaddr, access), chunk_end - vaddr
        vaddr = chunk_end


def copy_from_user(vspace, core: int, vaddr: int, length: int) -> bytes:
    """Read `length` bytes from the user buffer at `vaddr`."""
    if length < 0:
        raise ValueError("negative length")
    memory = vspace.memory
    return b"".join(memory.read(paddr, chunk_len) for paddr, chunk_len
                    in _chunks(vspace, core, vaddr, length, AccessType.READ))


def copy_to_user(vspace, core: int, vaddr: int, data: bytes) -> None:
    """Write `data` to the user buffer at `vaddr`."""
    memory = vspace.memory
    offset = 0
    for paddr, chunk_len in _chunks(vspace, core, vaddr, len(data),
                                    AccessType.WRITE):
        memory.write(paddr, data[offset : offset + chunk_len])
        offset += chunk_len
