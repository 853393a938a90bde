"""Copying between user buffers and kernel memory — the *mapping obligation*.

"The mapping obligation is that the process memory for the buffer appear at
a known location in kernel space."  The kernel never trusts user pointers:
every access translates the user virtual address through the process's page
table (handling page-crossing buffers), enforcing the user and writable
permission bits as appropriate for the direction of the copy.
"""

from __future__ import annotations

from repro.core.pt import defs
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import AccessType, Mmu, TranslationFault


class UserCopyFault(Exception):
    """The user buffer is unmapped or lacks the required permissions."""

    def __init__(self, vaddr: int, reason: str) -> None:
        super().__init__(f"usercopy fault at {vaddr:#x}: {reason}")
        self.vaddr = vaddr


def _chunks(mmu: Mmu, root_paddr: int, vaddr: int, length: int,
            access: AccessType):
    """Split [vaddr, vaddr+length) at 4 KiB page boundaries and translate
    each piece as a user-mode `access`: yields (paddr, chunk length)."""
    end = vaddr + length
    while vaddr < end:
        page_end = defs.vaddr_base(vaddr, defs.PageSize.SIZE_4K) + defs.PAGE_SIZE
        chunk_end = min(end, page_end)
        try:
            t = mmu.translate(root_paddr, vaddr, access, user_mode=True)
        except TranslationFault as exc:
            raise UserCopyFault(vaddr, exc.reason) from exc
        yield t.paddr, chunk_end - vaddr
        vaddr = chunk_end


def copy_from_user(
    memory: PhysicalMemory, mmu: Mmu, root_paddr: int, vaddr: int, length: int
) -> bytes:
    """Read `length` bytes from the user buffer at `vaddr`."""
    if length < 0:
        raise ValueError("negative length")
    out = bytearray()
    for paddr, chunk_len in _chunks(mmu, root_paddr, vaddr, length,
                                    AccessType.READ):
        out += memory.read(paddr, chunk_len)
    return bytes(out)


def copy_to_user(
    memory: PhysicalMemory, mmu: Mmu, root_paddr: int, vaddr: int, data: bytes
) -> None:
    """Write `data` to the user buffer at `vaddr`."""
    offset = 0
    for paddr, chunk_len in _chunks(mmu, root_paddr, vaddr, len(data),
                                    AccessType.WRITE):
        memory.write(paddr, data[offset : offset + chunk_len])
        offset += chunk_len
