"""Memory syscalls: map/unmap (single and batched), file mappings, and
word access to user memory."""

from __future__ import annotations

from repro.core.pt.defs import Flags, PageSize, PAGE_SIZE
from repro.hw.mmu import AccessType
from repro.nros.pmem import OutOfMemory
from repro.nros.syscall import abi
from repro.nros.syscall.sys_files import fs_call
from repro.nros.syscall.table import (SyscallFailure, errno_call, user_paddr,
                                      user_read)
from repro.nros.vspace import VSpaceError


def map_fresh_pages(k, thread, npages: int, flags: Flags = Flags.user_rw(),
                    batched: bool = False, fill=None) -> int:
    """Allocate, zero and map ``npages`` frames at the caller's heap
    break; returns the base address.  The one place the kernel takes
    user frames.

    ``batched`` maps them as ONE NR log operation (``VSpace.map_batch``,
    which rolls its own pages back); otherwise each page is its own log
    operation, interleaved with the allocations.  ``fill(i, frame)`` may
    initialize page ``i`` before it becomes visible.  All-or-nothing: on
    exhaustion or a mapping conflict everything is undone, the heap break
    does not move and the caller gets ENOMEM."""
    if npages <= 0:
        raise SyscallFailure(abi.EINVAL, "npages must be positive")
    process = thread.process
    vspace, core = process.vspace, k.scheduler.core_of(thread)
    base = process.heap_next
    entries = []
    mapped = 0
    try:
        for i in range(npages):
            frame = k.frames.alloc_frame()
            k.memory.zero_frame(frame)
            entries.append((base + i * PAGE_SIZE, frame,
                            PageSize.SIZE_4K, flags))
            if fill is not None:
                fill(i, frame)
            if not batched:
                vspace.map(*entries[-1], core=core)
                mapped += 1
        if batched:
            vspace.map_batch(entries, core=core)
    except (OutOfMemory, VSpaceError) as exc:
        for vaddr, *_ in reversed(entries[:mapped]):
            vspace.unmap(vaddr, core=core)
        for _, frame, *_ in entries:
            k.frames.free_frame(frame)
        raise SyscallFailure(abi.ENOMEM, str(exc)) from exc
    process.heap_next = base + npages * PAGE_SIZE
    return base


def sys_vm_map(k, thread, npages: int) -> int:
    return map_fresh_pages(k, thread, npages)


def sys_vm_map_batch(k, thread, npages: int) -> int:
    """Map N fresh pages through the NR replica in one batch pass."""
    return map_fresh_pages(k, thread, npages, batched=True)


def sys_vm_unmap(k, thread, vaddr: int) -> None:
    removed = errno_call(((VSpaceError, abi.ENOENT),),
                         thread.process.vspace.unmap, vaddr,
                         core=k.scheduler.core_of(thread))
    k.frames.free_frame(removed.paddr)


def sys_vm_unmap_batch(k, thread, vaddrs, count: int | None = None) -> int:
    """Unmap N pages with one TLB shootdown round for the whole batch.

    Two argument shapes: an explicit tuple of page addresses, or the
    munmap-style ``(base, count)`` range form — ``count`` consecutive
    4K pages starting at ``base``.  The range form is what a ring
    SQE uses: it stays a few bytes no matter how many pages it
    names, where a marshalled address tuple would outgrow the
    fixed-size slot.

    The batch is all-or-nothing: the replica validates every address
    before any mapping changes (one NR log operation for the whole
    batch), so a missing page fails with ENOENT and leaves every
    mapping intact."""
    if count is not None:
        if not isinstance(vaddrs, int) or not isinstance(count, int) \
                or count <= 0:
            raise SyscallFailure(
                abi.EINVAL, "range form needs an int base and a "
                "positive page count")
        vaddrs = tuple(vaddrs + i * PAGE_SIZE for i in range(count))
    if not isinstance(vaddrs, tuple) or not vaddrs:
        raise SyscallFailure(abi.EINVAL, "vaddrs must be a non-empty tuple")
    if not all(isinstance(v, int) for v in vaddrs):
        raise SyscallFailure(abi.EINVAL, "vaddrs must be integers")
    if len(set(vaddrs)) != len(vaddrs):
        raise SyscallFailure(abi.EINVAL, "duplicate vaddr in batch")
    try:
        removed = thread.process.vspace.unmap_batch(
            vaddrs, core=k.scheduler.core_of(thread))
    except VSpaceError as exc:
        errno = abi.ENOENT if exc.kind == "not_mapped" else abi.EINVAL
        raise SyscallFailure(errno, str(exc)) from exc
    for mapping in removed:
        k.frames.free_frame(mapping.paddr)
    return len(removed)


def sys_vm_resolve(k, thread, vaddr: int) -> int:
    mapping = thread.process.vspace.resolve(
        vaddr, core=k.scheduler.core_of(thread))
    if mapping is None:
        raise SyscallFailure(abi.ENOENT, f"{vaddr:#x} not mapped")
    return mapping.paddr + (vaddr - mapping.vaddr)


def sys_mmap_file(k, thread, path: str, writable: bool = False) -> tuple:
    """Map a file's contents into user memory.

    Allocates frames, copies the file in, and maps the pages (read-only
    unless `writable`).  Returns (vaddr, file_length).  Writable
    mappings are flushed back with msync — a deliberate simplification
    of demand paging (no page-fault-driven laziness)."""
    inum = fs_call(k.fs.lookup, path)
    stat = k.fs.stat_inum(inum)
    if stat.is_dir:
        raise SyscallFailure(abi.EISDIR, f"cannot mmap directory {path!r}")

    def fill(i: int, frame: int) -> None:
        chunk = fs_call(k.fs.read_at, inum, i * PAGE_SIZE, PAGE_SIZE)
        if chunk:
            k.memory.write(frame, chunk)

    npages = max(1, (stat.size + PAGE_SIZE - 1) // PAGE_SIZE)
    flags = Flags(writable=writable, user=True, executable=False)
    return (map_fresh_pages(k, thread, npages, flags, fill=fill), stat.size)


def sys_msync(k, thread, path: str, vaddr: int, length: int) -> int:
    """Flush a writable file mapping back to the file."""
    if length < 0:
        raise SyscallFailure(abi.EINVAL, "negative length")
    inum = fs_call(k.fs.lookup, path)
    data = user_read(k, thread, vaddr, length)
    fs_call(k.fs.truncate, inum, 0)
    if data:
        fs_call(k.fs.write_at, inum, 0, data)
    return len(data)


def sys_peek(k, thread, vaddr: int) -> int:
    return k.memory.load_u64(user_paddr(k, thread, vaddr, AccessType.READ))


def sys_poke(k, thread, vaddr: int, value: int) -> None:
    k.memory.store_u64(user_paddr(k, thread, vaddr, AccessType.WRITE), value)


def sys_cas(k, thread, vaddr: int, expected: int, new: int) -> tuple:
    paddr = user_paddr(k, thread, vaddr, AccessType.WRITE)
    old = k.memory.load_u64(paddr)
    if old == expected:
        k.memory.store_u64(paddr, new)
    return (old == expected, old)
