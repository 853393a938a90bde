"""Ring syscalls: set up a submission/completion pair, drain it, reap it.

The drain is the second transport (after the trap) into the kernel's
``_invoke``, so the errno a call completes with cannot depend on how it
arrived.  Codec functions are called through the ``ringmod.`` module
attribute — the benchmark tracer wraps them there.
"""

from __future__ import annotations

from repro import obs
from repro.core.pt.defs import PAGE_SIZE
from repro.nros.syscall import abi
from repro.nros.syscall import ring as ringmod
from repro.nros.syscall.sys_vm import map_fresh_pages
from repro.nros.syscall.table import (SyscallFailure, trap_only, user_read,
                                      user_write)


def _ring_of(thread, ring_id: int) -> ringmod.SyscallRing:
    ring = thread.process.rings.get(ring_id)
    if ring is None:
        raise SyscallFailure(abi.EBADF, f"no ring {ring_id}")
    return ring


def _read_slots(k, thread, segments, slot_size: int) -> bytes:
    """One bulk read of a ring window: ≤2 usercopy calls per batch (see
    :meth:`~repro.nros.syscall.ring.SyscallRing.sq_segments`)."""
    return b"".join(user_read(k, thread, vaddr, slots * slot_size)
                    for vaddr, slots in segments)


def _write_slots(k, thread, segments, slot_size: int, data: bytes) -> None:
    """Bulk-write twin of :func:`_read_slots`."""
    offset = 0
    for vaddr, slots in segments:
        nbytes = slots * slot_size
        user_write(k, thread, vaddr, data[offset:offset + nbytes])
        offset += nbytes


@trap_only
def sys_ring_setup(k, thread, sq_depth: int = 64, cq_depth: int = 0) -> tuple:
    """Create a submission/completion ring pair in mapped user pages.

    Returns (ring_id, sq_base, cq_base, sq_depth, cq_depth).  A zero
    ``cq_depth`` means "same as the submission queue"."""
    cq_depth = cq_depth or sq_depth
    for depth in (sq_depth, cq_depth):
        if not (isinstance(depth, int)
                and ringmod.MIN_DEPTH <= depth <= ringmod.MAX_DEPTH):
            raise SyscallFailure(
                abi.EINVAL,
                f"ring depth {depth} outside "
                f"[{ringmod.MIN_DEPTH}, {ringmod.MAX_DEPTH}]")
    sq_pages = ringmod.ring_pages(sq_depth, ringmod.SQE_SIZE, PAGE_SIZE)
    cq_pages = ringmod.ring_pages(cq_depth, ringmod.CQE_SIZE, PAGE_SIZE)
    base = map_fresh_pages(k, thread, sq_pages + cq_pages, batched=True)
    process = thread.process
    ring = ringmod.SyscallRing(
        ring_id=process.new_ring_id(),
        sq_base=base,
        cq_base=base + sq_pages * PAGE_SIZE,
        sq_depth=sq_depth,
        cq_depth=cq_depth,
    )
    process.rings[ring.ring_id] = ring
    return (ring.ring_id, ring.sq_base, ring.cq_base, sq_depth, cq_depth)


@trap_only
def sys_ring_enter(k, thread, ring_id: int, blob: bytes,
                   reap: bool = True) -> tuple:
    """Submit a batch of SQEs and drain them in one dispatch pass.

    ``blob`` is N concatenated 128-byte SQEs; they are written into
    the ring's mapped submission pages (through ``usercopy``, so the
    mapping obligation is checked for the whole batch at once), then
    drained.  With ``reap`` the posted CQEs are decoded and returned
    directly — one syscall for the entire batch; otherwise returns
    (submitted, completed) and the CQEs wait for ``ring_reap``.  An
    empty blob submits nothing but still runs a dispatch pass, which
    re-drives SQEs left pending by completion-queue backpressure."""
    ring = _ring_of(thread, ring_id)
    if not isinstance(blob, bytes) or len(blob) % ringmod.SQE_SIZE:
        raise SyscallFailure(
            abi.EINVAL,
            f"submission blob must be a multiple of "
            f"{ringmod.SQE_SIZE} bytes")
    n = len(blob) // ringmod.SQE_SIZE
    if n > ring.sq_depth - ring.sq_pending:
        raise SyscallFailure(
            abi.EAGAIN,
            f"submission queue full ({ring.sq_pending}/{ring.sq_depth} "
            f"pending, {n} submitted)")
    _write_slots(k, thread, ring.sq_segments(ring.sq_tail, n),
                 ringmod.SQE_SIZE, blob)
    ring.sq_tail += n
    completed = _drain(k, thread, ring)
    if reap:
        return _reap(k, thread, ring, 0)
    return (n, completed)


@trap_only
def sys_ring_reap(k, thread, ring_id: int, max_entries: int = 0) -> tuple:
    """Harvest up to ``max_entries`` CQEs (0 = all ready)."""
    return _reap(k, thread, _ring_of(thread, ring_id), max_entries)


def _injected(plan, site: str, kind: str):
    """The fault plan's draw for ``site``, if it injects a ``kind``."""
    decision = plan.draw(site) if plan is not None else None
    return decision if decision is not None and decision.kind == kind else None


def _drain(k, thread, ring: ringmod.SyscallRing) -> int:
    """One dispatch pass over the pending SQEs, in submission order.

    This is where the batching pays: the scheduler ran once to get
    here, and one obs span covers the whole pass — but the per-entry
    obligations still hold.  Each slot is read back through
    ``usercopy`` and must survive its own decode (magic, length,
    checksum, unmarshal) before dispatch; a torn slot becomes an
    ``EBADMSG`` CQE for that entry alone.  Entries complete in
    submission order; the pass stops early only when the completion
    queue has no room (backpressure — the SQEs stay pending)."""
    plan = k.fault_plan
    with obs.span("ring.drain", histogram="ring.drain_seconds",
                  pending=ring.sq_pending):
        # Tear injections land in user memory *before* the kernel
        # reads the window, exactly as a racing user store would.
        # Each staged entry gets exactly one tear draw over its
        # lifetime (``sqe_drawn`` is the high-water mark), so an
        # entry left pending by backpressure is not re-drawn on the
        # next pass — it is re-read, and a torn slot stays torn.
        if plan is not None:
            start = max(ring.sq_head, ring.sqe_drawn)
            for index in range(start, ring.sq_tail):
                decision = _injected(plan, "ring.sqe", "torn")
                if decision is not None:
                    _tear_sqe(k, thread, ring.sq_slot_vaddr(index), decision)
            ring.sqe_drawn = max(ring.sqe_drawn, ring.sq_tail)
        window = ring.sq_pending
        buf = _read_slots(k, thread, ring.sq_segments(ring.sq_head, window),
                          ringmod.SQE_SIZE)
        cqes: list[bytes] = []
        for i in range(window):
            if ring.cq_ready + len(cqes) >= ring.cq_depth:
                break  # CQ full: leave the rest submitted
            if _injected(plan, "ring.cq", "full") is not None:
                break  # forced backpressure
            slot = buf[i * ringmod.SQE_SIZE:(i + 1) * ringmod.SQE_SIZE]
            status, value = _dispatch_sqe(k, thread, slot)
            user_data = int.from_bytes(slot[8:16], "little")
            cqes.append(ringmod.encode_cqe(user_data, status, value))
            if _injected(plan, "ring.dispatch", "crash") is not None:
                break  # pass aborted; the rest stay pending
        # Post every completion of this pass in one bulk write.  A
        # crashed pass still posts the CQEs of the entries it already
        # dispatched — their effects (including any TLB shootdown)
        # are done, so exactly-once completion holds across re-entry.
        completed = len(cqes)
        if completed:
            _write_slots(k, thread, ring.cq_segments(ring.cq_tail, completed),
                         ringmod.CQE_SIZE, b"".join(cqes))
            ring.sq_head += completed
            ring.cq_tail += completed
    k.stats.ring_batches += 1
    k.stats.ring_sqes += completed
    k._obs_batch_size.record(completed)
    k._obs_sq_pending.set(ring.sq_pending)
    k._obs_cq_ready.set(ring.cq_ready)
    return completed


def _dispatch_sqe(k, thread, slot: bytes) -> tuple:
    """Decode and invoke one SQE; returns (status, value).

    Only the *transport* differs from a trap: failures become typed
    error CQEs instead of raised SyscallErrors, and an entry that would
    block completes immediately with EAGAIN (a ring never parks the
    submitting thread mid-batch)."""
    try:
        _user_data, number, args = ringmod.decode_sqe(slot)
    except ringmod.SqeDecodeError as exc:
        return (abi.EBADMSG, str(exc))
    entry = k._handlers.get(number)
    if entry is not None and not entry.ring:
        return (abi.EINVAL, f"{entry.name} cannot be dispatched via a ring")
    return k._invoke(thread, number, args)[:2]  # a ring never parks


def _reap(k, thread, ring: ringmod.SyscallRing, max_entries: int) -> tuple:
    """Decode ready CQEs -> ((user_data, status, value), ...)."""
    count = ring.cq_ready if max_entries <= 0 \
        else min(max_entries, ring.cq_ready)
    buf = _read_slots(k, thread, ring.cq_segments(ring.cq_head, count),
                      ringmod.CQE_SIZE)
    out = tuple(
        ringmod.decode_cqe(buf[i * ringmod.CQE_SIZE:
                               (i + 1) * ringmod.CQE_SIZE])
        for i in range(count))
    ring.cq_head += count
    k._obs_cq_ready.set(ring.cq_ready)
    return out


def _tear_sqe(k, thread, slot_vaddr: int, decision) -> None:
    """Fault injection: tear a staged SQE in user memory.

    Models a partially-completed user store: either the slot's tail
    is stale zeros (truncated write) or a byte is flipped.  The
    damage always lands inside the encoded entry (header + blob),
    never only in the already-zero padding, so every injection
    genuinely changes the slot and must be caught by the decode
    checksum."""
    slot = bytearray(user_read(k, thread, slot_vaddr, ringmod.SQE_SIZE))
    blob_len = min(int.from_bytes(slot[2:4], "little"),
                   ringmod.SQE_BLOB_MAX)
    encoded = ringmod._SQE_HEADER + blob_len
    offset = 1 + decision.rand_below(max(encoded - 1, 1))
    if decision.rand_below(2):
        original = bytes(slot)
        slot[offset:] = bytes(ringmod.SQE_SIZE - offset)
        if bytes(slot) == original:  # the tail was all zeros anyway
            slot[offset] ^= 0x5A
    else:
        slot[offset] ^= 0x5A
    user_write(k, thread, slot_vaddr, bytes(slot))
