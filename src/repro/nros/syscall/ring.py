"""io_uring-style submission/completion rings — batched syscall dispatch.

The one-call-one-marshal syscall path pays its full boundary cost (two
marshal/unmarshal round-trips, a scheduler pass, an obs span) on *every*
request.  A :class:`SyscallRing` amortizes that cost: the user process
stages fixed-size submission-queue entries (SQEs) and crosses the kernel
boundary once per *batch* (``ring_enter``); the kernel drains the
submission queue in one dispatch pass and posts fixed-size completion
queue entries (CQEs) in submission order.

Both rings live in *mapped user pages* of the submitting process.  Every
kernel access to a slot goes through :mod:`repro.nros.syscall.usercopy`,
so the mapping obligation (the buffer must be mapped, user-accessible,
and writable where the kernel writes) is checked per batch exactly as it
is for ``read_into``/``write_from`` — and a fault campaign can tear an
SQE *in user memory* between submission and dispatch, which the
per-entry decode check must turn into a typed error CQE rather than a
kernel crash.

Large payloads never ride inside an SQE: the 128-byte slot fits only the
marshalled scalar arguments, so bulk data moves zero-copy through
``usercopy``-validated buffers (``read_into``/``write_from`` style
``(vaddr, length)`` references).  A result too large for a CQE slot is
refused with :data:`~repro.nros.syscall.abi.E2BIG`, pushing users toward
the zero-copy calls — the same pressure real io_uring exerts.

Wire layout (all little-endian, fixed-size slots, zero padding):

=========  ======================================================
SQE (128)  magic ``0x5351`` u16 | blob len u16 | syscall nr u32 |
           user_data u64 | crc32 checksum u32 |
           marshalled args blob | zero pad
CQE (64)   magic ``0x4351`` u16 | blob len u16 | status u32 |
           user_data u64 | marshalled result blob | zero pad
=========  ======================================================

SQEs carry a CRC-32 checksum (detection, not authentication — the burst
guarantee covers exactly the single-flip and truncated-store shapes a
torn write produces, at a fraction of a cryptographic hash's cost on the
per-entry hot path) because user memory is exactly where a torn or
interrupted store lands: any corruption of a staged entry — truncated
tail, stale bytes, a flipped bit — must surface as a *typed* ``EBADMSG``
completion for that entry, never as a silently different syscall.  CQEs
are written and read by the kernel only, so they carry none.

``status`` is 0 on success, else the errno of the typed per-entry error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from zlib import crc32

from repro.nros.syscall import abi
from repro.nros.syscall.marshal import MarshalError, marshal, unmarshal

SQE_SIZE = 128
CQE_SIZE = 64
_SQE_HEADER = 20  # magic u16 + len u16 + nr u32 + user_data u64 + csum u32
_CQE_HEADER = 16  # magic u16 + len u16 + status u32 + user_data u64

SQE_MAGIC = 0x5351  # "SQ"
CQE_MAGIC = 0x4351  # "CQ"

SQE_BLOB_MAX = SQE_SIZE - _SQE_HEADER
CQE_BLOB_MAX = CQE_SIZE - _CQE_HEADER

# magic u16 | blob len u16 | nr-or-status u32 | user_data u64
_HEADER16 = struct.Struct("<HHIQ")
_ZEROS = bytes(SQE_SIZE)


def _sqe_checksum(prefix: bytes, blob: bytes) -> int:
    return crc32(blob, crc32(prefix))

#: Depth bounds for ring_setup (slots, not bytes).
MIN_DEPTH = 1
MAX_DEPTH = 1024


def __getattr__(name: str):
    """``RING_FORBIDDEN`` — the syscalls that must not be dispatched
    through a ring — is derived from the syscall table, where ring
    eligibility is declared on the handler.  Resolved on first use (the
    handler families import this module), then a plain module constant."""
    if name != "RING_FORBIDDEN":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.nros.syscall.table import load

    forbidden = frozenset(e.name for e in load().values() if not e.ring)
    globals()[name] = forbidden
    return forbidden


class RingError(Exception):
    """Malformed ring state or entry (setup/submission-level failure)."""


class SqeDecodeError(RingError):
    """A submission slot failed its integrity check (torn or garbage)."""


def encode_sqe(user_data: int, number: int, args: tuple) -> bytes:
    """One fixed-size submission slot.  Raises :class:`RingError` when
    the marshalled arguments do not fit — callers must switch to a
    zero-copy ``(vaddr, length)`` buffer reference instead."""
    blob = marshal(args)
    if len(blob) > SQE_BLOB_MAX:
        raise RingError(
            f"SQE args for syscall {number} marshal to {len(blob)} bytes "
            f"(max {SQE_BLOB_MAX}); pass bulk data by (vaddr, length)")
    if not 0 <= user_data <= (1 << 64) - 1:
        raise RingError(f"user_data {user_data} is not a u64")
    prefix = _HEADER16.pack(SQE_MAGIC, len(blob), number, user_data)
    csum = _sqe_checksum(prefix, blob)
    return (prefix + csum.to_bytes(4, "little") + blob).ljust(
        SQE_SIZE, b"\x00")


def decode_sqe(slot: bytes) -> tuple[int, int, tuple]:
    """Decode one slot -> (user_data, number, args).

    This is the per-entry marshalling-obligation check of the batched
    path: a torn or corrupted slot raises :class:`SqeDecodeError`, which
    dispatch converts into a typed ``EBADMSG`` CQE for that entry alone.
    """
    if len(slot) != SQE_SIZE:
        raise SqeDecodeError(f"slot is {len(slot)} bytes, not {SQE_SIZE}")
    magic, blob_len, number, user_data = _HEADER16.unpack_from(slot)
    if magic != SQE_MAGIC:
        raise SqeDecodeError("bad SQE magic (torn or unwritten slot)")
    if blob_len > SQE_BLOB_MAX:
        raise SqeDecodeError(f"SQE blob length {blob_len} overruns slot")
    csum = int.from_bytes(slot[16:20], "little")
    blob = slot[_SQE_HEADER:_SQE_HEADER + blob_len]
    if csum != _sqe_checksum(slot[0:16], blob):
        raise SqeDecodeError("SQE checksum mismatch (torn write)")
    used = _SQE_HEADER + blob_len
    if slot[used:] != _ZEROS[used:]:
        raise SqeDecodeError("nonzero bytes in SQE padding (torn write)")
    try:
        args = unmarshal(blob)
    except MarshalError as exc:
        raise SqeDecodeError(f"SQE args: {exc}") from exc
    if not isinstance(args, tuple):
        raise SqeDecodeError(f"SQE args decode to {type(args).__name__}, "
                             f"not tuple")
    return user_data, number, args


def encode_cqe(user_data: int, status: int, value) -> bytes:
    """One fixed-size completion slot.  An unmarshallable or oversized
    *success* result degrades to an ``E2BIG`` error completion — the
    entry still completes, with a typed error instead of a payload.  An
    error completion whose message payload does not fit keeps its errno
    and drops the message."""
    try:
        blob = marshal(value)
    except MarshalError:
        blob = None
    if blob is None or len(blob) > CQE_BLOB_MAX:
        if status == 0:
            status = abi.E2BIG
        blob = marshal(None)
    return (_HEADER16.pack(CQE_MAGIC, len(blob), status, user_data)
            + blob).ljust(CQE_SIZE, b"\x00")


def decode_cqe(slot: bytes) -> tuple[int, int, object]:
    """Decode one completion slot -> (user_data, status, value)."""
    if len(slot) != CQE_SIZE:
        raise RingError(f"CQE slot is {len(slot)} bytes, not {CQE_SIZE}")
    magic, blob_len, status, user_data = _HEADER16.unpack_from(slot)
    if magic != CQE_MAGIC:
        raise RingError("bad CQE magic")
    if blob_len > CQE_BLOB_MAX:
        raise RingError(f"CQE blob length {blob_len} overruns slot")
    value = unmarshal(slot[_CQE_HEADER:_CQE_HEADER + blob_len])
    return user_data, status, value


@dataclass
class SyscallRing:
    """Kernel-side bookkeeping for one process's ring pair.

    Indices are monotonically increasing; the slot of index ``i`` is
    ``i % depth``.  Invariants (checked by :meth:`audit`):

    * ``sq_head <= sq_tail`` and ``sq_tail - sq_head <= sq_depth``;
    * ``cq_head <= cq_tail`` and ``cq_tail - cq_head <= cq_depth``;
    * every submitted entry is exactly one of: pending in the SQ,
      completed into the CQ, or reaped — ``sq_tail == sq_head + pending``
      and ``completed == sq_head`` (completion ordering: entries
      complete in submission order, so the count of drained SQEs *is*
      the count of posted CQEs).
    """

    ring_id: int
    sq_base: int
    cq_base: int
    sq_depth: int
    cq_depth: int
    sq_head: int = 0        # next SQE index to dispatch
    sq_tail: int = 0        # next free SQE index
    cq_head: int = 0        # next CQE index to reap
    cq_tail: int = 0        # next CQE index to post
    sqe_drawn: int = 0      # fault plans: tear draws issued up to here

    @property
    def sq_pending(self) -> int:
        return self.sq_tail - self.sq_head

    @property
    def cq_ready(self) -> int:
        return self.cq_tail - self.cq_head

    def sq_slot_vaddr(self, index: int) -> int:
        return self.sq_base + (index % self.sq_depth) * SQE_SIZE

    def cq_slot_vaddr(self, index: int) -> int:
        return self.cq_base + (index % self.cq_depth) * CQE_SIZE

    def sq_segments(self, start: int, count: int):
        """``(vaddr, slots)`` runs covering SQ indices [start, start+count)
        — at most two, since a window never wraps more than once.  The
        kernel copies each run with ONE ``usercopy`` call instead of one
        per slot, so the per-batch mapping check translates a couple of
        pages per enter, not four per entry."""
        return _segments(self.sq_base, self.sq_depth, SQE_SIZE, start, count)

    def cq_segments(self, start: int, count: int):
        """Same as :meth:`sq_segments` for CQ indices."""
        return _segments(self.cq_base, self.cq_depth, CQE_SIZE, start, count)

    def audit(self) -> list[str]:
        """Structural invariant check (used by tests and the fault
        campaign after every injection scenario)."""
        problems = []
        if not 0 <= self.sq_pending <= self.sq_depth:
            problems.append(f"SQ occupancy {self.sq_pending} out of "
                            f"[0, {self.sq_depth}]")
        if not 0 <= self.cq_ready <= self.cq_depth:
            problems.append(f"CQ occupancy {self.cq_ready} out of "
                            f"[0, {self.cq_depth}]")
        if self.cq_tail != self.sq_head:
            problems.append(
                f"completion ordering broken: {self.sq_head} SQEs "
                f"drained but {self.cq_tail} CQEs posted")
        return problems


def _segments(base: int, depth: int, slot_size: int, start: int, count: int):
    if count <= 0:
        return []
    if count > depth:
        raise RingError(f"window of {count} slots exceeds depth {depth}")
    first = start % depth
    run = min(count, depth - first)
    segments = [(base + first * slot_size, run)]
    if run < count:
        segments.append((base, count - run))
    return segments


def ring_pages(depth: int, slot_size: int, page_size: int) -> int:
    """Pages needed to back ``depth`` slots of ``slot_size`` bytes."""
    return (depth * slot_size + page_size - 1) // page_size
