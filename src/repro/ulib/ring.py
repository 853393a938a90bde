"""User-side syscall ring: stage many requests, cross the boundary once.

The library mirrors liburing's shape: ``prepare`` encodes a fixed-size
SQE into library state (the staging list is the allocator-metadata trick
of :mod:`repro.ulib.alloc` — slot *bytes* live in the mapped ring pages
once submitted, bookkeeping lives in Python), and ``submit`` crosses the
kernel boundary exactly once per batch via ``ring_enter``.  Compare one
``yield sys(...)`` per operation on the unbatched path.

All routines are generators, invoked with ``yield from`` so their
syscalls flow through the calling thread.
"""

from __future__ import annotations

from repro.nros.syscall import ring as ringmod
from repro.nros.syscall.abi import SYSCALLS, SyscallError, sys


class Ring:
    """One process-private submission/completion ring pair."""

    def __init__(self, sq_depth: int = 64, cq_depth: int = 0) -> None:
        self.sq_depth = sq_depth
        self.cq_depth = cq_depth or sq_depth
        self.ring_id: int | None = None
        self.sq_base = 0
        self.cq_base = 0
        self._staged: list[bytes] = []
        self._next_user_data = 1

    def setup(self):
        """Create the kernel-side ring pair (generator)."""
        (self.ring_id, self.sq_base, self.cq_base,
         self.sq_depth, self.cq_depth) = yield sys(
            "ring_setup", self.sq_depth, self.cq_depth)
        return self.ring_id

    def prepare(self, name: str, args: tuple = (),
                user_data: int | None = None) -> int:
        """Stage one request; returns its user_data tag.

        Raises :class:`~repro.nros.syscall.ring.RingError` when the
        syscall is unknown, ring-forbidden, or its arguments do not fit
        an SQE (bulk data must go by ``(vaddr, length)`` reference)."""
        if name not in SYSCALLS:
            raise ringmod.RingError(f"unknown syscall {name!r}")
        if name in ringmod.RING_FORBIDDEN:
            raise ringmod.RingError(f"{name} cannot go through a ring")
        if user_data is None:
            user_data = self._next_user_data
            self._next_user_data += 1
        self._staged.append(
            ringmod.encode_sqe(user_data, SYSCALLS[name], tuple(args)))
        return user_data

    @property
    def staged(self) -> int:
        return len(self._staged)

    def submit(self):
        """Submit everything staged; one ``ring_enter`` per SQ-depth
        chunk (generator).  Returns ``((user_data, status, value), ...)``
        in submission order."""
        if self.ring_id is None:
            raise ringmod.RingError("ring not set up")
        staged, self._staged = self._staged, []
        completions: list[tuple] = []
        for start in range(0, len(staged), self.sq_depth):
            chunk = staged[start:start + self.sq_depth]
            cqes = yield sys("ring_enter", self.ring_id,
                             b"".join(chunk), True)
            completions.extend(cqes)
        return tuple(completions)

    def submit_noreap(self):
        """Submit staged SQEs without harvesting; returns
        (submitted, completed) — completions wait for :meth:`reap`."""
        if self.ring_id is None:
            raise ringmod.RingError("ring not set up")
        staged, self._staged = self._staged, []
        total_submitted = total_completed = 0
        for start in range(0, len(staged), self.sq_depth):
            chunk = staged[start:start + self.sq_depth]
            submitted, completed = yield sys(
                "ring_enter", self.ring_id, b"".join(chunk), False)
            total_submitted += submitted
            total_completed += completed
        return (total_submitted, total_completed)

    def enter(self):
        """Run a dispatch pass without submitting anything new
        (generator) — re-drives SQEs left pending by completion-queue
        backpressure and returns their CQEs."""
        if self.ring_id is None:
            raise ringmod.RingError("ring not set up")
        return (yield sys("ring_enter", self.ring_id, b"", True))

    def reap(self, max_entries: int = 0):
        """Harvest ready completions (generator)."""
        if self.ring_id is None:
            raise ringmod.RingError("ring not set up")
        return (yield sys("ring_reap", self.ring_id, max_entries))

    @staticmethod
    def unwrap(completions) -> tuple:
        """Values of an all-success batch, raising the first per-entry
        error as a :class:`SyscallError` (the typed errors a careful
        caller would branch on)."""
        values = []
        for user_data, status, value in completions:
            if status != 0:
                raise SyscallError(
                    status, f"ring entry {user_data}: {value}")
            values.append(value)
        return tuple(values)
