"""Seeded mutants every checker must catch — the one registry.

A detector that has only ever said "no findings" is indistinguishable
from a detector that is wired to nothing.  :data:`MUTANTS` names every
seeded mutant with the pass that must flag it; ``analyze --mutant``
dispatches from it and one tier-1 test iterates it, so "every checker
has a must-fail mutant" is a tested property.  The NR step-protocol
mutants are defined here, the scheduler-protocol ones beside their replay
(:mod:`~repro.analysis.sched_race`), the source-transform interference
ones in :mod:`~repro.analysis.rg_mutants`.
"""

from __future__ import annotations

from repro.analysis.rg_mutants import (PMEM_MODULE, free_unlocked,
                                       split_no_merge_lock)
from repro.analysis.sched_race import (DoubleEnqueueProtocol,
                                       StealLockElisionProtocol)
from repro.nr.core import (
    APPLY,
    NodeReplicated,
    READ,
    READ_TAIL,
    RELEASE,
    SPIN,
    TRY_COMBINE,
    WLOCK,
)
from repro.nr.log import LogEntry


class ReaderLockElisionNR(NodeReplicated):
    """The classic NR bug: a reader that checked the log prefix but
    queries the replica *without the reader lock*.  A concurrent
    combiner can then apply log entries to the data structure mid-query:
    its ``APPLY`` writes are neither lock-guarded against nor ordered
    with the reader's ``READ``, which is exactly what the lockset +
    vector-clock detector reports."""

    def read_steps(self, op, node: int, thread: int):
        replica = self.replicas[node]
        observed_tail = self.log.tail
        yield READ_TAIL

        # Catch-up is unchanged from the real protocol.
        while replica.ltail < observed_tail:
            if replica.combiner is None:
                replica.combiner = thread
                acquired = True
            else:
                acquired = False
            yield TRY_COMBINE
            if not acquired:
                yield SPIN
                continue
            while not replica.lock.try_acquire_write():
                yield WLOCK
            yield WLOCK
            tail = self.log.tail
            for entry in self.log.slice_from(replica.ltail, tail):
                result = replica.ds.apply(entry.op)
                if entry.node == node:
                    replica.results[entry.thread] = result
                replica.ltail += 1
                yield APPLY
            replica.lock.release_write()
            replica.combiner = None
            yield RELEASE

        # BUG (deliberate): the RLOCK acquire/release bracket is elided —
        # the query reads the replica unprotected.
        result = replica.ds.query(op)
        yield READ
        return result


class WriterLockElisionNR(NodeReplicated):
    """The dual mutant: the combiner applies log entries to the replica
    *without taking the writer lock*, so its ``APPLY`` writes race with
    any reader's locked ``READ`` (a read-lock alone cannot exclude an
    unlocked writer)."""

    def execute_steps(self, op, node: int, thread: int):
        replica = self.replicas[node]
        replica.slots[thread] = op
        yield "publish"

        while True:
            if thread in replica.results:
                result = replica.results.pop(thread)
                yield "check_result"
                return result
            yield "check_result"

            if replica.combiner is None:
                replica.combiner = thread
                acquired = True
            else:
                acquired = False
            yield TRY_COMBINE

            if not acquired:
                yield SPIN
                continue

            batch = list(replica.slots.items())
            replica.slots.clear()
            yield "collect"

            entries = [LogEntry(op=o, node=node, thread=t) for t, o in batch]
            self.log.append_batch(entries)
            replica.batches += 1
            replica.max_batch = max(replica.max_batch, len(entries))
            self.batch_sizes.record(len(entries))
            yield "append"

            # BUG (deliberate): the WLOCK acquire/release bracket is
            # elided — entries are applied with no writer lock held.
            tail = self.log.tail
            for entry in self.log.slice_from(replica.ltail, tail):
                result = replica.ds.apply(entry.op)
                if entry.node == node:
                    replica.results[entry.thread] = result
                replica.ltail += 1
                yield APPLY

            replica.combiner = None
            self._maybe_auto_gc()
            yield RELEASE


#: name -> (kind, payload).  The kind names the pass that must flag the
#: mutant and what the payload is: ``nr`` a NodeReplicated subclass and
#: ``sched`` a SchedProtocol subclass (both replayed by the race pass),
#: ``rg`` a source transform over the pmem module (the rg pass).
MUTANTS = {
    "reader-lock-elision": ("nr", ReaderLockElisionNR),
    "writer-lock-elision": ("nr", WriterLockElisionNR),
    "sched-steal-lock-elision": ("sched", StealLockElisionProtocol),
    "sched-double-enqueue": ("sched", DoubleEnqueueProtocol),
    "pmem-free-unlocked": ("rg", free_unlocked),
    "buddy-split-no-merge-lock": ("rg", split_no_merge_lock),
}


def apply_rg_mutant(sources: dict[str, str], name: str) -> dict[str, str]:
    """A copy of the source set with the ``rg`` mutant's transform
    applied to the pmem module."""
    mutated = dict(sources)
    mutated[PMEM_MODULE] = MUTANTS[name][1](sources[PMEM_MODULE])
    return mutated
