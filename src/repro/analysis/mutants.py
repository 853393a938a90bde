"""Seeded mutants every checker must catch — the one registry.

A detector that has only ever said "no findings" is indistinguishable
from a detector that is wired to nothing.  :data:`MUTANTS` names every
seeded mutant with the pass that must flag it; ``analyze --mutant``
dispatches from it and one tier-1 test iterates it, so "every checker
has a must-fail mutant" is a tested property.  The protocol mutants
override one bracket of the protocol that runs (DESIGN.md, "One
descent, one catch-up"); the source-transform interference ones are in
:mod:`~repro.analysis.rg_mutants`.
"""

from __future__ import annotations

from repro.analysis.rg_mutants import (PMEM_MODULE, free_unlocked,
                                       split_no_merge_lock)
from repro.analysis.sched_race import (DoubleEnqueueProtocol,
                                       StealLockElisionProtocol)
from repro.nr.core import READ, NodeReplicated


class ReaderLockElisionNR(NodeReplicated):
    """The classic NR bug: a reader that checked the log prefix but
    queries the replica *without the reader lock*.  A concurrent
    combiner can then apply log entries to the data structure mid-query:
    its ``APPLY`` writes are neither lock-guarded against nor ordered
    with the reader's ``READ``, which is exactly what the lockset +
    vector-clock detector reports."""

    def _query_bracket(self, replica, op):
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

    def _apply_bracket(self, replica, node):
        # BUG (deliberate): the WLOCK acquire/release bracket is
        # elided — entries are applied with no writer lock held.
        yield from self._apply_log(replica, node)
        replica.combiner = None


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
