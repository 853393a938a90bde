"""Node replication: replicas, flat combining, and the step protocol.

The algorithm (Section 4.1 / IronSync):

* each NUMA node holds a *replica* of the sequential data structure;
* mutating operations are published in per-thread *slots*; one thread per
  replica becomes the *combiner*, collects the filled slots, appends the
  batch to the shared log atomically, applies outstanding log entries to the
  local replica under the writer lock, and distributes results;
* read-only operations snapshot the log tail, make sure the local replica
  has applied at least that prefix, then read under the reader lock.

The protocol is written as a *generator of steps*: each ``yield`` marks a
point where other threads may interleave, and everything between two yields
is one atomic shared-memory step.  Three drivers execute these generators:
run-to-completion (:meth:`NodeReplicated.execute`), the adversarial
interleaver (:mod:`repro.nr.interleave`), and the simulated-time executor
(:mod:`repro.nr.timed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.obs.instruments import Histogram
from repro.nr.log import Log, LogEntry
from repro.nr.rwlock import RwLock

# Process-wide view of combiner behaviour across every NR instance; the
# per-instance population lives in NodeReplicated.batch_sizes.
_BATCHES = obs.counter("nr.batches")


class SequentialDataStructure:
    """Interface NR expects: a sequential DS with mutating `apply` and
    read-only `query`.  (Duck typing suffices; this class documents it.)"""

    def apply(self, op):
        raise NotImplementedError

    def query(self, op):
        raise NotImplementedError


@dataclass
class Replica:
    """One per NUMA node."""

    ds: object
    ltail: int = 0                      # log prefix applied to `ds`
    combiner: int | None = None         # thread id of the active combiner
    slots: dict[int, object] = field(default_factory=dict)
    results: dict[int, object] = field(default_factory=dict)
    lock: RwLock = field(default_factory=RwLock)
    batches: int = 0
    max_batch: int = 0


# Step labels, used by the timed executor to assign costs.
PUBLISH = "publish"
TRY_COMBINE = "try_combine"
COLLECT = "collect"
APPEND = "append"
WLOCK = "wlock"
APPLY = "apply"
RELEASE = "release"
CHECK_RESULT = "check_result"
SPIN = "spin"
READ_TAIL = "read_tail"
RLOCK = "rlock"
READ = "read"
RUNLOCK = "runlock"


class NodeReplicated:
    """A sequential data structure replicated across NUMA nodes."""

    def __init__(self, ds_factory, num_nodes: int = 1,
                 auto_gc_threshold: int | None = None) -> None:
        """`auto_gc_threshold`: when set, a combiner that finishes applying
        truncates the fully-applied log prefix once the log holds more
        than this many entries (bounded memory without a GC thread)."""
        if num_nodes <= 0:
            raise ValueError("need at least one replica")
        self.log = Log()
        self.replicas = [Replica(ds_factory()) for _ in range(num_nodes)]
        self.auto_gc_threshold = auto_gc_threshold
        self.auto_gcs = 0
        #: The flat combiner's batch-size population (one sample per
        #: combine) — the mechanism behind Figure 1b/1c's latency growth,
        #: now a first-class instrument instead of just a max.
        self.batch_sizes = Histogram(name="nr.batch_size")

    @property
    def num_nodes(self) -> int:
        return len(self.replicas)

    # -- run-to-completion driver ------------------------------------------------

    def execute(self, op, node: int = 0, thread: int = 0):
        """Execute a mutating operation synchronously (single-threaded
        driver: the caller always becomes the combiner)."""
        return _drain(self.execute_steps(op, node, thread))

    def execute_ro(self, op, node: int = 0, thread: int = 0):
        """Execute a read-only operation synchronously."""
        return _drain(self.read_steps(op, node, thread))

    # -- the step protocol ----------------------------------------------------------

    def execute_steps(self, op, node: int, thread: int):
        """Generator protocol for one mutating operation."""
        replica = self.replicas[node]
        replica.slots[thread] = op
        yield PUBLISH

        while True:
            if thread in replica.results:
                result = replica.results.pop(thread)
                yield CHECK_RESULT
                return result
            yield CHECK_RESULT

            if replica.combiner is None:
                replica.combiner = thread
                acquired = True
            else:
                acquired = False
            yield TRY_COMBINE

            if not acquired:
                yield SPIN
                continue

            # --- combiner duty ---
            batch = list(replica.slots.items())
            replica.slots.clear()
            yield COLLECT

            entries = [LogEntry(op=o, node=node, thread=t) for t, o in batch]
            self.log.append_batch(entries)
            replica.batches += 1
            replica.max_batch = max(replica.max_batch, len(entries))
            self.batch_sizes.record(len(entries))
            _BATCHES.inc()
            yield APPEND

            yield from self._apply_bracket(replica, node)
            self._maybe_auto_gc()
            yield RELEASE

    def _maybe_auto_gc(self) -> None:
        if (self.auto_gc_threshold is not None
                and len(self.log) > self.auto_gc_threshold):
            if self.log.gc(self.completed_tail()):
                self.auto_gcs += 1

    def read_steps(self, op, node: int, thread: int):
        """Generator protocol for one read-only operation: catch the
        local replica up to the observed tail, then query it."""
        yield from self.sync_steps(node, thread)
        return (yield from self._query_bracket(self.replicas[node], op))

    def sync_steps(self, node: int, thread: int):
        """Generator protocol: catch the replica up to the current tail
        without performing a query (the first half of a read; also used
        by GC and by readers on other replicas), becoming a
        (non-collecting) combiner if needed."""
        replica = self.replicas[node]
        observed_tail = self.log.tail
        yield READ_TAIL
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
            yield from self._apply_bracket(replica, node)
            yield RELEASE

    # -- the two lock brackets (what the seeded mutants override) -------------------

    def _apply_bracket(self, replica: Replica, node: int):
        """Combiner side: under the writer lock, apply the log from
        ``ltail`` to the tail; then drop the lock and the combiner slot
        — also when the data structure raises, so a failing operation
        surfaces as an exception, never as a wedged replica."""
        while not replica.lock.try_acquire_write():
            yield WLOCK
        yield WLOCK
        try:
            yield from self._apply_log(replica, node)
        finally:
            replica.lock.release_write()
            replica.combiner = None

    def _apply_log(self, replica: Replica, node: int):
        tail = self.log.tail
        for entry in self.log.slice_from(replica.ltail, tail):
            result = replica.ds.apply(entry.op)
            if entry.node == node:
                replica.results[entry.thread] = result
            replica.ltail += 1
            yield APPLY

    def _query_bracket(self, replica: Replica, op):
        """Reader side: query the replica under the reader lock."""
        while not replica.lock.try_acquire_read():
            yield RLOCK
        yield RLOCK

        result = replica.ds.query(op)
        yield READ

        replica.lock.release_read()
        yield RUNLOCK
        return result

    # -- maintenance ------------------------------------------------------------------

    def completed_tail(self) -> int:
        """The log prefix applied by every replica."""
        return min(r.ltail for r in self.replicas)

    def gc_log(self) -> int:
        """Truncate the fully-applied log prefix; returns entries dropped."""
        return self.log.gc(self.completed_tail())

    def sync_all(self) -> None:
        """Bring every replica up to the current log tail (quiescence)."""
        for node in range(self.num_nodes):
            _drain(self.sync_steps(node, thread=-1 - node))


def _drain(gen):
    """Run a step generator to completion and return its value."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value
