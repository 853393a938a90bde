"""The cross-core runqueue protocol: per-core locks and step generators.

Real SMP schedulers take per-runqueue spinlocks; migration (load
balancing, work stealing) must hold *both* the source and destination
locks, in a global order, or two cores can observe a thread in two
queues at once.  This module is that protocol, written as step
generators in the same style as :mod:`repro.nr.core`: every shared
access sits between two ``yield``\\ s, so the :mod:`repro.analysis`
race detector can interleave cores adversarially and check every
queue/entity access for a happens-before edge or a common lock.

The in-kernel fast path (``Scheduler``) drives these generators to
completion inline — the cooperative kernel is single-threaded, so the
locks never spin there — but it is the *same code* the replay explores,
which is what makes "the race detector is clean on the real protocol"
a statement about the shipped scheduler rather than about a model.
"""

from __future__ import annotations

from repro.nros.sched.runqueue import CoreRunQueue
from repro.nros.sched.entity import SchedEntity, SchedPolicy

# Step labels (the race replay records these on every access).
LOCK = "LOCK"
UNLOCK = "UNLOCK"
SPIN = "SPIN"
SCAN = "SCAN"
DEQ = "DEQ"
ENQ = "ENQ"
TOUCH = "TOUCH"


class QueueLock:
    """A per-runqueue test-and-set lock (spin modelled as a yield)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.owner: object | None = None

    def try_lock(self, who: object) -> bool:
        if self.owner is not None:
            return False
        self.owner = who
        return True

    def unlock(self, who: object) -> None:
        if self.owner != who:
            raise AssertionError(
                f"{who!r} unlocking {self.name or 'lock'} held by "
                f"{self.owner!r}")
        self.owner = None


class Observer:
    """Access hooks the race replay overrides; no-ops in the kernel."""

    def queue_read(self, core: int) -> None:
        pass

    def queue_write(self, core: int) -> None:
        pass

    def entity_read(self, tid: int) -> None:
        pass

    def entity_write(self, tid: int) -> None:
        pass


def drive(gen):
    """Run a step generator to completion; return its return value.
    This is the kernel's inline fast path (no other core contends)."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


class SchedProtocol:
    """Lock-bracketed enqueue/dequeue/migrate over per-core runqueues.

    ``queues`` and ``entities`` are shared state; ``locks[c]`` guards
    ``queues[c]`` *and* the entities currently owned by core ``c`` (a
    tid's owning core only changes inside ``migrate_steps``, which
    holds both locks — that lock-ownership transfer is exactly what
    the seeded mutants break).
    """

    def __init__(self, queues: list[CoreRunQueue],
                 entities: dict[int, SchedEntity],
                 locks: list[QueueLock] | None = None,
                 observer: Observer | None = None) -> None:
        self.queues = queues
        self.entities = entities
        self.locks = locks or [QueueLock(f"rq{q.core}.lock")
                               for q in queues]
        self.observer = observer or Observer()

    # -- lock brackets ------------------------------------------------------

    def _acquire(self, who: object, core: int):
        while not self.locks[core].try_lock(who):
            yield SPIN
        yield LOCK

    def _release(self, who: object, core: int):
        self.locks[core].unlock(who)
        yield UNLOCK

    # -- guarded accessors (every shared touch reports to the observer) ----

    def _enqueue_locked(self, core: int, tid: int,
                        front: bool = False) -> None:
        ent = self.entities[tid]
        self.observer.entity_write(tid)
        ent.core = core
        ent.in_queue = True
        self.observer.queue_write(core)
        if ent.policy is SchedPolicy.FAIR:
            self.queues[core].push_fair(tid, ent.vruntime, ent.weight)
        else:
            self.queues[core].push_rt(tid, ent.rt_prio, front=front)

    def _pick_locked(self, core: int, prefer_rt: bool) -> int | None:
        self.observer.queue_read(core)
        queue = self.queues[core]
        tid = queue.pop_rt() if prefer_rt else queue.pop_fair()
        if tid is None:
            tid = queue.pop_fair() if prefer_rt else queue.pop_rt()
        if tid is not None:
            self.observer.queue_write(core)
            self.observer.entity_write(tid)
            self.entities[tid].in_queue = False
        return tid

    def _steal_scan_locked(self, src: int) -> int | None:
        self.observer.queue_read(src)
        return self.queues[src].steal_candidate()

    def _unqueue_locked(self, src: int, tid: int) -> bool:
        self.observer.queue_write(src)
        return self.queues[src].remove_fair(tid)

    def _renorm_locked(self, tid: int, src: int, dst: int) -> None:
        """Carry relative fairness across queues: keep the entity the
        same distance ahead of the destination's watermark as it was
        ahead of the source's."""
        self.observer.entity_read(tid)
        ent = self.entities[tid]
        lead = max(0, ent.vruntime - self.queues[src].min_vruntime)
        self.observer.entity_write(tid)
        ent.vruntime = self.queues[dst].min_vruntime + lead

    # -- the protocol -------------------------------------------------------

    def enqueue_steps(self, who: object, core: int, tid: int,
                      front: bool = False):
        """Make `tid` runnable on `core` (its lock held throughout)."""
        yield from self._acquire(who, core)
        self._enqueue_locked(core, tid, front=front)
        yield ENQ
        yield from self._release(who, core)

    def dequeue_steps(self, who: object, core: int,
                      prefer_rt: bool = True):
        """Pick the next runnable tid off `core`; returns the tid."""
        yield from self._acquire(who, core)
        tid = self._pick_locked(core, prefer_rt)
        yield DEQ
        yield from self._release(who, core)
        return tid

    def migrate_steps(self, who: object, src: int, dst: int):
        """Move the source's steal candidate to `dst`: both locks, in
        core order, held across scan + dequeue + renorm + enqueue."""
        if src == dst:
            return None
        held = yield from self._acquire_both(who, src, dst)
        tid = self._steal_scan_locked(src)
        yield SCAN
        if tid is not None:
            yield from self._unqueue_steps(src, tid)
            self._renorm_locked(tid, src, dst)
            yield TOUCH
            self._enqueue_locked(dst, tid)
            yield ENQ
        for core in reversed(held):
            yield from self._release(who, core)
        return tid

    # -- migration's two obligations (what the seeded mutants override) ----

    def _acquire_both(self, who: object, src: int, dst: int):
        first, second = sorted((src, dst))
        yield from self._acquire(who, first)
        yield from self._acquire(who, second)
        return first, second

    def _unqueue_steps(self, src: int, tid: int):
        self._unqueue_locked(src, tid)
        yield DEQ
