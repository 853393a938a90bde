"""Race replay for the SMP runqueue protocol.

:mod:`repro.nros.sched.smp` writes the cross-core protocol as step
generators, exactly like :mod:`repro.nr.core` — so the same lockset +
vector-clock monitor (:class:`repro.analysis.race.RaceMonitor`) can
interleave two cores and a load balancer adversarially and check every
runqueue/entity access for a happens-before edge or a common lock.

The happens-before argument the replay validates is *lock-ownership
transfer*: ``locks[c]`` guards ``queues[c]`` and the entities core
``c`` owns, and a tid's owning core only changes inside
``migrate_steps``, which holds **both** locks in core order.  A core
touching a freshly stolen entity is therefore ordered after the
migration through its own lock's release clock.

On the real protocol the report is empty at every seed.  The seeded
mutants break the transfer two ways, and the detector flags both
deterministically:

* ``sched-steal-lock-elision`` — migration takes only the destination
  lock, so its source-queue scan/dequeue races with the source core's
  own picks;
* ``sched-double-enqueue`` — migration holds both locks (lock
  discipline intact!) but forgets to dequeue the source copy, so the
  thread is runnable on two cores at once and both cores' picks write
  the same entity with no common lock and no ordering edge.
"""

from __future__ import annotations

from repro.analysis.race import RaceMonitor, RaceReport
from repro.nros.sched.entity import SchedEntity, SchedPolicy, fair_charge
from repro.nros.sched.runqueue import CoreRunQueue
from repro.nros.sched.smp import Observer, QueueLock, SchedProtocol, drive
from repro.verif.explore import interleave

#: Worker rounds per core.  Most rounds run *after* the balancer's
#: last migration: the balancer holds both locks, so while it is
#: active its lock chain orders nearly all cross-core accesses — a
#: double-enqueued entity only races once that chain goes quiet.
_ROUNDS = 12
_BALANCE_ROUNDS = 2


class MonitorObserver(Observer):
    """Maps the protocol's access hooks onto the race monitor's data
    locations: ``rq{core}`` for runqueues, ``ent{tid}`` for entities."""

    def __init__(self, monitor: RaceMonitor) -> None:
        self._mon = monitor

    def queue_read(self, core: int) -> None:
        self._mon.data_read(f"rq{core}")

    def queue_write(self, core: int) -> None:
        self._mon.data_write(f"rq{core}")

    def entity_read(self, tid: int) -> None:
        self._mon.data_read(f"ent{tid}")

    def entity_write(self, tid: int) -> None:
        self._mon.data_write(f"ent{tid}")


class TracedQueueLock(QueueLock):
    """QueueLock that reports acquisitions to the monitor (exclusive —
    runqueue locks have no read mode)."""

    def __init__(self, monitor: RaceMonitor, name: str) -> None:
        super().__init__(name)
        self._mon = monitor

    def try_lock(self, who: object) -> bool:
        ok = super().try_lock(who)
        if ok:
            self._mon.acquire(self.name, "write")
        return ok

    def unlock(self, who: object) -> None:
        super().unlock(who)
        self._mon.release(self.name, "write")


# -- seeded mutants -----------------------------------------------------------


class StealLockElisionProtocol(SchedProtocol):
    """Migration takes only the *destination* lock — the classic
    work-stealing bug where the scan of the victim's queue is
    unsynchronized against the victim's own picks."""

    def _acquire_both(self, who: object, src: int, dst: int):
        yield from self._acquire(who, dst)
        return (dst,)


class DoubleEnqueueProtocol(SchedProtocol):
    """Migration holds both locks but forgets to dequeue the source
    copy: the thread becomes runnable on two cores at once, and both
    cores' subsequent picks write its entity unsynchronized."""

    def _unqueue_steps(self, src: int, tid: int):
        return ()  # BUG (deliberate): no dequeue, and no DEQ step


# -- the replay ---------------------------------------------------------------


def _population() -> dict[int, SchedEntity]:
    """Two cores' worth of mixed entities: three fair + one RT on core
    0 (the steal victim), two fair on core 1."""
    return {
        1: SchedEntity(1, "f1", vruntime=0, nice=-5),
        2: SchedEntity(2, "f2", vruntime=1),
        3: SchedEntity(3, "f3", vruntime=2, nice=5),
        4: SchedEntity(4, "f4", vruntime=0),
        5: SchedEntity(5, "f5", vruntime=1),
        6: SchedEntity(6, "r6", policy=SchedPolicy.FIFO, rt_prio=50),
    }


_HOMES = {1: 0, 2: 0, 3: 0, 6: 0, 4: 1, 5: 1}


def build_protocol(monitor: RaceMonitor,
                   protocol_cls=SchedProtocol) -> SchedProtocol:
    """A fresh two-core protocol instance with traced locks and the
    monitor-wired observer, pre-populated (untraced) with the mixed
    entity set."""
    queues = [CoreRunQueue(core) for core in (0, 1)]
    locks = [TracedQueueLock(monitor, f"rq{core}.lock")
             for core in (0, 1)]
    entities = _population()
    proto = protocol_cls(queues, entities, locks=locks,
                         observer=MonitorObserver(monitor))
    # initial placement: monitor inactive, so nothing is recorded
    for tid, core in _HOMES.items():
        drive(proto.enqueue_steps("init", core, tid))
    return proto


def _core_worker(proto: SchedProtocol, core: int, rounds: int):
    """One core's pick loop: dequeue, run (charge vruntime), re-enqueue.

    The charge is deliberately *lock-free*, exactly like the real
    scheduler's deschedule charge: a running entity is owned by its
    core, so the access is ordered against migrations through the
    enqueue that made the entity stealable in the first place.  The
    double-enqueue mutant breaks precisely this ownership claim — two
    cores charge the same entity with no edge between them."""
    who = ("core", core)
    for i in range(rounds):
        # mostly fair picks (the throttle regime) so the pick loop
        # rotates through the fair entities instead of letting the
        # FIFO thread monopolize the core
        tid = yield from proto.dequeue_steps(who, core,
                                             prefer_rt=i % 4 == 0)
        if tid is not None:
            ent = proto.entities[tid]
            proto.observer.entity_write(tid)
            if ent.policy is SchedPolicy.FAIR:
                ent.vruntime += fair_charge(ent.weight)
            yield "RUN"
            yield from proto.enqueue_steps(who, core, tid)


def _balancer(proto: SchedProtocol, rounds: int):
    """The load balancer: alternately steal 0 -> 1 and 1 -> 0."""
    for i in range(rounds):
        src, dst = (0, 1) if i % 2 == 0 else (1, 0)
        yield from proto.migrate_steps("balancer", src, dst)


def replay_sched(seed: int, protocol_cls=SchedProtocol,
                 monitor: RaceMonitor | None = None,
                 max_steps: int = 10_000) -> RaceMonitor:
    """Interleave two core workers and the balancer under `seed`; every
    shared access reports to the monitor.  A structural crash inside a
    mutant (e.g. a double-enqueue tripping the runqueue's own
    assertion) ends that runner but keeps the replay going — the
    monitor has already seen the racing accesses by then."""
    if monitor is None:
        monitor = RaceMonitor()
    proto = build_protocol(monitor, protocol_cls)
    runners = [
        {"thread": 0, "who": ("core", 0),
         "gen": _core_worker(proto, 0, _ROUNDS)},
        {"thread": 1, "who": ("core", 1),
         "gen": _core_worker(proto, 1, _ROUNDS)},
        {"thread": 2, "who": "balancer",
         "gen": _balancer(proto, _BALANCE_ROUNDS)},
    ]

    def step(runner) -> bool:
        monitor.step_begin(runner["thread"])
        try:
            label = next(runner["gen"])
        except StopIteration:
            monitor.step_end(None)
            return False
        except AssertionError:
            # drop any locks the crashed runner still holds, or the
            # surviving workers spin forever against a dead owner
            for lock in proto.locks:
                if lock.owner == runner["who"]:
                    lock.unlock(runner["who"])
            monitor.step_end("CRASH")
            return False
        monitor.step_end(label)
        return True

    interleave(runners, seed, step, max_steps)
    return monitor


def detect_sched_races(seeds, protocol_cls=SchedProtocol,
                       max_steps: int = 10_000) -> RaceReport:
    """Replay the runqueue protocol once per seed (fresh instance each
    time) and merge the reports — same shape as
    :func:`repro.analysis.race.detect_races`."""
    report = RaceReport(seeds=list(seeds))
    for seed in report.seeds:
        monitor = replay_sched(seed, protocol_cls=protocol_cls,
                               max_steps=max_steps)
        report.races.extend(monitor.races)
        report.steps += monitor.seq
        report.accesses += monitor.accesses
        report.schedules += 1
    return report
