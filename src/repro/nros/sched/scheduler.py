"""The kernel scheduler: CFS-style fair class + RT classes over per-CPU
runqueues.

Cooperative in the Python sense (threads run until their next syscall),
but structurally the real thing:

* a **fair class** — per-thread virtual runtime charged inversely to the
  thread's nice-level weight, min-vruntime picking via a per-core heap,
  and a sleeper bonus on wake so interactive threads get latency without
  banking unbounded credit;
* **RT classes** — FIFO and RR priorities 1..99 that preempt any fair
  thread, bounded by a bandwidth throttle (after
  :data:`~repro.nros.sched.entity.RT_THROTTLE_STREAK` consecutive RT
  picks on a core the next pick is forced fair), which is what makes the
  fair class starvation-free even under a busy-looping RT thread;
* **per-CPU runqueues** with sticky core affinity, periodic load
  balancing (every :data:`BALANCE_PERIOD` picks the busiest core's
  most-run fair thread migrates to the idlest core) and work stealing
  when a core's own queue is empty — both through the lock-bracketed
  :class:`~repro.nros.sched.smp.SchedProtocol` the race detector
  replays.

The external contract is unchanged from the seed scheduler
(``ready / block / wake / next_thread / forget / has_runnable``), so
``nros/kernel.py`` needed only the two new sched syscalls.

The specification lives in :mod:`repro.verif.schedspec`;
:meth:`Scheduler.audit` checks the implementation against the same
invariants at runtime, and :mod:`repro.verif.schedproof` discharges
conformance VCs through the prover.
"""

from __future__ import annotations

from repro import obs
from repro.nros.proc.process import BlockReason, Thread, ThreadState
from repro.nros.sched.entity import (
    NICE_MAX,
    NICE_MIN,
    RR_SLICE_QUANTA,
    RT_PRIO_MAX,
    RT_PRIO_MIN,
    RT_THROTTLE_STREAK,
    SLEEPER_BONUS_NS,
    SchedEntity,
    SchedPolicy,
    WEIGHT_NICE0,
    fair_charge,
)
from repro.nros.sched.runqueue import CoreRunQueue
from repro.nros.sched.smp import QueueLock, SchedProtocol, drive

#: A load-balance pass runs every this many picks.
BALANCE_PERIOD = 32

#: Minimum fair-weight imbalance (busiest minus idlest) worth a
#: migration — half a nice-0 thread, so two balanced cores don't
#: ping-pong a thread between them.
BALANCE_THRESHOLD = WEIGHT_NICE0 // 2


class Scheduler:
    """Multi-class scheduler over per-core runqueues (see module doc)."""

    def __init__(self, num_cores: int = 1, *,
                 record_trace: bool = False) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self._queues = [CoreRunQueue(core) for core in range(num_cores)]
        self._locks = [QueueLock(f"rq{core}.lock")
                       for core in range(num_cores)]
        self._entities: dict[int, SchedEntity] = {}
        self._threads: dict[int, Thread] = {}
        self._protocol = SchedProtocol(self._queues, self._entities,
                                       self._locks)
        #: The wait table: ``BlockReason.kind -> {tid: Thread}`` in arrival
        #: order (``Thread.block_reason`` is the per-thread half).
        self._parked: dict[str, dict[int, Thread]] = {}
        self._running: dict[int, int] = {}   # tid -> core
        self._rt_streak = [0] * num_cores
        self._ready_total = 0
        self._next_core = 0
        self._pick_count = 0
        self.context_switches = 0
        self.migrations = 0
        self.steals = 0
        self.preemptions = 0      # RT picked while fair threads waited
        self.rt_throttles = 0     # fair forced in despite queued RT
        self.record_trace = record_trace
        self.switch_trace: list[tuple[int, str]] = []
        self._c_switches = obs.counter("sched.switches")
        self._c_migrations = obs.counter("sched.migrations")
        self._c_steals = obs.counter("sched.steals")
        self._c_throttles = obs.counter("sched.rt_throttles")

    # -- entities and policies ----------------------------------------------

    def _entity(self, thread: Thread) -> SchedEntity:
        ent = self._entities.get(thread.tid)
        if ent is None:
            ent = SchedEntity(tid=thread.tid, label=thread.name)
            self._entities[thread.tid] = ent
            self._threads[thread.tid] = thread
        return ent

    def set_nice(self, thread: Thread, nice: int) -> None:
        if not NICE_MIN <= nice <= NICE_MAX:
            raise ValueError(f"nice {nice} out of range")
        ent = self._entity(thread)
        ent.nice = nice
        if ent.in_queue and ent.policy is SchedPolicy.FAIR:
            # re-queue so the weight sum tracks the new weight
            queue = self._queues[ent.core]
            queue.remove_fair(ent.tid)
            queue.push_fair(ent.tid, ent.vruntime, ent.weight)

    def set_policy(self, thread: Thread, policy: SchedPolicy | str,
                   nice: int = 0, rt_prio: int = 0) -> None:
        """Switch a thread's scheduling class (``sched_setscheduler``)."""
        if isinstance(policy, str):
            try:
                policy = SchedPolicy(policy)
            except ValueError:
                raise ValueError(f"unknown policy {policy!r}") from None
        if policy is SchedPolicy.FAIR:
            if rt_prio != 0:
                raise ValueError("fair threads take no rt priority")
            if not NICE_MIN <= nice <= NICE_MAX:
                raise ValueError(f"nice {nice} out of range")
        else:
            if not RT_PRIO_MIN <= rt_prio <= RT_PRIO_MAX:
                raise ValueError(f"rt priority {rt_prio} out of range")
        ent = self._entity(thread)
        requeue = ent.in_queue
        if requeue:
            self._unqueue(ent)
        ent.policy = policy
        ent.nice = nice if policy is SchedPolicy.FAIR else 0
        ent.rt_prio = rt_prio if policy is not SchedPolicy.FAIR else 0
        if policy is SchedPolicy.FAIR:
            # entering the fair class: start at the queue watermark so
            # the thread neither starves the queue nor is starved by it
            core = ent.core if ent.core is not None else 0
            ent.vruntime = max(ent.vruntime,
                               self._queues[core].min_vruntime)
        if requeue:
            self._enqueue(ent)

    def policy_of(self, thread: Thread) -> tuple[str, int]:
        ent = self._entities.get(thread.tid)
        if ent is None:
            return (SchedPolicy.FAIR.value, 0)
        if ent.policy is SchedPolicy.FAIR:
            return (ent.policy.value, ent.nice)
        return (ent.policy.value, ent.rt_prio)

    # -- core placement -----------------------------------------------------

    def assign_core(self, thread: Thread) -> int:
        """Pick (and remember) the core for a thread: least fair+RT
        load, ties to the lowest core index (deterministic)."""
        ent = self._entity(thread)
        if ent.core is not None:
            return ent.core
        core = min(
            range(self.num_cores),
            key=lambda c: (self._queues[c].fair_weight
                           + self._queues[c].rt_count * WEIGHT_NICE0, c),
        )
        ent.core = core
        return core

    def core_of(self, thread: Thread) -> int:
        ent = self._entities.get(thread.tid)
        return 0 if ent is None or ent.core is None else ent.core

    # -- the seed contract --------------------------------------------------

    def ready(self, thread: Thread) -> None:
        if thread.state is ThreadState.EXITED:
            return
        ent = self._entity(thread)
        tid = thread.tid
        if tid in self._running:
            self._charge(ent)
        was_blocked = self._unpark(thread)
        thread.state = ThreadState.READY
        if ent.in_queue:
            return
        core = self.assign_core(thread)
        fresh = ent.fresh
        ent.fresh = False
        if ent.policy is SchedPolicy.FAIR and (was_blocked or fresh):
            floor = self._queues[core].min_vruntime
            bonus = 0 if fresh else SLEEPER_BONUS_NS
            ent.vruntime = max(ent.vruntime, floor - bonus)
        # a FIFO thread that merely ran keeps the head of its priority
        # queue (POSIX: runs until it blocks); an RR thread keeps it only
        # while its slice lasts
        front = False
        if ent.policy is SchedPolicy.FIFO:
            front = not fresh and not was_blocked
        elif ent.policy is SchedPolicy.RR:
            front = not fresh and not was_blocked and not ent.rr_expired
        ent.rr_expired = False
        self._enqueue(ent, front=front)

    def block(self, thread: Thread, reason: BlockReason) -> None:
        ent = self._entity(thread)
        if thread.tid in self._running:
            self._charge(ent)
        if ent.in_queue:
            self._unqueue(ent)
        self._unpark(thread)
        thread.block(reason)
        self._parked.setdefault(reason.kind, {})[thread.tid] = thread

    def wake(self, thread: Thread, result=("value", None)) -> None:
        if thread.state is not ThreadState.BLOCKED:
            return
        self.ready(thread)      # leaves the wait table by its block_reason
        thread.wake(result)     # ... which this clears

    def parked(self, kind: str) -> list[Thread]:
        """The threads blocked on a ``kind`` reason, in arrival order (a
        snapshot: wakers wake while they iterate)."""
        return list(self._parked.get(kind, {}).values())

    def _unpark(self, thread: Thread) -> bool:
        """Take ``thread`` out of the wait table; True if it was there."""
        reason = thread.block_reason
        return reason is not None and self._parked.get(
            reason.kind, {}).pop(thread.tid, None) is not None

    def next_thread(self, core: int | None = None) -> Thread | None:
        """The next runnable thread.

        Called with no argument (the kernel's mode) the starting core
        rotates, as in the seed.  Called with ``core=`` (the per-core
        simulation mode) an empty core first tries to steal work from
        the most loaded one.
        """
        self._pick_count += 1
        if self._pick_count % BALANCE_PERIOD == 0:
            self._load_balance()
        if core is None:
            for offset in range(self.num_cores):
                candidate = (self._next_core + offset) % self.num_cores
                thread = self._pick_on(candidate)
                if thread is not None:
                    self._next_core = (candidate + 1) % self.num_cores
                    return thread
            return None
        thread = self._pick_on(core)
        if thread is None and self._try_steal(core):
            thread = self._pick_on(core)
        return thread

    def has_runnable(self) -> bool:
        return self._ready_total > 0

    def runnable_count(self) -> int:
        return self._ready_total

    def blocked_count(self) -> int:
        return sum(map(len, self._parked.values()))

    def forget(self, thread: Thread) -> None:
        tid = thread.tid
        ent = self._entities.pop(tid, None)
        self._threads.pop(tid, None)
        self._unpark(thread)
        self._running.pop(tid, None)
        if ent is not None and ent.in_queue:
            # satellite fix: exited threads no longer linger in queues
            queue = self._queues[ent.core]
            if ent.policy is SchedPolicy.FAIR:
                queue.remove_fair(tid)
            else:
                queue.remove_rt(tid, ent.rt_prio)
            self._ready_total -= 1

    # -- internals ----------------------------------------------------------

    def _charge(self, ent: SchedEntity) -> None:
        """Account one quantum to a descheduling thread."""
        self._running.pop(ent.tid, None)
        ent.quanta += 1
        if ent.policy is SchedPolicy.FAIR:
            ent.vruntime += fair_charge(ent.weight)
        elif ent.policy is SchedPolicy.RR:
            ent.rr_left -= 1
            if ent.rr_left <= 0:
                ent.rr_left = RR_SLICE_QUANTA
                ent.rr_expired = True

    def _enqueue(self, ent: SchedEntity, front: bool = False) -> None:
        core = ent.core if ent.core is not None else 0
        ent.core = core
        drive(self._protocol.enqueue_steps("kernel", core, ent.tid,
                                           front=front))
        self._ready_total += 1

    def _unqueue(self, ent: SchedEntity) -> None:
        queue = self._queues[ent.core]
        if ent.policy is SchedPolicy.FAIR:
            queue.remove_fair(ent.tid)
        else:
            queue.remove_rt(ent.tid, ent.rt_prio)
        ent.in_queue = False
        self._ready_total -= 1

    def _pick_on(self, core: int) -> Thread | None:
        queue = self._queues[core]
        if queue.ready_count == 0:
            return None
        have_rt = queue.top_rt_prio() is not None
        have_fair = queue.fair_count > 0
        prefer_rt = have_rt and (
            self._rt_streak[core] < RT_THROTTLE_STREAK or not have_fair)
        if have_rt and have_fair and not prefer_rt:
            self.rt_throttles += 1
            self._c_throttles.inc()
        tid = drive(self._protocol.dequeue_steps("kernel", core,
                                                 prefer_rt=prefer_rt))
        if tid is None:
            return None
        self._ready_total -= 1
        ent = self._entities[tid]
        if ent.is_rt:
            self._rt_streak[core] = min(self._rt_streak[core] + 1,
                                        RT_THROTTLE_STREAK)
            if have_fair:
                self.preemptions += 1
        else:
            self._rt_streak[core] = 0
        self._running[tid] = core
        self.context_switches += 1
        self._c_switches.inc()
        if self.record_trace:
            self.switch_trace.append((core, ent.label))
        return self._threads[tid]

    def _load_balance(self) -> None:
        if self.num_cores < 2:
            return
        loads = [(self._queues[c].fair_weight, c)
                 for c in range(self.num_cores)]
        busiest = max(loads)
        idlest = min(loads)
        if busiest[1] == idlest[1] or \
                self._queues[busiest[1]].fair_count < 2 or \
                busiest[0] - idlest[0] < BALANCE_THRESHOLD:
            return
        self._migrate(busiest[1], idlest[1], stolen=False)

    def _try_steal(self, core: int) -> bool:
        donors = [(self._queues[c].fair_count, self._queues[c].fair_weight,
                   c) for c in range(self.num_cores) if c != core]
        if not donors:
            return False
        best = max(donors)
        if best[0] < 2:   # never steal a core's only fair thread
            return False
        return self._migrate(best[2], core, stolen=True)

    def _migrate(self, src: int, dst: int, stolen: bool) -> bool:
        tid = drive(self._protocol.migrate_steps(
            "steal" if stolen else "balance", src, dst))
        if tid is None:
            return False
        ent = self._entities[tid]
        if stolen:
            self.steals += 1
            self._c_steals.inc()
        else:
            self.migrations += 1
            self._c_migrations.inc()
        bus = obs.bus()
        if bus.active:
            bus.emit("sched.migrate", tid=tid, src=src, dst=dst,
                     stolen=stolen, label=ent.label)
        return True

    # -- runtime audit (the spec's invariants, checked on the impl) ---------

    def audit(self) -> list[str]:
        """Violations of the scheduler's state invariants; empty on a
        correct implementation.  Mirrors
        :mod:`repro.verif.schedspec`'s inductive invariants."""
        problems: list[str] = []
        queued = set()
        for queue in self._queues:
            problems.extend(queue.audit(self._entities))
            members = queue.queued_tids()
            overlap = queued & members
            if overlap:
                problems.append(f"tids {sorted(overlap)} queued on "
                                f"multiple cores")
            queued |= members
        blocked = set()
        for kind, waiters in self._parked.items():
            blocked.update(waiters)
            problems.extend(
                f"tid {tid} parked on {kind}, block_reason {t.block_reason!r}"
                for tid, t in waiters.items()
                if t.block_reason is None or t.block_reason.kind != kind)
        for tid, ent in self._entities.items():
            places = [ent.in_queue, tid in self._running, tid in blocked]
            if sum(places) != 1:
                problems.append(
                    f"tid {tid} in {sum(places)} places "
                    f"(queued={ent.in_queue}, "
                    f"running={tid in self._running}, "
                    f"blocked={tid in blocked})")
            if ent.in_queue != (tid in queued):
                problems.append(f"tid {tid} in_queue={ent.in_queue} but "
                                f"queue membership={tid in queued}")
        if self._ready_total != sum(q.ready_count for q in self._queues):
            problems.append(
                f"ready_total {self._ready_total} != queue sum "
                f"{sum(q.ready_count for q in self._queues)}")
        for core in range(self.num_cores):
            if self._queues[core].top_rt_prio() is None:
                continue
            fair_running = any(
                c == core and not self._entities[tid].is_rt
                for tid, c in self._running.items()
                if tid in self._entities)
            if fair_running and self._rt_streak[core] != 0:
                problems.append(
                    f"core {core}: fair thread running past a queued RT "
                    f"thread with rt_streak {self._rt_streak[core]}")
        return problems

    def stats(self) -> dict[str, int]:
        return {
            "context_switches": self.context_switches,
            "migrations": self.migrations,
            "steals": self.steals,
            "preemptions": self.preemptions,
            "rt_throttles": self.rt_throttles,
        }
