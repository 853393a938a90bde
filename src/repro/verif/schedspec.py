"""The scheduler specification: a small state machine with inductive
invariants.

Following Baumann et al.'s "specification is the bottleneck" advice,
the scheduler spec is written *first-class and small*: abstract threads
with tiny integer vruntimes and weights, per-core queue sets, and the
four invariants the implementation's :meth:`Scheduler.audit` mirrors at
runtime:

* ``one_place`` — every non-exited thread is in exactly one of
  {running, exactly-one-runqueue, blocked};
* ``weight_sums`` / ``ready_counts`` — the cached per-core aggregates
  match the queue members (the redundancy that makes ``has_runnable``
  O(1) in the implementation is *specified*, not incidental);
* ``spread_bounded`` — the vruntime spread of runnable fair threads on
  a core is bounded (weighted fairness: nobody laps the field);
* ``rt_first`` — a fair thread runs on a core with RT work queued only
  via the bandwidth throttle, i.e. with the core's RT streak reset.

Vruntimes are kept finite by *canonical renormalization*: after every
transition the minimum runnable fair vruntime is shifted to zero, so
bounded exploration in :mod:`repro.verif.schedproof` covers the whole
reachable quotient space.

This module is spec-layer: pure functions over immutable named tuples
(checked by ``python -m repro analyze``'s purity lint).  Named tuples
rather than frozen dataclasses because exploration hashes and compares
every successor it builds: a tuple does both in C.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.verif.statemachine import SpecStateMachine, Transition

#: Abstract quantum: one pick charges QUANTUM * MAX_WEIGHT / weight.
QUANTUM = 2
#: Fair weights the bounded configurations use.
WEIGHTS = (1, 2)
MAX_WEIGHT = 2
#: Sleeper bonus (virtual time a woken thread may lag the queue min).
BONUS = 1
#: Consecutive RT picks before a fair pick is forced (throttle).
RT_STREAK_LIMIT = 2
#: Bound on the vruntime spread of runnable fair threads per core:
#: one maximal charge (QUANTUM * MAX_WEIGHT / 1) plus the bonus.
SPREAD_LIMIT = QUANTUM * MAX_WEIGHT + BONUS
#: Migration imbalance threshold (queued fair count difference).
MIGRATE_GAP = 2

QUEUED = "queued"
RUNNING = "running"
BLOCKED = "blocked"
EXITED = "exited"

FAIR = "fair"
RT = "rt"


class SpecThread(NamedTuple):
    """One abstract thread: ``weight`` is the fair weight for fair
    threads and the RT priority for RT threads."""

    tid: int
    kind: str          # FAIR | RT
    weight: int
    vruntime: int
    state: str         # QUEUED | RUNNING | BLOCKED | EXITED
    core: int


class SchedState(NamedTuple):
    """Threads plus the redundant per-core caches the invariants pin."""

    ncores: int
    threads: tuple[SpecThread, ...]
    queues: tuple[tuple[int, ...], ...]       # queued tids per core
    weight_sums: tuple[int, ...]              # fair weight per core
    ready_counts: tuple[int, ...]
    rt_streak: tuple[int, ...]


# -- helpers (all pure) -------------------------------------------------------


def thread_by_tid(state: SchedState, tid: int) -> SpecThread:
    for thread in state.threads:
        if thread.tid == tid:
            return thread
    raise KeyError(tid)


def queued_on(state: SchedState, core: int,
              kind: str | None = None) -> tuple[SpecThread, ...]:
    found = []
    for tid in state.queues[core]:
        thread = thread_by_tid(state, tid)
        if kind is None or thread.kind == kind:
            found.append(thread)
    return tuple(found)


def running_on(state: SchedState, core: int) -> SpecThread | None:
    for thread in state.threads:
        if thread.state == RUNNING and thread.core == core:
            return thread
    return None


def runnable_fair(state: SchedState, core: int) -> tuple[SpecThread, ...]:
    found = []
    for thread in state.threads:
        if thread.kind == FAIR and thread.core == core \
                and thread.state in (QUEUED, RUNNING):
            found.append(thread)
    return tuple(found)


def min_fair_vruntime(state: SchedState, core: int) -> int:
    """The core's fairness floor: minimum vruntime over its runnable
    (queued or running) fair threads — the spec counterpart of the
    implementation's monotone ``min_vruntime`` watermark."""
    values = [t.vruntime for t in runnable_fair(state, core)]
    return min(values) if values else 0


def charge(weight: int) -> int:
    return QUANTUM * MAX_WEIGHT // weight


def _rebuild(ncores: int, threads: tuple[SpecThread, ...],
             rt_streak: tuple[int, ...]) -> SchedState:
    """Recompute the cached aggregates from the threads and normalize
    vruntimes *per core* so each core's minimum runnable fair vruntime
    is zero.  Nothing in the spec compares vruntimes across cores
    (migration renormalizes against per-core floors), so the shift is a
    congruence — and it is what keeps the reachable space finite.

    One pass over the threads collects the floors, queue members, fair
    weights and counts; the shift moves vruntimes only, so it leaves
    the aggregates alone."""
    floors: list = [None] * ncores
    queues: list = [[] for _ in range(ncores)]
    weight_sums = [0] * ncores
    for t in threads:
        if t.state == QUEUED:
            queues[t.core].append(t.tid)
            if t.kind == FAIR:
                weight_sums[t.core] += t.weight
        if t.kind == FAIR and t.state in (QUEUED, RUNNING):
            floor = floors[t.core]
            if floor is None or t.vruntime < floor:
                floors[t.core] = t.vruntime
    shifts = [floor or 0 for floor in floors]
    if any(shift > 0 for shift in shifts):
        threads = tuple(
            SpecThread(t.tid, t.kind, t.weight,
                       max(0, t.vruntime - shifts[t.core]), t.state, t.core)
            if t.kind == FAIR and t.state != EXITED else t
            for t in threads)
    return SchedState(ncores, threads,
                      tuple(tuple(sorted(queue)) for queue in queues),
                      tuple(weight_sums),
                      tuple(len(queue) for queue in queues),
                      rt_streak)


def canonical(state: SchedState) -> SchedState:
    """Recompute the cached aggregates and renormalize vruntimes — the
    public entry the proof layer uses to re-canonicalize perturbed
    states before induction checks."""
    return _rebuild(state.ncores, state.threads, state.rt_streak)


def _update(state: SchedState, new: SpecThread,
            streak: tuple[int, ...] | None = None) -> SchedState:
    threads = tuple(new if t.tid == new.tid else t
                    for t in state.threads)
    return _rebuild(state.ncores, threads,
                    state.rt_streak if streak is None else streak)


# -- the pick policy (shared by transition and conformance VCs) ---------------


def pick_choice(state: SchedState, core: int) -> SpecThread | None:
    """Which thread a pick on `core` chooses: the max-priority RT
    thread, unless the throttle forces the min-vruntime fair thread."""
    rt_queue = queued_on(state, core, RT)
    fair_queue = queued_on(state, core, FAIR)
    throttled = state.rt_streak[core] >= RT_STREAK_LIMIT
    if rt_queue and (not throttled or not fair_queue):
        return max(rt_queue, key=lambda t: (t.weight, -t.tid))
    if fair_queue:
        return min(fair_queue, key=lambda t: (t.vruntime, t.tid))
    return None


# -- transitions --------------------------------------------------------------


def _pick_enabled(state: SchedState, args: tuple) -> bool:
    (core,) = args
    return core < state.ncores and running_on(state, core) is None \
        and len(state.queues[core]) > 0


def _pick_apply(state: SchedState, args: tuple) -> SchedState:
    (core,) = args
    chosen = pick_choice(state, core)
    streak = list(state.rt_streak)
    if chosen.kind == RT:
        streak[core] = min(streak[core] + 1, RT_STREAK_LIMIT)
    else:
        streak[core] = 0
    return _update(state, chosen._replace(state=RUNNING),
                   streak=tuple(streak))


def _deschedule_enabled(state: SchedState, args: tuple) -> bool:
    (core,) = args
    return core < state.ncores and running_on(state, core) is not None


def _charged(thread: SpecThread) -> SpecThread:
    if thread.kind == FAIR:
        return thread._replace(
            vruntime=thread.vruntime + charge(thread.weight))
    return thread


def _requeue_apply(state: SchedState, args: tuple) -> SchedState:
    (core,) = args
    thread = _charged(running_on(state, core))
    return _update(state, thread._replace(state=QUEUED))


def _block_apply(state: SchedState, args: tuple) -> SchedState:
    (core,) = args
    thread = _charged(running_on(state, core))
    return _update(state, thread._replace(state=BLOCKED))


def _exit_apply(state: SchedState, args: tuple) -> SchedState:
    (core,) = args
    thread = running_on(state, core)
    return _update(state, thread._replace(state=EXITED))


def _wake_enabled(state: SchedState, args: tuple) -> bool:
    (tid,) = args
    for thread in state.threads:
        if thread.tid == tid:
            return thread.state == BLOCKED
    return False


def _wake_apply(state: SchedState, args: tuple) -> SchedState:
    (tid,) = args
    thread = thread_by_tid(state, tid)
    vruntime = thread.vruntime
    if thread.kind == FAIR:
        floor = min_fair_vruntime(state, thread.core)
        vruntime = max(vruntime, floor - BONUS)
    return _update(state, thread._replace(state=QUEUED,
                                          vruntime=max(0, vruntime)))


def _migrate_args(state: SchedState):
    pairs = []
    for src in range(state.ncores):
        for dst in range(state.ncores):
            if src == dst:
                continue
            fair_src = queued_on(state, src, FAIR)
            if len(fair_src) < len(queued_on(state, dst, FAIR)) \
                    + MIGRATE_GAP:
                continue
            # the steal candidate: max vruntime (most-run) fair thread
            chosen = max(fair_src, key=lambda t: (t.vruntime, t.tid))
            pairs.append((chosen.tid, dst))
    return pairs


def _migrate_enabled(state: SchedState, args: tuple) -> bool:
    return args in _migrate_args(state)


def _migrate_apply(state: SchedState, args: tuple) -> SchedState:
    tid, dst = args
    thread = thread_by_tid(state, tid)
    lead = max(0, thread.vruntime
               - min_fair_vruntime(state, thread.core))
    vruntime = min_fair_vruntime(state, dst) + lead
    return _update(state, thread._replace(core=dst, vruntime=vruntime))


def _wake_args(state: SchedState):
    return [(t.tid,) for t in state.threads if t.state == BLOCKED]


def _core_args(state: SchedState):
    return [(core,) for core in range(state.ncores)]


# -- invariants ---------------------------------------------------------------


def inv_one_place(state: SchedState) -> bool:
    """Every non-exited thread is in exactly one of {running, exactly
    one runqueue, blocked}; at most one thread runs per core."""
    for thread in state.threads:
        appearances = sum(thread.tid in queue for queue in state.queues)
        if thread.state == QUEUED:
            if appearances != 1 or thread.tid not in \
                    state.queues[thread.core]:
                return False
        elif appearances != 0:
            return False
    for core in range(state.ncores):
        running = [t for t in state.threads
                   if t.state == RUNNING and t.core == core]
        if len(running) > 1:
            return False
    return True


def inv_weight_sums(state: SchedState) -> bool:
    for core in range(state.ncores):
        expected = sum(t.weight for t in queued_on(state, core, FAIR))
        if state.weight_sums[core] != expected:
            return False
        if state.ready_counts[core] != len(state.queues[core]):
            return False
    return True


def inv_spread_bounded(state: SchedState) -> bool:
    for core in range(state.ncores):
        values = [t.vruntime for t in runnable_fair(state, core)]
        if values and max(values) - min(values) > SPREAD_LIMIT:
            return False
    return True


def inv_vruntime_bounded(state: SchedState) -> bool:
    """Renormalization keeps every vruntime in a finite window — the
    reason bounded exploration covers the reachable quotient space."""
    bound = SPREAD_LIMIT + QUANTUM * MAX_WEIGHT + BONUS
    return all(0 <= t.vruntime <= bound for t in state.threads
               if t.kind == FAIR and t.state != EXITED)


def inv_rt_first(state: SchedState) -> bool:
    """RT never waits behind fair except through the throttle.  The
    inductive strengthening: a fair thread running on a core implies
    the core's RT streak was reset by that very pick — which entails
    the user-facing property (fair running past queued RT work only
    happens with the streak at zero, i.e. through the throttle)."""
    for core in range(state.ncores):
        running = running_on(state, core)
        if running is None or running.kind != FAIR:
            continue
        if state.rt_streak[core] != 0:
            return False
    return True


def inv_running_lag(state: SchedState) -> bool:
    """Strengthening that makes ``spread_bounded`` inductive: a running
    fair thread leads the queued fair minimum by at most the sleeper
    bonus.  True because picks take the minimum and wakes clamp to the
    floor minus the bonus — and needed, because the deschedule charge
    is only spread-safe from states where the running thread has not
    already pulled ahead."""
    for core in range(state.ncores):
        running = running_on(state, core)
        if running is None or running.kind != FAIR:
            continue
        queued = [t.vruntime for t in queued_on(state, core, FAIR)]
        if queued and running.vruntime > min(queued) + BONUS:
            return False
    return True


def inv_blocked_bounded(state: SchedState) -> bool:
    """Strengthening that makes ``spread_bounded`` inductive across
    wakes: a blocked fair thread never sits above the spread window.
    True because blocking charges a lag-bounded running thread (at
    most ``BONUS`` past a zero floor, plus one maximal charge) and
    renormalization only ever shifts vruntimes down."""
    return all(t.vruntime <= SPREAD_LIMIT for t in state.threads
               if t.kind == FAIR and t.state == BLOCKED)


INVARIANTS = {
    "one_place": inv_one_place,
    "weight_sums": inv_weight_sums,
    "spread_bounded": inv_spread_bounded,
    "vruntime_bounded": inv_vruntime_bounded,
    "rt_first": inv_rt_first,
    "running_lag": inv_running_lag,
    "blocked_bounded": inv_blocked_bounded,
}


# -- bounded configurations ---------------------------------------------------


def make_state(threads: tuple[SpecThread, ...],
               ncores: int) -> SchedState:
    return _rebuild(ncores, tuple(sorted(threads)), (0,) * ncores)


def smp_config() -> SchedState:
    """Two cores, three fair threads of mixed weight + one RT thread:
    the configuration migration and the throttle both exercise."""
    return make_state((
        SpecThread(1, FAIR, 1, 0, QUEUED, 0),
        SpecThread(2, FAIR, 2, 0, QUEUED, 0),
        SpecThread(3, RT, 2, 0, QUEUED, 0),
        SpecThread(4, FAIR, 1, 0, QUEUED, 1),
    ), ncores=2)


def uniprocessor_config() -> SchedState:
    """One core, a sleeper and an RT thread: wake clamping + throttle."""
    return make_state((
        SpecThread(1, FAIR, 1, 0, QUEUED, 0),
        SpecThread(2, RT, 1, 0, QUEUED, 0),
        SpecThread(3, FAIR, 2, 0, BLOCKED, 0),
    ), ncores=1)


def sched_machine(init_states=None) -> SpecStateMachine:
    return SpecStateMachine(
        name="scheduler",
        init_states=(list(init_states) if init_states is not None
                     else [smp_config(), uniprocessor_config()]),
        transitions=[
            Transition("pick", _pick_enabled, _pick_apply,
                       args=_core_args),
            Transition("requeue", _deschedule_enabled, _requeue_apply,
                       args=_core_args),
            Transition("block", _deschedule_enabled, _block_apply,
                       args=_core_args),
            Transition("exit", _deschedule_enabled, _exit_apply,
                       args=_core_args),
            Transition("wake", _wake_enabled, _wake_apply,
                       args=_wake_args),
            Transition("migrate", _migrate_enabled, _migrate_apply,
                       args=_migrate_args),
        ],
        invariants=dict(INVARIANTS),
    )
