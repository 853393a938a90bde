"""Scheduling entities: per-thread scheduling state and class parameters.

One :class:`SchedEntity` per kernel thread carries everything the
scheduler knows about it — its scheduling class (CFS-style fair, or the
RT FIFO/RR classes), its nice level or RT priority, its virtual runtime,
and its current core.  The entity outlives individual enqueues: it is
created the first time a thread becomes ready and destroyed by
``Scheduler.forget``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SchedPolicy(enum.Enum):
    """The three scheduling classes (POSIX names, CFS semantics)."""

    FAIR = "fair"   # CFS: weighted fair sharing by vruntime
    FIFO = "fifo"   # RT: run until block, strict priority
    RR = "rr"       # RT: round-robin time slices within a priority


#: Nice levels span [-20, 19]; weight halves roughly every 3 nice steps
#: (the classic 1.25**-nice table), so a nice -5 thread receives about
#: 3x the CPU share of a nice +0 thread under contention.
NICE_MIN = -20
NICE_MAX = 19
WEIGHT_NICE0 = 1024
NICE_TO_WEIGHT: dict[int, int] = {
    nice: max(15, round(WEIGHT_NICE0 * 1.25 ** (-nice)))
    for nice in range(NICE_MIN, NICE_MAX + 1)
}

#: RT priorities: 1 (lowest) .. 99 (highest); any RT beats any fair.
RT_PRIO_MIN = 1
RT_PRIO_MAX = 99

#: One scheduling quantum of simulated time.  The cooperative kernel
#: runs a thread for exactly one quantum per ``next_thread`` pick
#: (threads run until their next syscall), so vruntime accounting
#: charges a whole quantum scaled by the entity's weight.
QUANTUM_NS = 1_000_000

#: A woken sleeper's vruntime is clamped to at most this far below the
#: queue minimum — it gets a latency bonus for having slept, but cannot
#: bank unbounded credit and starve the queue afterwards.
SLEEPER_BONUS_NS = QUANTUM_NS // 2

#: SCHED_RR time slice, in quanta, before the thread rotates to the
#: tail of its priority queue.
RR_SLICE_QUANTA = 4

#: Consecutive RT picks a core tolerates while fair threads wait; the
#: next pick is then forced fair (RT bandwidth throttling — the
#: starvation-freedom knob for the fair class).
RT_THROTTLE_STREAK = 8

#: Bound on the vruntime spread (max - min) of the runnable fair
#: threads on one core.  With the minimum weight 15, one quantum
#: charges at most QUANTUM_NS * 1024 / 15 ≈ 68.3 * QUANTUM_NS; the
#: spread stays below one maximal charge plus the sleeper bonus because
#: min-vruntime picking always runs the thread furthest behind.
SPREAD_LIMIT_NS = QUANTUM_NS * WEIGHT_NICE0 // 15 + QUANTUM_NS + \
    SLEEPER_BONUS_NS


def fair_charge(weight: int) -> int:
    """Virtual time one quantum costs an entity of the given weight."""
    return QUANTUM_NS * WEIGHT_NICE0 // weight


@dataclass
class SchedEntity:
    """Per-thread scheduling state (see module docstring)."""

    tid: int
    label: str                  # thread name, for run-stable traces
    policy: SchedPolicy = SchedPolicy.FAIR
    nice: int = 0
    rt_prio: int = 0            # meaningful for FIFO/RR only
    vruntime: int = 0
    core: int | None = None     # sticky affinity; None until first ready
    in_queue: bool = False
    quanta: int = 0             # quanta this entity has consumed
    rr_left: int = RR_SLICE_QUANTA
    rr_expired: bool = False    # slice ran out: requeue at the tail
    fresh: bool = True          # never enqueued yet

    @property
    def weight(self) -> int:
        return NICE_TO_WEIGHT[self.nice]

    @property
    def is_rt(self) -> bool:
        return self.policy is not SchedPolicy.FAIR
