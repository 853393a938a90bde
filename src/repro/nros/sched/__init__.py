"""`repro.nros.sched` — the multi-class scheduler.

* :mod:`repro.nros.sched.entity` — per-thread scheduling state, nice
  weights, scheduling classes;
* :mod:`repro.nros.sched.runqueue` — per-core fair heap + RT deques;
* :mod:`repro.nros.sched.smp` — the lock-bracketed cross-core protocol
  (the race detector's replay target);
* :mod:`repro.nros.sched.scheduler` — the kernel-facing facade (the
  seed's ``ready/block/wake/next_thread/forget/has_runnable`` contract);
* :mod:`repro.nros.sched.workload` — the deterministic simulated-time
  workload harness behind ``python -m repro sched`` and
  ``benchmarks/bench_sched.py``.
"""

from repro.nros.sched.entity import (
    NICE_TO_WEIGHT,
    QUANTUM_NS,
    RT_THROTTLE_STREAK,
    SchedEntity,
    SchedPolicy,
)
from repro.nros.sched.scheduler import Scheduler

__all__ = [
    "NICE_TO_WEIGHT",
    "QUANTUM_NS",
    "RT_THROTTLE_STREAK",
    "SchedEntity",
    "SchedPolicy",
    "Scheduler",
]
