"""Deterministic fault injection across the system's layers.

The paper's claim is that a verified OS contract lets applications survive
the environment's *misbehavior*, not just its absence.  This package turns
that claim into a gated test surface:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, replayable
  decision engine.  Every injection site in the tree (disk, block driver,
  link, physical/user memory, prover) asks the plan whether to misbehave;
  the same ``(seed, rules)`` tuple always yields the same campaign.
* :mod:`repro.faults.crash` — the crash-recovery harness: run a filesystem
  scenario once to count its write boundaries, then re-run it crashing the
  disk at every boundary, remount, and audit the volume with ``fsck``.
* :mod:`repro.faults.campaign` — the seeded campaigns behind
  ``python -m repro faults``: disk, net, mem, prover, cluster and ring.
  Each scenario reports what it injected, what reached the caller as a
  typed error, its notes and its violations; one runner turns that into
  the injected / survived / degraded / failed counters of every site.
* :mod:`repro.faults.cluster` — the cluster campaign's scenarios: node
  crashes at message boundaries, link partitions with bounded heals, and
  replica lag, all against the replicated KV service's durability and
  session guarantees.

The injection sites themselves live in the layers (``Disk``,
``BlockDriver``, ``Link``, ``BuddyAllocator``, ``Heap``,
``ProverScheduler``) so campaigns exercise the real code paths rather than
mocks around them.
"""

from repro.faults.campaign import CampaignReport, run_campaign
from repro.faults.crash import CrashMatrixReport, run_crash_matrix
from repro.faults.plan import FaultDecision, FaultPlan, FaultRule

__all__ = [
    "CampaignReport",
    "CrashMatrixReport",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "run_campaign",
    "run_crash_matrix",
]
