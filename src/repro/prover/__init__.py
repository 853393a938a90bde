"""`repro.prover` — scheduled, cached, observable VC discharge.

The serial loop in :class:`repro.verif.engine.ProofEngine` discharges the
Figure 1a population one VC at a time with no caching or telemetry.  This
subsystem is the production path around it:

* :mod:`repro.prover.scheduler` — a work scheduler fanning VCs out across a
  forked process pool (workers inherit the VCs they run), longest-observed
  first, with per-VC conflict budgets and a retry ladder;
* :mod:`repro.prover.cache` — a content-addressed persistent proof cache,
  keyed by goal-term fingerprint + solver configuration;
* :mod:`repro.prover.fingerprint` — the stable fingerprints behind the
  cache keys.

A run's lifecycle (queued / cache-hit / started / finished /
run-finished) is published on the :mod:`repro.obs` bus as
``prover.<kind>`` events.

Entry points: :func:`prove_all` and ``python -m repro prove --jobs N``.
"""

from repro.prover.cache import CacheStats, ProofCache, default_cache_dir
from repro.prover.fingerprint import goal_fingerprint, term_fingerprint
from repro.prover.scheduler import (
    ProverConfig,
    ProverScheduler,
    WorkerCrash,
    prove_all,
)

__all__ = [
    "CacheStats",
    "ProofCache",
    "ProverConfig",
    "ProverScheduler",
    "WorkerCrash",
    "default_cache_dir",
    "goal_fingerprint",
    "prove_all",
    "term_fingerprint",
]
