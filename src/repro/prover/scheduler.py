"""The parallel VC-discharge scheduler.

Turns a :class:`repro.verif.engine.ProofEngine` population into a scheduled,
cached, observable job system:

* **cache pass** — every SMT VC's goal is built and fingerprinted in the
  parent; persistent-cache hits never reach a worker;
* **fan-out** — remaining VCs run on a forked process pool (the CDCL solver
  is GIL-bound, so threads cannot scale it).  Goal-builder closures do not
  pickle and need not: the run's VC list is published in a module global
  just before the pool is created, the forked workers inherit the very
  objects the parent built, and a task carries only engine-order indices.
  On a platform without ``fork`` the run stays inline;
* **ordering** — longest-first by last-observed duration when the cache has
  timing history, so the slowest VC (the paper's 11 s tail) starts first
  instead of serializing the end of the run; engine order otherwise;
* **family grouping** — SMT goals with the same *shape* (same lemma
  template at different constants) are grouped by
  :func:`repro.prover.fingerprint.family_fingerprint` and discharged as one
  unit through a shared :class:`repro.smt.solver.FamilySolver`: one AIG,
  one CNF, per-goal assumption literals, learnt clauses amortised across
  the family.  Singleton families keep the classic single-shot path, so
  their results (counterexample models included) are bit-identical to the
  serial engine's;
* **per-VC timeout + retry** — SMT discharges run under a deterministic
  conflict budget; a budget overrun is a ``TIMEOUT`` that is retried on the
  next rung of :attr:`ProverConfig.budgets`, unbounded on the last by
  default so a scheduled run proves exactly what the serial engine proves;
* **determinism** — results are reassembled into the engine's insertion
  order, so the :class:`ProofReport` contents and ordering are identical
  for any ``jobs`` value (only the wall-clock changes).

Every lifecycle step is published on the :mod:`repro.obs` bus as
``prover.<kind>``: ``queued`` when the scheduler accepts a VC,
``cache-hit`` when the persistent cache already holds its verdict,
``started`` / ``finished`` around a discharge (with the lane and the
retry-ladder attempt), and ``run-finished`` with the run totals.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

from repro import obs
from repro.prover.cache import ProofCache, default_cache_dir
from repro.prover.fingerprint import family_fingerprint, goal_fingerprint, \
    structural_fingerprint
from repro.verif.engine import ProofEngine, ProofReport
from repro.verif.vc import VC, VCResult, discharge_family, \
    discharge_single, worker_failed


@dataclass
class ProverConfig:
    """Knobs of a scheduled run."""

    use_cache: bool = True
    cache_dir: str | None = None
    #: The retry ladder: the conflict budget of each attempt at an SMT
    #: goal, in order (None = unbounded).  The first rung is generous — the
    #: Figure 1a population stays well under it — so timeouts only appear
    #: for genuinely hard goals or when callers tighten it; a ladder that
    #: ends on a number surfaces undecided goals as TIMEOUT.
    budgets: tuple[int | None, ...] = (100_000, 400_000, None)
    #: Optional :class:`repro.faults.plan.FaultPlan`.  The inline lane
    #: draws at site ``"prover.worker"`` before each discharge; a firing
    #: ``worker-crash`` rule kills that worker, which the scheduler must
    #: absorb as an ERROR verdict, never a lost run.
    fault_plan: object | None = None
    #: Run the SatELite CNF preprocessor on every SMT discharge.
    preprocess: bool = True
    #: Group same-shape SMT goals into families discharged through one
    #: shared incremental solver (assumption-based).  Disabling forces the
    #: classic one-solver-per-VC path for every goal.
    incremental: bool = True


class WorkerCrash(RuntimeError):
    """A (simulated) prover worker died mid-discharge."""


def _discharge_unit(vcs: list[VC], budgets, preprocess: bool,
                    on_member=None) -> list[tuple[VCResult, int]]:
    """Discharge one dispatch unit — a singleton on the classic
    one-solver-per-VC path, a family through one shared solver — into
    ``(result, attempt)`` pairs in unit order."""
    if len(vcs) == 1:
        return [discharge_single(vcs[0], budgets, preprocess, on_member)]
    return discharge_family(vcs, budgets, preprocess=preprocess,
                            on_member=on_member)


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------

#: The VC list (engine order) of the run whose pool is up.  Set just before
#: the pool is created and cleared when it is down, so the forked workers —
#: and only they — find the parent's own VC objects under the indices a
#: task names.
_forked_vcs: list[VC] = []


def _pool_discharge(indices: list[int], budgets,
                    preprocess: bool) -> list[tuple[VCResult, int]]:
    """Worker entry point: discharge the inherited VCs at `indices` as one
    unit.  A counterexample that cannot cross the process boundary travels
    as its repr."""
    outs = _discharge_unit([_forked_vcs[i] for i in indices], budgets,
                           preprocess)
    for result, _ in outs:
        try:
            pickle.dumps(result.counterexample)
        except Exception:
            result.counterexample = repr(result.counterexample)
    return outs


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


@dataclass
class _Job:
    index: int       # position in the engine's canonical order
    vc: VC
    fingerprint: str | None = None   # cache key (SMT VCs only)
    family: str | None = None        # shape-grouping key (SMT VCs only)
    build_seconds: float = 0.0       # goal construction + cache lookup
    expected: float = 0.0            # last-observed duration, if any


class ProverScheduler:
    """One scheduled run over an engine's VC population, on `jobs`
    worker processes (1 = inline)."""

    def __init__(self, engine: ProofEngine,
                 config: ProverConfig | None = None,
                 cache: ProofCache | None = None,
                 jobs: int = 1, progress=None) -> None:
        self.engine = engine
        self.config = config or ProverConfig()
        self.jobs = jobs
        if cache is not None:
            self.cache = cache
        elif self.config.use_cache:
            self.cache = ProofCache(self.config.cache_dir
                                    or default_cache_dir())
        else:
            self.cache = None
        self.progress = progress
        self._t0 = 0.0

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _emit(self, kind: str, vc: VC | None = None, **fields) -> None:
        """Publish ``prover.<kind>`` on the bus, stamped with seconds
        since the run started; free when nobody is tracing."""
        bus = obs.bus()
        if bus.active:
            if vc is not None:
                fields.update(vc=vc.name, category=vc.category)
            bus.emit(f"prover.{kind}", t=self._now(), **fields)

    # -- run ---------------------------------------------------------------

    def run(self) -> ProofReport:
        self._t0 = time.perf_counter()
        run_span = obs.span("prover.run",
                            histogram="prover.run_seconds").start()
        ordered = self.engine.vcs()
        results: list[VCResult | None] = [None] * len(ordered)
        history = self.cache.load_timings() if self.cache else {}
        fresh_timings: dict[str, float] = {}

        # A structural cache key names its VC; VCs sharing a name stay
        # uncached.
        named = Counter(vc.name for vc in ordered)

        pending: list[_Job] = []
        for index, vc in enumerate(ordered):
            self._emit("queued", vc)
            job = _Job(index=index, vc=vc,
                       expected=history.get(vc.name, 0.0))
            if self.cache is not None or (self.config.incremental
                                          and vc.is_smt):
                start = time.perf_counter()
                hit = None
                try:
                    if vc.is_smt:
                        goal = vc.goal_builder()
                        if self.config.incremental:
                            job.family = family_fingerprint(goal)
                        if self.cache is not None:
                            job.fingerprint = goal_fingerprint(
                                goal, vc.simplify, self.config.preprocess,
                                self.config.incremental)
                    elif (self.cache is not None
                          and self.engine.rebuild_spec is not None
                          and named[vc.name] == 1):
                        builder, kwargs = self.engine.rebuild_spec
                        job.fingerprint = structural_fingerprint(
                            builder, kwargs, vc.name)
                    if job.fingerprint is not None:
                        hit = self.cache.get(job.fingerprint)
                except Exception:
                    # A goal builder that cannot even construct its term
                    # will surface the error through the normal discharge
                    # path below; never let the cache pass crash the run.
                    job.fingerprint = None
                    job.family = None
                job.build_seconds = time.perf_counter() - start
                if hit is not None:
                    result = self.cache.result_from(hit, vc,
                                                    job.build_seconds)
                    results[index] = result
                    obs.counter("prover.cache_hits").inc()
                    self._emit("cache-hit", vc)
                    if self.progress is not None:
                        self.progress(result)
                    continue
            pending.append(job)

        # Longest-expected-first; index breaks ties deterministically.
        pending.sort(key=lambda j: (-j.expected, j.index))
        units = self._form_units(pending)

        context = _fork_context() if self.jobs > 1 and pending else None
        if context is None:
            self._run_inline(units, results, fresh_timings)
        else:
            self._run_pool(units, ordered, context, results, fresh_timings)

        report = ProofReport(results=[r for r in results if r is not None])
        run_span.finish()
        report.wall_seconds = self._now()
        if self.cache is not None and fresh_timings:
            self.cache.store_timings(fresh_timings)
        self._emit("run-finished", dur=report.wall_seconds,
                   solver_seconds=report.solver_seconds)
        return report

    # -- inline lane -------------------------------------------------------

    def _finish(self, job: _Job, result: VCResult, attempt: int, lane: str,
                results, fresh_timings) -> None:
        result.seconds += job.build_seconds
        results[job.index] = result
        fresh_timings[job.vc.name] = result.seconds
        obs.counter("prover.discharged", lane=lane).inc()
        if (job.fingerprint is not None and self.cache is not None):
            self.cache.put(job.fingerprint, result)
        self._emit("finished", job.vc, dur=result.seconds,
                   solver_seconds=result.solver_seconds, worker=lane,
                   status=result.status.value, attempt=attempt)
        if self.progress is not None:
            self.progress(result)

    def _maybe_crash(self, vc: VC) -> None:
        plan = self.config.fault_plan
        if plan is None:
            return
        decision = plan.draw("prover.worker")
        if decision is not None and decision.kind == "worker-crash":
            raise WorkerCrash(f"injected crash discharging {vc.name}")

    def _form_units(self, pending) -> list[list[_Job]]:
        """Group pending jobs into dispatch units.

        A unit is a list of jobs discharged together: singletons take the
        classic one-solver-per-VC path; families of ≥2 same-shape SMT goals
        share one incremental solver.  A unit is placed at the position of
        its highest-priority member, with members in canonical engine
        order, so unit formation is a deterministic function of the
        population regardless of job count.
        """
        if not self.config.incremental:
            return [[job] for job in pending]
        by_family: dict[tuple, list[_Job]] = {}
        for job in pending:
            if job.family is not None:
                key = (job.family, job.vc.simplify)
                by_family.setdefault(key, []).append(job)
        units: list[list[_Job]] = []
        claimed: set[int] = set()
        for job in pending:
            if job.index in claimed:
                continue
            members = (by_family.get((job.family, job.vc.simplify), [])
                       if job.family is not None else [])
            if len(members) >= 2:
                unit = sorted(members, key=lambda j: j.index)
                claimed.update(j.index for j in unit)
                obs.counter("prover.family_reuse").inc(len(unit) - 1)
                units.append(unit)
            else:
                units.append([job])
        return units

    def _run_inline(self, units, results, fresh_timings) -> None:
        for unit in units:
            for job in unit:
                self._emit("started", job.vc, worker="inline")
            outs = _discharge_unit([job.vc for job in unit],
                                   self.config.budgets,
                                   self.config.preprocess, self._maybe_crash)
            for job, (result, attempt) in zip(unit, outs):
                self._finish(job, result, attempt, "inline", results,
                             fresh_timings)

    # -- process-pool lane -------------------------------------------------

    def _run_pool(self, units, ordered, context, results,
                  fresh_timings) -> None:
        global _forked_vcs
        _forked_vcs = ordered
        executor = ProcessPoolExecutor(max_workers=self.jobs,
                                       mp_context=context)
        try:
            future_to_unit = {}
            for unit in units:
                for job in unit:
                    self._emit("started", job.vc, worker="proc")
                future = executor.submit(
                    _pool_discharge, [job.index for job in unit],
                    self.config.budgets, self.config.preprocess)
                future_to_unit[future] = unit
            for future in as_completed(future_to_unit):
                unit = future_to_unit[future]
                try:
                    outs = future.result()
                except Exception as exc:
                    outs = [(worker_failed(job.vc, exc), 1) for job in unit]
                for job, (result, attempt) in zip(unit, outs):
                    self._finish(job, result, attempt, "proc", results,
                                 fresh_timings)
        finally:
            executor.shutdown(wait=True)
            _forked_vcs = []


def _fork_context():
    """The ``fork`` start method, or None where the platform has none (the
    run then stays inline): a forked worker is the only kind that holds
    the VCs it is asked for."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def prove_all(engine: ProofEngine, jobs: int = 1,
              cache: ProofCache | None = None,
              config: ProverConfig | None = None,
              progress=None) -> ProofReport:
    """Discharge every VC of `engine` under the scheduler.

    Returns a :class:`ProofReport` whose contents and ordering are
    independent of `jobs`; `report.wall_seconds` carries the end-to-end
    time and `report.cache_hits` the number of VCs served from the
    persistent proof cache.  Pass ``config=ProverConfig(use_cache=False)``
    (or a `cache` instance) to control caching explicitly."""
    return ProverScheduler(engine, config=config, cache=cache, jobs=jobs,
                           progress=progress).run()
