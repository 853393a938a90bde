"""Deterministic simulated-time scheduler workloads.

Wall-clock cannot show core scaling in single-threaded Python, so the
harness runs the scheduler under *simulated* time, exactly like the
cluster bench: one tick lets every core pick one thread and charges it
one :data:`~repro.nros.sched.entity.QUANTUM_NS` of virtual time.  The
mixed workload is the classic scheduler stress:

* **batch** threads — always runnable, spread over nice levels, the
  background load fairness is measured against;
* **interactive** threads — short bursts then a seeded sleep; their
  wake-to-first-run latency is the p50/p99 the bench reports;
* **RT** threads — a periodic FIFO task that must preempt everything.

Everything derives from one ``random.Random(seed)``, so two runs with
the same seed produce the identical context-switch trace and identical
``BENCH_sched.json`` numerics — the determinism gate the cluster and
faults campaigns already have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import obs
from repro.nros.proc.process import BlockReason, Thread
from repro.nros.sched.entity import NICE_TO_WEIGHT, QUANTUM_NS, SchedPolicy
from repro.nros.sched.scheduler import Scheduler

#: Core counts the scaling bench sweeps.
SCALE_CORE_COUNTS = (1, 2, 4, 8)


@dataclass
class WorkloadProfile:
    """Knobs of the mixed interactive+batch+RT workload."""

    ticks: int = 6_000
    batch: int = 12
    interactive: int = 6
    rt: int = 2
    batch_nices: tuple[int, ...] = (-5, 0, 0, 5)
    burst_quanta: tuple[int, int] = (1, 3)     # interactive run length
    sleep_ticks: tuple[int, int] = (3, 12)     # interactive sleep length
    rt_period: int = 7
    rt_prio: int = 50


class _SimProcess:
    def __init__(self, name: str) -> None:
        self.name = name
        self.pid = 0


def _make_thread(name: str) -> Thread:
    def gen():
        yield

    return Thread(_SimProcess(name), gen(), name=name)


@dataclass
class _Task:
    """One workload thread's behavior state."""

    thread: Thread
    kind: str                     # "batch" | "interactive" | "rt"
    burst_left: int = 0
    wake_at: int | None = None
    ready_since: int | None = None
    latencies: list[int] = field(default_factory=list)
    quanta: int = 0


def run_workload(num_cores: int, profile: WorkloadProfile, seed: int = 1,
                 record_trace: bool = False) -> dict:
    """Run the mixed workload; returns the metrics payload entry (and
    the scheduler's switch trace under ``"switch_trace"`` when
    ``record_trace``)."""
    rng = random.Random(seed)
    sched = Scheduler(num_cores, record_trace=record_trace)
    tasks: dict[int, _Task] = {}

    def add(task: _Task) -> None:
        tasks[task.thread.tid] = task

    for i in range(profile.batch):
        task = _Task(_make_thread(f"batch{i}"), "batch")
        sched.set_nice(task.thread,
                       profile.batch_nices[i % len(profile.batch_nices)])
        sched.ready(task.thread)
        add(task)
    for i in range(profile.interactive):
        task = _Task(_make_thread(f"inter{i}"), "interactive")
        task.burst_left = rng.randint(*profile.burst_quanta)
        sched.ready(task.thread)
        task.ready_since = 0
        add(task)
    for i in range(profile.rt):
        task = _Task(_make_thread(f"rt{i}"), "rt")
        sched.set_policy(task.thread, SchedPolicy.FIFO,
                         rt_prio=profile.rt_prio)
        sched.ready(task.thread)
        task.ready_since = 0
        add(task)

    executed = 0
    for tick in range(profile.ticks):
        # deliver due wakeups (sleep timers, RT periods)
        for task in tasks.values():
            if task.wake_at is not None and task.wake_at <= tick:
                task.wake_at = None
                sched.wake(task.thread)
                task.ready_since = tick
        for core in range(num_cores):
            thread = sched.next_thread(core=core)
            if thread is None:
                continue
            task = tasks[thread.tid]
            executed += 1
            task.quanta += 1
            if task.ready_since is not None:
                task.latencies.append((tick - task.ready_since)
                                      * QUANTUM_NS)
                task.ready_since = None
            if task.kind == "batch":
                sched.ready(thread)
            elif task.kind == "interactive":
                task.burst_left -= 1
                if task.burst_left <= 0:
                    task.burst_left = rng.randint(*profile.burst_quanta)
                    task.wake_at = tick + 1 + \
                        rng.randint(*profile.sleep_ticks)
                    sched.block(thread, BlockReason("sleep", task.wake_at))
                else:
                    sched.ready(thread)
            else:  # rt: run one quantum per period, then sleep to it
                task.wake_at = tick + profile.rt_period
                sched.block(thread, BlockReason("sleep", task.wake_at))

    problems = sched.audit()
    if problems:
        raise AssertionError(f"scheduler audit failed: {problems}")

    def percentiles(kind: str) -> dict:
        hist = obs.Histogram(name=f"sched.latency.{kind}")
        for task in tasks.values():
            if task.kind == kind:
                for value in task.latencies:
                    hist.record(value)
        return {"count": hist.count,
                "p50_ns": hist.percentile(50) if hist.count else 0,
                "p99_ns": hist.percentile(99) if hist.count else 0}

    sim_ns = profile.ticks * QUANTUM_NS
    metrics = {
        "cores": num_cores,
        "ticks": profile.ticks,
        "quanta": executed,
        "sim_ns": sim_ns,
        "throughput_qps": executed / (sim_ns / 1e9),
        "interactive": percentiles("interactive"),
        "rt": percentiles("rt"),
        **sched.stats(),
    }
    if record_trace:
        metrics["switch_trace"] = list(sched.switch_trace)
    return metrics


def run_fairness(seed: int = 1, ticks: int = 3_000) -> dict:
    """Three always-runnable batch threads at nice -5/0/+5 on one core:
    achieved CPU shares vs the nice-weight ideal."""
    nices = (-5, 0, 5)
    sched = Scheduler(1)
    counts = {nice: 0 for nice in nices}
    by_tid = {}
    for nice in nices:
        thread = _make_thread(f"fair{nice}")
        sched.set_nice(thread, nice)
        sched.ready(thread)
        by_tid[thread.tid] = nice
    for _ in range(ticks):
        thread = sched.next_thread(core=0)
        counts[by_tid[thread.tid]] += 1
        sched.ready(thread)
    total_weight = sum(NICE_TO_WEIGHT[nice] for nice in nices)
    shares = {}
    max_rel_error = 0.0
    for nice in nices:
        ideal = NICE_TO_WEIGHT[nice] / total_weight
        achieved = counts[nice] / ticks
        shares[str(nice)] = {"ideal": ideal, "achieved": achieved,
                             "quanta": counts[nice]}
        max_rel_error = max(max_rel_error, abs(achieved - ideal) / ideal)
    return {"threads": len(nices), "ticks": ticks, "seed": seed,
            "shares": shares, "max_rel_error": max_rel_error}


def scaling_bench(seed: int = 1) -> dict:
    """The ``BENCH_sched.json`` payload: throughput and latency at
    1/2/4/8 cores under the mixed workload, plus the fairness error."""
    profile = WorkloadProfile(ticks=1_500)
    series = {}
    for cores in SCALE_CORE_COUNTS:
        with obs.span("sched.bench.run", cores=cores):
            series[str(cores)] = run_workload(cores, profile, seed=seed)
    return {
        "seed": seed,
        "profile": {
            "ticks": profile.ticks,
            "batch": profile.batch,
            "interactive": profile.interactive,
            "rt": profile.rt,
            "rt_period": profile.rt_period,
            "rt_prio": profile.rt_prio,
        },
        "series": series,
        "fairness": run_fairness(seed=seed, ticks=600),
    }
