"""Simulated-time execution of NR workloads (Figures 1b and 1c).

Each core is a simulated process repeatedly issuing operations through the
*same* NR step protocol used by the functional and interleaved drivers; each
protocol step is charged the cache-coherence cost of the shared memory it
touches (slots, the combiner lock, the log tail, per-entry log reads, the
owner's result line).  The result is per-operation latency that grows with
contending cores for the mechanistic reason the paper's does: the flat
combiner processes bigger batches, and every waiter waits for the whole
batch.  A `spin` touches no shared memory, so it is charged together with
the lost `try_combine` before it, as one simulator event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.nr import core as nrcore
from repro.nr.core import SPIN, TRY_COMBINE, NodeReplicated
from repro.obs.events import EventBus
from repro.obs.instruments import Histogram
from repro.obs.span import Span, sim_clock
from repro.sim.kernel import Delay, SimulationError, Simulator
from repro.sim.resources import CacheLine
from repro.sim.stats import LatencyRecorder
from repro.sim.topology import Topology


#: What a lost combine attempt's backoff costs before the core retries.
SPIN_BACKOFF_NS = 120
#: Think time between two operations on one core.
OP_GAP_NS = 250


@dataclass
class TimedNrConfig:
    """Workload and cost parameters for a timed NR run."""

    num_cores: int
    ops_per_core: int = 32
    cores_per_node: int = 14
    apply_cost_ns: int = 800        # executing one mutating op on a replica
    query_cost_ns: int = 300        # executing one read-only op
    post_op_cost_fn: Callable | None = None  # e.g. TLB shootdown for unmap


@dataclass
class TimedNrResult:
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    by_kind: dict = field(default_factory=dict)  # op kind -> LatencyRecorder
    sim_ns: int = 0
    batches: int = 0
    max_batch: int = 0
    log_appends: int = 0
    #: Simulator events dispatched (one per resume of a core process).
    events: int = 0
    #: Combiner batch-size population (merged across replicas/shards).
    batch_sizes: Histogram = field(
        default_factory=lambda: Histogram(name="nr.batch_size"))

    def kind(self, name: str) -> LatencyRecorder:
        return self.by_kind.setdefault(name, LatencyRecorder())

    @property
    def throughput_ops_per_ms(self) -> float:
        if self.sim_ns == 0:
            return 0.0
        return len(self.latency) / (self.sim_ns / 1e6)


class _SharedLines:
    """The cache lines the protocol steps touch."""

    def __init__(self, topology: Topology, num_nodes: int, num_cores: int):
        self.combiner = [CacheLine(topology) for _ in range(num_nodes)]
        self.lock = [CacheLine(topology) for _ in range(num_nodes)]
        self.tail = CacheLine(topology)
        self.slot = [CacheLine(topology) for _ in range(num_cores)]
        self.result = [CacheLine(topology) for _ in range(num_cores)]


def _step_costs(core: int, node: int, nr: NodeReplicated,
                lines: _SharedLines, topology: Topology,
                cfg: TimedNrConfig) -> dict:
    """Protocol step label -> what `core` pays for taking that step now
    (a thunk, since most steps move a cache line as they are priced)."""
    costs = topology.costs
    node_cores = topology.cores_on_node(node)
    slot, result = lines.slot[core], lines.result[core]
    combiner, lock, tail = lines.combiner[node], lines.lock[node], lines.tail
    log, replica, results = nr.log, nr.replicas[node], lines.result
    apply_cost = costs.local_transfer + cfg.apply_cost_ns

    def apply():
        # one log entry: fetch the entry line and run the sequential op;
        # an entry this node appended also delivers its owner's result,
        # so the owner's next CHECK_RESULT misses on that line
        entry = log.entry(replica.ltail - 1)
        if entry.node == node:
            return apply_cost + results[entry.thread].write(core)
        return apply_cost

    return {
        nrcore.PUBLISH: lambda: slot.write(core),
        nrcore.TRY_COMBINE: lambda: combiner.atomic_rmw(core),
        nrcore.CHECK_RESULT: lambda: result.read(core),
        nrcore.COLLECT:
            lambda: sum(lines.slot[c].read(core) for c in node_cores),
        nrcore.APPEND: lambda: tail.atomic_rmw(core) + costs.local_dram,
        nrcore.WLOCK: lambda: lock.atomic_rmw(core),
        nrcore.APPLY: apply,
        nrcore.RELEASE: lambda: combiner.write(core) + lock.write(core),
        nrcore.SPIN: lambda: SPIN_BACKOFF_NS,
        nrcore.READ_TAIL: lambda: tail.read(core),
        nrcore.RLOCK: lambda: lock.atomic_rmw(core),
        nrcore.READ: lambda: cfg.query_cost_ns,
        nrcore.RUNLOCK: lambda: lock.write(core),
    }


class _Delays(dict):
    """cost in ns -> the one `Delay` a run yields for it.  Commands are
    immutable (see :mod:`repro.sim.kernel`), a run has a few dozen
    distinct costs and a million steps, so a step pays a dict hit
    instead of constructing a frozen dataclass."""

    def __missing__(self, ns: int) -> Delay:
        command = self[ns] = Delay(ns)
        return command


def _run_timed(
    instances: list[NodeReplicated],
    resolve: Callable[[int, int], tuple],
    topology: Topology,
    cfg: TimedNrConfig,
    bus: EventBus | None,
) -> TimedNrResult:
    """The one timed driver: every core is a simulated process issuing
    `ops_per_core` operations through the NR step protocol, each step a
    `Delay` of what it costs on that instance's cache lines.

    `resolve(core, i)` returns `(op, is_read, index, span_fields)`: the
    i-th operation of a core, which of `instances` executes it, and what
    its `nr.op` span says beyond core and kind."""
    lines = [_SharedLines(topology, topology.num_nodes, cfg.num_cores)
             for _ in instances]
    sim = Simulator()
    clock = sim_clock(sim)
    result = TimedNrResult()
    costs = topology.costs
    delays = _Delays()

    def core_process(core: int):
        node = topology.node_of(core)
        step_costs = [_step_costs(core, node, nr, shared, topology, cfg)
                      for nr, shared in zip(instances, lines)]
        for i in range(cfg.ops_per_core):
            op, is_read, index, span_fields = resolve(core, i)
            nr, cost_of = instances[index], step_costs[index]
            replica = nr.replicas[node]
            kind = op[0] if isinstance(op, tuple) else str(op)
            span = Span("nr.op", clock=clock, histogram=result.latency,
                        bus=bus, core=core, kind=kind, **span_fields).start()
            yield delays[costs.syscall_entry]
            if is_read:
                steps = nr.read_steps(op, node, thread=core)
            else:
                steps = nr.execute_steps(op, node, thread=core)
            for label in steps:
                cost = cost_of[label]()
                if label is TRY_COMBINE and replica.combiner != core:
                    # a lost attempt: the next step only tests the
                    # generator-local `acquired`, so it is taken now and
                    # charged with this one (see `repro.sim.kernel`)
                    if next(steps, None) is not SPIN:
                        raise SimulationError(
                            f"core {core}: a lost {TRY_COMBINE} is not "
                            f"followed by {SPIN}")
                    cost += cost_of[SPIN]()
                if cost:
                    yield delays[cost]
            if cfg.post_op_cost_fn is not None:
                extra = cfg.post_op_cost_fn(op, is_read, cfg.num_cores,
                                            topology)
                if extra:
                    yield delays[extra]
            yield delays[costs.syscall_exit]
            elapsed = span.finish()
            result.kind(kind).record(elapsed)
            yield delays[OP_GAP_NS]

    for core in range(cfg.num_cores):
        sim.spawn(core_process(core), name=f"core{core}")
    sim.run()

    replicas = [r for nr in instances for r in nr.replicas]
    result.sim_ns = sim.now
    result.events = sim.events
    result.batches = sum(r.batches for r in replicas)
    result.max_batch = max(r.max_batch for r in replicas)
    result.log_appends = sum(nr.log.appends for nr in instances)
    for nr in instances:
        result.batch_sizes.merge(nr.batch_sizes)
    return result


def run_timed_workload(
    ds_factory: Callable,
    op_fn: Callable[[int, int], tuple[object, bool]],
    cfg: TimedNrConfig,
    bus: EventBus | None = None,
) -> TimedNrResult:
    """Run `ops_per_core` operations on each of `num_cores` cores.

    `op_fn(core, i)` returns `(op, is_read)` for the i-th operation of a
    core.  Returns latency statistics in simulated nanoseconds.

    Per-operation timing is a :class:`repro.obs.span.Span` driven by the
    simulator's virtual clock, so every duration is an integer count of
    simulated nanoseconds — a traced run (pass `bus`) is byte-identical
    between repetitions."""
    topology = Topology(cfg.num_cores, cores_per_node=cfg.cores_per_node)
    nr = NodeReplicated(ds_factory, num_nodes=topology.num_nodes)

    def resolve(core: int, i: int):
        op, is_read = op_fn(core, i)
        return op, is_read, 0, {}

    return _run_timed([nr], resolve, topology, cfg, bus)


def run_timed_sharded(
    ds_factory: Callable,
    op_fn: Callable[[int, int], tuple[object, object, bool]],
    cfg: TimedNrConfig,
    num_shards: int,
    bus: EventBus | None = None,
) -> TimedNrResult:
    """Like :func:`run_timed_workload`, but over a :class:`ShardedNr`.

    `op_fn(core, i)` returns `(key, op, is_read)`; the key selects the
    shard, and each shard owns independent cache lines (its own log tail,
    combiner word, and lock), so writes to different shards proceed in
    parallel — the Section 4.1 write-scaling mechanism."""
    from repro.nr.shard import ShardedNr

    topology = Topology(cfg.num_cores, cores_per_node=cfg.cores_per_node)
    sharded = ShardedNr(ds_factory, num_shards=num_shards,
                        num_nodes=topology.num_nodes)

    def resolve(core: int, i: int):
        key, op, is_read = op_fn(core, i)
        shard = sharded.shard_for(key)
        return op, is_read, shard, {"shard": shard}

    return _run_timed(sharded.shards, resolve, topology, cfg, bus)


def tlb_shootdown_cost(op, is_read, num_cores: int, topology: Topology) -> int:
    """Post-op cost of an unmap: IPI every other core and wait for its
    invlpg acknowledgement (the reason Figure 1c sits above Figure 1b)."""
    if is_read:
        return 0
    others = num_cores - 1
    if others <= 0:
        return topology.costs.tlb_invlpg
    return topology.costs.ipi + others * topology.costs.tlb_invlpg
