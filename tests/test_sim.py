"""Discrete-event simulator tests: kernel, locks, cache lines, stats."""

import random

import pytest

from repro.sim.kernel import (
    Acquire,
    Delay,
    Event,
    Fire,
    Release,
    SimulationError,
    Simulator,
    Wait,
)
from repro.sim.resources import CacheLine, SimLock
from repro.sim.stats import LatencyRecorder
from repro.sim.topology import CostModel, Topology


class TestSimulatorCore:
    def test_delay_advances_time(self):
        sim = Simulator()
        trace = []

        def proc():
            yield Delay(100)
            trace.append(sim.now)
            yield Delay(50)
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [100, 150]
        assert sim.completed == 1

    def test_deterministic_interleaving(self):
        sim = Simulator()
        trace = []

        def proc(tag, delay):
            yield Delay(delay)
            trace.append((sim.now, tag))

        sim.spawn(proc("a", 30))
        sim.spawn(proc("b", 10))
        sim.spawn(proc("c", 30))  # same time as a, spawned after it
        sim.run()
        assert trace == [(10, "b"), (30, "a"), (30, "c")]

    def test_ties_broken_by_process(self):
        """Two events at the same time run in the order their processes
        were spawned, not the order the events were scheduled: x is
        spawned first and wins the t=30 tie although it schedules its
        event at t=10, after y scheduled its own at t=0.  Every sim
        digest rests on this."""
        sim = Simulator()
        trace = []

        def proc(tag, *delays):
            for delay in delays:
                yield Delay(delay)
            trace.append((sim.now, tag))

        sim.spawn(proc("x", 10, 20))
        sim.spawn(proc("y", 30))
        sim.run()
        assert trace == [(30, "x"), (30, "y")]

    def test_tie_order_does_not_depend_on_history(self):
        """However each process reaches t=60 — in one step or many, early
        or late — the same-time events dispatch in pid order, so a
        process may split or merge its private steps without moving
        anyone else."""
        def run(paths):
            sim = Simulator()
            trace = []

            def proc(tag, delays):
                for delay in delays:
                    yield Delay(delay)
                trace.append((sim.now, tag))

            for tag, delays in paths:
                sim.spawn(proc(tag, delays))
            sim.run()
            return trace

        merged = run([("a", [60]), ("b", [60]), ("c", [60])])
        assert merged == [(60, "a"), (60, "b"), (60, "c")]
        assert run([("a", [10, 10, 40]), ("b", [60]),
                    ("c", [30, 30])]) == merged
        assert run([("a", [59, 1]), ("b", [1, 59]),
                    ("c", [0, 0, 60])]) == merged

    def test_shared_delay_instance(self):
        """Commands are immutable values: one `Delay` yielded by two
        processes, and twice by the same one, acts like fresh ones."""
        def run(make_delay):
            sim = Simulator()
            trace = []

            def proc(tag, repeats):
                for _ in range(repeats):
                    yield make_delay()
                    trace.append((sim.now, tag))

            sim.spawn(proc("a", 3))
            sim.spawn(proc("b", 2))
            sim.run()
            return trace, sim.now, sim.completed, sim.events

        shared = Delay(7)
        assert run(lambda: shared) == run(lambda: Delay(7))
        assert run(lambda: shared)[0] == [
            (7, "a"), (7, "b"), (14, "a"), (14, "b"), (21, "a")]

    def test_events_counts_dispatches(self):
        sim = Simulator()

        def proc():
            yield Delay(5)
            yield Delay(5)

        sim.spawn(proc())
        sim.spawn(proc())
        assert sim.events == 0
        sim.run(until=5)
        assert sim.events == 4   # two spawns, two first delays
        sim.run()
        assert sim.events == 6   # ... and the two resumes that finish
        assert sim.completed == 2

    def test_run_until(self):
        sim = Simulator()
        trace = []

        def proc():
            for _ in range(10):
                yield Delay(100)
                trace.append(sim.now)

        sim.spawn(proc())
        sim.run(until=350)
        assert trace == [100, 200, 300]

    def test_run_until_is_inclusive_and_resumable(self):
        def build():
            sim = Simulator()
            trace = []

            def proc(tag, step):
                for _ in range(4):
                    yield Delay(step)
                    trace.append((sim.now, tag))

            sim.spawn(proc("a", 100))
            sim.spawn(proc("b", 150))
            return sim, trace

        whole_sim, whole = build()
        whole_sim.run()

        sim, trace = build()
        sim.run(until=300)
        # the events at exactly t=300 ran; later ones are still queued
        # and the clock has not moved past `until`
        assert trace == [(100, "a"), (150, "b"), (200, "a"),
                         (300, "a"), (300, "b")]
        assert sim.now == 300
        assert sim.completed == 0
        sim.run(until=399)
        assert sim.now == 300
        sim.run()
        assert trace == whole
        assert (sim.now, sim.completed, sim.events) == (
            whole_sim.now, whole_sim.completed, whole_sim.events)

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def proc():
            yield Delay(-1)

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_unknown_command_rejected(self):
        sim = Simulator()

        def proc():
            yield "bogus"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_bad_command_after_delays_rejected(self):
        """The checks hold on the loop's hot path too: a process that
        has been yielding plain delays for a while still cannot yield a
        negative one, a subclass cannot smuggle one in, and a bad
        command does not stop `run()` from being called again."""
        class Sneaky(Delay):
            pass

        for bad in (Delay(-5), Sneaky(-5), None):
            sim = Simulator()
            trace = []

            def proc():
                for _ in range(3):
                    yield Delay(10)
                yield bad

            def bystander():
                yield Sneaky(100)
                trace.append(sim.now)

            sim.spawn(proc())
            sim.spawn(bystander())
            with pytest.raises(SimulationError):
                sim.run()
            assert sim.now == 30
            sim.run()
            assert trace == [100]

    def test_events(self):
        sim = Simulator()
        trace = []
        event = Event("go")

        def waiter(tag):
            value = yield Wait(event)
            trace.append((tag, value, sim.now))

        def firer():
            yield Delay(500)
            yield Fire(event, "payload")

        sim.spawn(waiter("w1"))
        sim.spawn(waiter("w2"))
        sim.spawn(firer())
        sim.run()
        assert sorted(trace) == [("w1", "payload", 500),
                                 ("w2", "payload", 500)]


    def test_event_and_lock_trace_pinned(self):
        """Exact order, values and times of a run mixing every command:
        same-time resumes go in pid order, so w1 wakes and takes the
        lock before w2 wakes, both before the firer (spawned last)
        continues, and at the hand-off the releaser w1 resumes before
        the new holder w2."""
        sim = Simulator()
        trace = []
        event = Event("go")
        lock = SimLock("l")

        def waiter(tag):
            value = yield Wait(event)
            trace.append((sim.now, tag, "woke", value))
            got = yield Acquire(lock)
            trace.append((sim.now, tag, "locked", got))
            yield Delay(40)
            yield Release(lock)
            trace.append((sim.now, tag, "released", None))

        def firer():
            yield Delay(500)
            yield Fire(event, "payload")
            trace.append((sim.now, "f", "fired", None))
            yield Fire(event, "nobody")
            trace.append((sim.now, "f", "refired", None))

        sim.spawn(waiter("w1"))
        sim.spawn(waiter("w2"))
        sim.spawn(firer())
        sim.run()
        assert trace == [
            (500, "w1", "woke", "payload"),
            (500, "w1", "locked", True),
            (500, "w2", "woke", "payload"),
            (500, "f", "fired", None),
            (500, "f", "refired", None),
            (540, "w1", "released", None),
            (540, "w2", "locked", True),
            (580, "w2", "released", None),
        ]
        assert (sim.now, sim.completed, sim.events) == (580, 3, 14)
        assert event.waiters == []


class TestSimLock:
    def test_mutual_exclusion_fifo(self):
        sim = Simulator()
        lock = SimLock("l")
        trace = []

        def proc(tag, work):
            yield Acquire(lock)
            start = sim.now
            yield Delay(work)
            trace.append((tag, start, sim.now))
            yield Release(lock)

        sim.spawn(proc("a", 100))
        sim.spawn(proc("b", 100))
        sim.spawn(proc("c", 100))
        sim.run()
        # critical sections serialize, FIFO order
        assert trace == [("a", 0, 100), ("b", 100, 200), ("c", 200, 300)]
        assert lock.acquisitions == 3
        assert lock.contended_acquisitions == 2

    def test_release_by_nonholder_rejected(self):
        sim = Simulator()
        lock = SimLock()

        def bad():
            yield Release(lock)

        sim.spawn(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestTopology:
    def test_nodes(self):
        topo = Topology(28, cores_per_node=14)
        assert topo.num_nodes == 2
        assert topo.node_of(0) == 0
        assert topo.node_of(14) == 1
        assert topo.cores_on_node(1) == list(range(14, 28))

    def test_transfer_costs_ordered(self):
        topo = Topology(28, cores_per_node=14)
        local_hit = topo.transfer_cost(3, 3)
        same_node = topo.transfer_cost(0, 3)
        cross_node = topo.transfer_cost(0, 20)
        assert local_hit < same_node < cross_node

    def test_dram_costs(self):
        topo = Topology(28)
        assert topo.dram_cost(0, 0) < topo.dram_cost(0, 1)

    def test_bad_core(self):
        topo = Topology(4)
        with pytest.raises(ValueError):
            topo.node_of(4)
        for from_core, to_core in ((4, 0), (0, 4), (-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                topo.transfer_cost(from_core, to_core)

    def test_table_is_not_part_of_equality_or_repr(self):
        topo = Topology(28)
        assert topo == Topology(28) and hash(topo) == hash(Topology(28))
        assert ", transfer=" not in repr(topo)


class TestCacheLine:
    def test_repeat_access_is_cheap(self):
        topo = Topology(28)
        line = CacheLine(topo)
        first = line.write(0)
        second = line.write(0)
        assert second < first
        assert second == topo.costs.l1_hit

    def test_bouncing_costs_transfer(self):
        topo = Topology(28)
        line = CacheLine(topo)
        line.write(0)
        cost_same_node = line.write(1)
        line.write(0)
        cost_cross_node = line.write(20)
        assert cost_cross_node > cost_same_node
        assert line.transfers >= 3

    def test_read_sharing(self):
        topo = Topology(28)
        line = CacheLine(topo)
        line.write(0)
        assert line.read(5) > topo.costs.l1_hit   # transfer in
        assert line.read(5) == topo.costs.l1_hit  # now shared
        # writer must invalidate sharers: pays again
        assert line.write(0) > topo.costs.l1_hit

    def test_atomic_rmw_overhead(self):
        topo = Topology(4, cores_per_node=4)
        line = CacheLine(topo)
        plain = CacheLine(topo)
        assert line.atomic_rmw(0) == plain.write(0) + topo.costs.atomic_op

    @pytest.mark.parametrize("access", ["read", "write", "atomic_rmw"])
    @pytest.mark.parametrize("owned", [False, True], ids=["fresh", "owned"])
    @pytest.mark.parametrize("core", [4, -1])
    def test_core_outside_the_topology_is_rejected(self, access, owned,
                                                   core):
        """Every access that is not a hit checks its core, on a fresh
        line (nothing to transfer from) as on an owned one, and leaves
        the line as it was."""
        line = CacheLine(Topology(4, cores_per_node=2))
        if owned:
            line.write(0)
        before = (line.owner, set(line.sharers), line.transfers)
        with pytest.raises(ValueError, match=f"core {core} out of range"):
            getattr(line, access)(core)
        assert (line.owner, line.sharers, line.transfers) == before


def reference_transfer_cost(topo, from_core, to_core):
    """`Topology.transfer_cost` as written before the pricing table."""
    for core in (to_core, from_core):
        if not 0 <= core < topo.num_cores:
            raise ValueError(f"core {core} out of range")
    if from_core == to_core:
        return topo.costs.l1_hit
    if from_core // topo.cores_per_node == to_core // topo.cores_per_node:
        return topo.costs.local_transfer
    return topo.costs.remote_transfer


class ReferenceLine:
    """`CacheLine` as written before the pricing table: every transfer
    priced through `reference_transfer_cost`, the sharers other than
    the accessing core built as a set."""

    def __init__(self, topo):
        self.topo = topo
        self.owner = None
        self.sharers = set()
        self.transfers = 0

    def read(self, core):
        if core in self.sharers or core == self.owner:
            return self.topo.costs.l1_hit
        self.transfers += 1
        source = self.owner if self.owner is not None else core
        cost = (reference_transfer_cost(self.topo, source, core)
                if source != core else self.topo.costs.local_dram)
        self.sharers.add(core)
        return cost

    def write(self, core):
        if self.owner == core and not (self.sharers - {core}):
            return self.topo.costs.l1_hit
        self.transfers += 1
        if self.owner is not None and self.owner != core:
            cost = reference_transfer_cost(self.topo, self.owner, core)
        elif self.sharers - {core}:
            cost = max(reference_transfer_cost(self.topo, s, core)
                       for s in self.sharers if s != core)
        else:
            cost = self.topo.costs.local_dram
        self.owner = core
        self.sharers = {core}
        return cost

    def atomic_rmw(self, core):
        return self.write(core) + self.topo.costs.atomic_op


TOPOLOGIES = [(cores, per_node) for cores in (1, 2, 14, 16, 28)
              for per_node in (1, 4, 14)]


class TestPricingOracle:
    """The pricing table against the branchy model it replaced."""

    @pytest.mark.parametrize("cores,per_node", TOPOLOGIES)
    def test_random_accesses_match_the_reference(self, cores, per_node):
        topo = Topology(cores, cores_per_node=per_node)
        rng = random.Random(f"pricing/{cores}/{per_node}")
        pairs = [(CacheLine(topo), ReferenceLine(topo)) for _ in range(3)]
        # half the accesses come from three hot cores, so a run has hits
        # and shared lines as well as transfers
        hot = [rng.randrange(cores) for _ in range(3)]
        for _ in range(600):
            line, reference = rng.choice(pairs)
            access = rng.choice(("read", "read", "write", "atomic_rmw"))
            core = (rng.choice(hot) if rng.random() < 0.5
                    else rng.randrange(cores))
            assert (getattr(line, access)(core)
                    == getattr(reference, access)(core))
            assert (line.owner, line.sharers, line.transfers) == (
                reference.owner, reference.sharers, reference.transfers)

    @pytest.mark.parametrize("cores,per_node", TOPOLOGIES)
    def test_transfer_table_is_transfer_cost(self, cores, per_node):
        topo = Topology(cores, cores_per_node=per_node)
        for to_core in range(cores):
            for from_core in range(cores):
                assert (topo.transfer[to_core][from_core]
                        == topo.transfer_cost(from_core, to_core)
                        == reference_transfer_cost(topo, from_core,
                                                   to_core))


class TestLatencyRecorder:
    def test_stats(self):
        rec = LatencyRecorder()
        for v in (1000, 2000, 3000, 4000, 100000):
            rec.record(v)
        assert len(rec) == 5
        assert rec.mean_us == pytest.approx(22.0)
        assert rec.p50_us == 3.0
        assert rec.max_us == 100.0
        assert rec.percentile_ns(0) == 1000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-5)

    def test_percentile_range(self):
        rec = LatencyRecorder()
        rec.record(10)
        with pytest.raises(ValueError):
            rec.percentile_ns(101)

    def test_merge(self):
        a = LatencyRecorder()
        b = LatencyRecorder()
        a.record(1)
        b.record(3)
        a.merge(b)
        assert len(a) == 2


class TestTimedNr:
    def test_latency_grows_with_cores(self):
        from repro.nr.datastructures import VSpaceModel
        from repro.nr.timed import TimedNrConfig, run_timed_workload

        def workload(core, i):
            return (("map", (core << 24) | (i << 12), i), False)

        means = []
        for cores in (1, 8, 16):
            cfg = TimedNrConfig(num_cores=cores, ops_per_core=12)
            result = run_timed_workload(VSpaceModel, workload, cfg)
            assert len(result.latency) == cores * 12
            means.append(result.latency.mean_us)
        assert means[0] < means[1] < means[2]

    def test_batching_under_contention(self):
        from repro.nr.datastructures import Counter
        from repro.nr.timed import TimedNrConfig, run_timed_workload

        cfg = TimedNrConfig(num_cores=8, ops_per_core=8)
        result = run_timed_workload(
            Counter, lambda c, i: (("add", 1), False), cfg
        )
        assert result.max_batch > 1  # flat combining engaged

    def test_shootdown_cost_raises_unmap_latency(self):
        from repro.nr.datastructures import VSpaceModel
        from repro.nr.timed import (
            TimedNrConfig,
            run_timed_workload,
            tlb_shootdown_cost,
        )

        def map_workload(core, i):
            return (("map", (core << 24) | (i << 12), i), False)

        cores = 8
        plain = run_timed_workload(
            VSpaceModel, map_workload,
            TimedNrConfig(num_cores=cores, ops_per_core=10),
        )
        with_shootdown = run_timed_workload(
            VSpaceModel, map_workload,
            TimedNrConfig(num_cores=cores, ops_per_core=10,
                          post_op_cost_fn=tlb_shootdown_cost),
        )
        assert with_shootdown.latency.mean_us > plain.latency.mean_us

    def test_reads_cheaper_than_writes(self):
        from repro.nr.datastructures import Counter
        from repro.nr.timed import TimedNrConfig, run_timed_workload

        writes = run_timed_workload(
            Counter, lambda c, i: (("add", 1), False),
            TimedNrConfig(num_cores=8, ops_per_core=10),
        )
        reads = run_timed_workload(
            Counter, lambda c, i: ("get", True),
            TimedNrConfig(num_cores=8, ops_per_core=10),
        )
        assert reads.latency.mean_us < writes.latency.mean_us
