"""The six workloads: inputs from the seed, one measured round, checks.

Every workload is made of **rounds**.  A round generates its inputs from
a seed (``generate``) and builds the system under test from scratch
(``setup``), runs that fixed amount of work through public APIs only
(``run``, the timed region), and
verifies the outputs (``verify``, outside the timed and traced region).
``run.py`` repeats the round of one seed until ``--seconds`` have passed
and reports the best one; the same seed always gives the same inputs and
the same ``sim_digest``.

The benchmark owns its load: arrivals, keys, op mix and syscall programs
are generated here from the seed.  Sizes, rates and key counts are
constants below, each with its reason — not knobs.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from time import perf_counter

from repro import obs
from repro.cluster.client import AUDIT_CLIENT
from repro.cluster.deploy import Deployment
from repro.cluster.node import TICK_NS
from repro.core.refine.proof import build_proof
from repro.nr.datastructures import VSpaceModel
from repro.nr.timed import TimedNrConfig, run_timed_workload, \
    tlb_shootdown_cost
from repro.nros.fs.fd import O_CREAT, O_RDWR
from repro.nros.kernel import Kernel
from repro.nros.syscall.abi import sys as syscall
from repro.obs.registry import Registry
from repro.prover import ProofCache, ProverConfig, prove_all
from repro.ulib import Ring


@dataclass
class Round:
    """What one timed round measured and produced."""

    ops: int                      # operations attempted in the timed region
    failed: int                   # of those, how many failed
    wall_s: float                 # host seconds of the timed region
    unit_s: list                  # host seconds per unit of work (see `unit`)
    sim: dict                     # simulated-clock outputs (0 where n/a)
    digest: str                   # BLAKE2b over the deterministic outputs
    counters: dict                # per-layer counters, by metric name
    problems: list = field(default_factory=list)


def no_sim() -> dict:
    return {"sim_ops_per_s": 0, "sim_p50_ns": 0, "sim_p99_ns": 0,
            "sim_samples": 0}


def digest_of(payload) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blake2b(data.encode("utf-8"), digest_size=16).hexdigest()


def _obs_total(name: str) -> tuple[int, float]:
    """(count, sum) over every label set of a process-wide histogram."""
    count, total = 0, 0.0
    for hist in obs.registry().histograms():
        if hist.name == name:
            count += hist.count
            total += hist.total
    return count, total


def _block_counters(kernels) -> dict:
    return {
        "nros.drivers.block.io_retries":
            sum(k.block_driver.io_retries for k in kernels),
        "nros.drivers.block.queue_full":
            sum(k.block_driver.queue_full_rejections for k in kernels),
    }


def _net_counters(kernels, links=()) -> dict:
    return {
        "nros.net.frames":
            sum(k.net.stats_tx + k.net.stats_rx for k in kernels),
        "nros.net.link.frames": sum(link.delivered for link in links),
        "hw.devices.nic.frames":
            sum(k.nic.stats.tx_frames + k.nic.stats.rx_frames
                for k in kernels),
    }


def _delta(after: dict, before: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


# ---------------------------------------------------------------------------
# kv_put_heavy / kv_get_heavy: the replicated KV service, open loop
# ---------------------------------------------------------------------------

#: Virtual client population ids are drawn from (same as the repo's own
#: harness: every op gets a read-your-writes session check).
KV_CLIENTS = 1_000_000
#: Bytes per put value (a small record; the WAL frame dominates it).
KV_VALUE_BYTES = 32
#: Ticks a round may spend draining after the last arrival before the
#: leftover requests count as undrained failures.
KV_DRAIN_TICKS = 120_000
#: Audit reads issued per batch while re-reading every acked write.
KV_AUDIT_BATCH = 16


@dataclass(frozen=True)
class KvSpec:
    name: str
    why: str
    ops: int             # arrivals per round
    rate: float          # open-loop Poisson arrival rate, ops per sim second
    put_fraction: float
    num_keys: int
    zipf_theta: float


KV_PUT_HEAVY = KvSpec(
    name="kv_put_heavy",
    why="90% puts: every op crosses WAL, fs, block driver and disk twice "
        "(primary and replica) and triggers compaction; the storage path",
    # 4000 arrivals span 1000 ticks, so a round's p99 tick has ten
    # samples beyond it, every node rotates its WAL generation several
    # times, and a round stays near 2 s of host time here
    ops=4_000,
    # about 70% of the modelled put knee (~5.8M sim-ops/s for 3 nodes,
    # rf=2): queues form but drain, so no request times out
    rate=4_000_000.0,
    put_fraction=0.90,
    # a working set larger than one WAL generation, so snapshots grow
    num_keys=4096,
    # mild skew: most puts create or touch distinct keys
    zipf_theta=0.5,
)

KV_GET_HEAVY = KvSpec(
    name="kv_get_heavy",
    why="95% gets: the same node and client code crosses gateway, UDP/IP/"
        "eth, links, NICs and the NR read path and almost never the WAL",
    # reads are ~6x cheaper than puts in host time; 12000 keep a round
    # near 2 s
    ops=12_000,
    # about 75% of the modelled get knee (~11M sim-ops/s)
    rate=8_000_000.0,
    put_fraction=0.05,
    # hot small working set: reads hit keys that exist
    num_keys=512,
    zipf_theta=0.99,
)


class KvWorkload:
    """3 nodes, rf=2, one gateway; Poisson arrivals in continuous
    simulated time; each op is issued at the first tick at or after its
    due time and the generator never looks at completions."""

    unit = "Deployment.step tick"

    def __init__(self, spec: KvSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.why = spec.why

    def generate(self, seed: int) -> dict:
        spec = self.spec
        rng = random.Random(f"e2e/{spec.name}/{seed}")
        cumulative, total = [], 0.0
        for rank in range(spec.num_keys):
            total += 1.0 / (rank + 1) ** spec.zipf_theta
            cumulative.append(total)
        arrivals = []
        due_ns = 0.0
        for index in range(spec.ops):
            due_ns += rng.expovariate(spec.rate) * 1e9
            key = f"k{bisect.bisect_left(cumulative, rng.random() * total)}"
            client = rng.randrange(KV_CLIENTS)
            if rng.random() < spec.put_fraction:
                value = f"v{index}".ljust(KV_VALUE_BYTES, ".")
                arrivals.append((due_ns, "put", key, value, client))
            else:
                arrivals.append((due_ns, "get", key, None, client))
        return {"seed": seed, "arrivals": arrivals,
                "puts": sum(1 for a in arrivals if a[1] == "put")}

    def setup(self, inputs: dict) -> Deployment:
        return Deployment(3, rf=2, registry=Registry(), seed=inputs["seed"])

    def run(self, dep: Deployment, inputs: dict) -> Round:
        arrivals = inputs["arrivals"]
        gateway = dep.gateway
        nodes = [dep.nodes[name] for name in sorted(dep.nodes)]
        kernels = list(dep.cluster.kernels)
        served = [[dep.registry.counter("cluster.served", node=node.node_id,
                                        op=kind)
                   for kind in ("put", "get", "del", "repl", "sync")]
                  for node in nodes]
        served_before = [0] * len(nodes)
        idle_node_ticks = 0
        block_before = _block_counters(kernels)
        net_before = _net_counters(kernels, dep.cluster.links)
        sectors_before = (sum(k.disk.reads for k in kernels),
                          sum(k.disk.writes for k in kernels))
        tick_s: list[float] = []
        late_ns_max = 0.0
        issued = 0
        total = len(arrivals)
        deadline = None

        started = perf_counter()
        while True:
            now_ns = dep.now * TICK_NS
            while issued < total and arrivals[issued][0] <= now_ns:
                due_ns, op, key, value, client = arrivals[issued]
                gateway.issue(op, key, value, client, dep.now)
                late_ns_max = max(late_ns_max, now_ns - due_ns)
                issued += 1
            t0 = perf_counter()
            dep.step()
            tick_s.append(perf_counter() - t0)
            for index, counters in enumerate(served):
                now_served = sum(c.value for c in counters)
                if now_served == served_before[index]:
                    idle_node_ticks += 1
                served_before[index] = now_served
            if issued >= total:
                if deadline is None:
                    deadline = dep.now + KV_DRAIN_TICKS
                if not gateway.outstanding or dep.now >= deadline:
                    break
        wall_s = perf_counter() - started

        ticks = dep.now
        sim_ns = ticks * TICK_NS
        acked = gateway.acked.value
        undrained = len(gateway.outstanding)
        failed = (gateway.failed.value + undrained
                  + len(gateway.ryw_violations))
        major = "put" if self.spec.put_fraction >= 0.5 else "get"
        latency = gateway.latency[major]
        counts = {op: gateway.latency[op].count for op in ("put", "get")}
        problems = []
        if issued != total or acked != total:
            problems.append(f"acked {acked} of {issued} issued "
                            f"({total} generated)")
        if counts["put"] != inputs["puts"] \
                or counts["get"] != total - inputs["puts"]:
            problems.append(f"op mix {counts} differs from the generated "
                            f"{inputs['puts']} puts / "
                            f"{total - inputs['puts']} gets")
        if failed:
            problems.append(
                f"{gateway.failed.value} failed ({gateway.giveups.value} "
                f"gave up), {undrained} undrained, "
                f"{len(gateway.ryw_violations)} read-your-writes violations")

        puts = max(counts["put"], 1)
        fs_ops, fs_seconds = _obs_total("fs.op_seconds")
        replicas = [r for node in nodes for r in node.store.replicas]
        counters = {
            "cluster.client.retries": gateway.retries.value,
            "cluster.client.redirects": gateway.redirects.value,
            "cluster.client.giveups": gateway.giveups.value,
            "cluster.client.gen_late_ticks_max": late_ns_max / TICK_NS,
            "cluster.node.idle_tick_frac":
                idle_node_ticks / (ticks * len(nodes)),
            "cluster.wal.appends": sum(n.wal.total_appends for n in nodes),
            "cluster.wal.compactions":
                sum(n.wal.compactions for n in nodes),
            "nr.core.log_appends":
                sum(n.store.log.appends for n in nodes),
            "nr.core.batches": sum(r.batches for r in replicas),
            "nr.core.max_batch": max(r.max_batch for r in replicas),
            "nros.fs.ops": fs_ops,
            "nros.fs.op_seconds": fs_seconds,
            "hw.devices.disk.sectors_read_per_put":
                (sum(k.disk.reads for k in kernels) - sectors_before[0])
                / puts,
            "hw.devices.disk.sectors_written_per_put":
                (sum(k.disk.writes for k in kernels) - sectors_before[1])
                / puts,
            **_delta(_block_counters(kernels), block_before),
            **_delta(_net_counters(kernels, dep.cluster.links), net_before),
        }
        sim = {
            "sim_ops_per_s": acked / (sim_ns / 1e9),
            "sim_p50_ns": latency.percentile(50),
            "sim_p99_ns": latency.percentile(99),
            "sim_samples": latency.count,
        }
        digest = digest_of({
            "ticks": ticks, "acked": acked, "failed": failed,
            "latency": {op: gateway.latency[op].samples
                        for op in ("put", "get")},
            "wal": [(n.wal.total_appends, n.wal.compactions, n.wal.gen)
                    for n in nodes],
            "retries": gateway.retries.value,
            "redirects": gateway.redirects.value,
        })
        return Round(ops=total, failed=failed, wall_s=wall_s, unit_s=tick_s,
                     sim=sim, digest=digest, counters=counters,
                     problems=problems)

    def verify(self, dep: Deployment, inputs: dict, result: Round) -> None:
        """The durability audit: re-read every acknowledged write."""
        gateway = dep.gateway
        started = perf_counter()
        keys = gateway.audit_keys()
        for offset in range(0, len(keys), KV_AUDIT_BATCH):
            for key in keys[offset:offset + KV_AUDIT_BATCH]:
                gateway.issue("get", key, None, AUDIT_CLIENT, dep.now)
            for _ in range(KV_DRAIN_TICKS):
                dep.step()
                if not gateway.outstanding:
                    break
        losses = gateway.audit_losses()
        result.counters["bench.audit_s"] = perf_counter() - started
        if losses:
            result.failed += len(losses)
            result.problems.append(
                f"{len(losses)} acknowledged writes lost, e.g. {losses[0]}")
        if inputs["puts"] and not keys:
            result.problems.append("no acknowledged write to audit")


# ---------------------------------------------------------------------------
# sys_single / sys_ring: six processes on one kernel, trap vs ring
# ---------------------------------------------------------------------------

#: Cores of the kernel under test (one NUMA node; 6 threads contend).
SYS_CORES = 4
#: The kernel's own address: `sendto` loops back and is dropped at the
#: unbound port, so the whole UDP/IP/eth encode+decode path runs.
SYS_IP = 0x0A00_0001
SYS_DEAD_PORT = 9
#: Payload of one fs write / one datagram; fits an SQE blob.
SYS_PAYLOAD_BYTES = 48
#: fs programs rewind every this many writes so the file stays bounded.
SYS_SEEK_EVERY = 64
#: SQEs per `ring_enter`, and pages per batched map/unmap.
SYS_BATCH = 16
#: Per-process iterations.  One pt iteration is a map+unmap pair.  Both
#: counts are multiples of SYS_SEEK_EVERY and SYS_BATCH and keep a round
#: near 2 s of host time here (the ring path is about twice as fast).
SYS_SINGLE_ITERS = 3_840
SYS_RING_ITERS = 7_680
#: Programs per round: two of each kind.
SYS_KINDS = ("fs", "fs", "net", "net", "pt", "pt")


# Every program factory takes (index, iters, payload, unit_s, errors):
# `unit_s` collects one host-clock sample per op, `errors` the count of
# error CQEs per ring batch (a failing trap kills its process instead).


def _fs_single(index, iters, payload, unit_s, errors):
    def prog():
        fd = yield syscall("open", f"/e2e{index}.dat", O_CREAT | O_RDWR)
        for i in range(iters):
            if i and i % SYS_SEEK_EVERY == 0:
                yield syscall("seek", fd, 0)
            t0 = perf_counter()
            yield syscall("write", fd, payload)
            unit_s.append(perf_counter() - t0)
        yield syscall("close", fd)
    return prog


def _net_single(index, iters, payload, unit_s, errors):
    def prog():
        sid = yield syscall("socket")
        yield syscall("bind", sid, 1000 + index)
        for _ in range(iters):
            t0 = perf_counter()
            yield syscall("sendto", sid, SYS_IP, SYS_DEAD_PORT, payload)
            unit_s.append(perf_counter() - t0)
    return prog


def _pt_single(index, iters, payload, unit_s, errors):
    def prog():
        for _ in range(iters):
            t0 = perf_counter()
            base = yield syscall("vm_map", 1)
            yield syscall("vm_unmap", base)
            unit_s.append(perf_counter() - t0)
    return prog


def _ring_batches(ring, iters, stage, unit_s, errors):
    """Submit `iters` staged ops, SYS_BATCH per `ring_enter`."""
    for _ in range(iters // SYS_BATCH):
        for _ in range(SYS_BATCH):
            stage(ring)
        t0 = perf_counter()
        completions = yield from ring.submit()
        elapsed = perf_counter() - t0
        errors.append(sum(1 for _, status, _ in completions if status))
        unit_s.extend([elapsed / SYS_BATCH] * SYS_BATCH)


def _fs_ring(index, iters, payload, unit_s, errors):
    def prog():
        fd = yield syscall("open", f"/e2e{index}.dat", O_CREAT | O_RDWR)
        ring = Ring(sq_depth=SYS_BATCH)
        yield from ring.setup()
        for _ in range(iters // SYS_SEEK_EVERY):
            yield syscall("seek", fd, 0)
            yield from _ring_batches(
                ring, SYS_SEEK_EVERY,
                lambda r: r.prepare("write", (fd, payload)), unit_s, errors)
        yield syscall("close", fd)
    return prog


def _net_ring(index, iters, payload, unit_s, errors):
    def prog():
        sid = yield syscall("socket")
        yield syscall("bind", sid, 1000 + index)
        ring = Ring(sq_depth=SYS_BATCH)
        yield from ring.setup()
        yield from _ring_batches(
            ring, iters,
            lambda r: r.prepare("sendto", (sid, SYS_IP, SYS_DEAD_PORT,
                                           payload)), unit_s, errors)
    return prog


def _pt_ring(index, iters, payload, unit_s, errors):
    def prog():
        ring = Ring(sq_depth=4)
        yield from ring.setup()
        for _ in range(iters // SYS_BATCH):
            t0 = perf_counter()
            ring.prepare("vm_map_batch", (SYS_BATCH,))
            mapped = yield from ring.submit()
            # munmap-style range form: a few bytes in the SQE whatever
            # the page count
            ring.prepare("vm_unmap_batch", (mapped[0][2], SYS_BATCH))
            unmapped = yield from ring.submit()
            elapsed = perf_counter() - t0
            errors.append(sum(1 for _, status, _ in mapped + unmapped
                              if status))
            unit_s.extend([elapsed / SYS_BATCH] * SYS_BATCH)
    return prog


class SysWorkload:
    """Two fs, two net and two pt processes on one 4-core kernel."""

    def __init__(self, name: str, why: str, ring: bool, iters: int) -> None:
        self.name = name
        self.why = why
        self.ring = ring
        self.iters = iters
        self.unit = ("ring batch / 16" if ring else "trap")

    def generate(self, seed: int) -> dict:
        rng = random.Random(f"e2e/{self.name}/{seed}")
        return {"seed": seed, "payload": rng.randbytes(SYS_PAYLOAD_BYTES)}

    def setup(self, inputs: dict) -> dict:
        kernel = Kernel(num_cores=SYS_CORES, ip=SYS_IP)
        state = {"kernel": kernel, "unit_s": [], "errors": []}
        factories = ({"fs": _fs_ring, "net": _net_ring, "pt": _pt_ring}
                     if self.ring else
                     {"fs": _fs_single, "net": _net_single,
                      "pt": _pt_single})
        for index, kind in enumerate(SYS_KINDS):
            name = f"{kind}{index}"
            kernel.register_program(name, factories[kind](
                index, self.iters, inputs["payload"], state["unit_s"],
                state["errors"]))
            kernel.spawn(name)
        return state

    def expected(self) -> dict:
        """Closed-form counts for SYS_KINDS at `self.iters` iterations."""
        n = self.iters
        fs, net, pt = (SYS_KINDS.count(k) for k in ("fs", "net", "pt"))
        if not self.ring:
            return {
                # open+close, a seek before every 64-write group but the
                # first; socket+bind; a map and an unmap trap per pair
                "syscalls": (fs * (2 + n + n // SYS_SEEK_EVERY - 1)
                             + net * (2 + n) + pt * 2 * n),
                "ring_batches": 0, "ring_sqes": 0,
                "shootdown_rounds": pt * n, "shootdown_pages": pt * n,
            }
        batches = n // SYS_BATCH
        return {
            # each ring costs a ring_setup plus one ring_enter per batch
            # (pt: one for the map SQE, one for the unmap SQE)
            "syscalls": (fs * (3 + n // SYS_SEEK_EVERY + batches)
                         + net * (3 + batches) + pt * (1 + 2 * batches)),
            "ring_batches": (fs + net) * batches + pt * 2 * batches,
            "ring_sqes": (fs + net) * n + pt * 2 * batches,
            "shootdown_rounds": pt * batches, "shootdown_pages": pt * n,
        }

    def run(self, state: dict, inputs: dict) -> Round:
        kernel = state["kernel"]
        block_before = _block_counters([kernel])
        net_before = _net_counters([kernel])
        started = perf_counter()
        kernel.run(max_ticks=5_000_000)
        wall_s = perf_counter() - started

        ops = len(SYS_KINDS) * self.iters
        stats = kernel.stats
        processes = [kernel.processes[pid] for pid in sorted(kernel.processes)]
        exit_codes = [p.exit_code for p in processes]
        error_cqes = sum(state["errors"])
        rounds = sum(p.vspace.shootdowns for p in processes)
        pages = obs.counter("vspace.shootdown_pages").value
        seen = {"syscalls": stats.syscalls,
                "ring_batches": stats.ring_batches,
                "ring_sqes": stats.ring_sqes,
                "shootdown_rounds": rounds, "shootdown_pages": pages}
        problems = []
        if any(code != 0 for code in exit_codes):
            problems.append(f"process exit codes {exit_codes}")
        if error_cqes:
            problems.append(f"{error_cqes} error CQEs")
        if len(state["unit_s"]) != ops:
            problems.append(f"{len(state['unit_s'])} ops completed, "
                            f"expected {ops}")
        if seen != self.expected():
            problems.append(f"counts {seen} differ from the closed form "
                            f"{self.expected()}")
        failed = error_cqes + sum(self.iters for code in exit_codes
                                  if code != 0)

        sched = kernel.scheduler.stats()
        fs_ops, fs_seconds = _obs_total("fs.op_seconds")
        drains, drain_seconds = _obs_total("ring.drain_seconds")
        counters = {
            "nros.kernel.syscalls": stats.syscalls,
            "nros.kernel.marshalled_bytes_per_op":
                stats.marshalled_bytes / ops,
            "nros.sched.thread_switches": stats.thread_switches,
            "nros.sched.steals": sched["steals"],
            "nros.sched.migrations": sched["migrations"],
            "nros.syscall.ring.ring_batches": stats.ring_batches,
            "nros.syscall.ring.ring_sqes": stats.ring_sqes,
            "nros.syscall.ring.sqes_per_batch":
                stats.ring_sqes / max(stats.ring_batches, 1),
            "nros.syscall.ring.drain_s": drain_seconds,
            "nros.vspace.shootdown_rounds": rounds,
            "nros.vspace.shootdown_pages": pages,
            "nros.vspace.pages_per_round": pages / max(rounds, 1),
            "nros.fs.ops": fs_ops,
            "nros.fs.op_seconds": fs_seconds,
            **_delta(_block_counters([kernel]), block_before),
            **_delta(_net_counters([kernel]), net_before),
        }
        if drains != stats.ring_batches:
            problems.append(f"{drains} ring.drain spans for "
                            f"{stats.ring_batches} batches")
        digest = digest_of({
            "stats": [stats.syscalls, stats.marshalled_bytes,
                      stats.thread_switches, stats.page_faults,
                      stats.ring_batches, stats.ring_sqes],
            "sched": sched, "exit": exit_codes, "rounds": rounds,
            "pages": pages, "timer": kernel.timer.ticks,
            "disk": [kernel.disk.reads, kernel.disk.writes],
        })
        return Round(ops=ops, failed=failed, wall_s=wall_s,
                     unit_s=state["unit_s"], sim=no_sim(), digest=digest,
                     counters=counters, problems=problems)

    def verify(self, state: dict, inputs: dict, result: Round) -> None:
        fs = state["kernel"].fs
        for index, kind in enumerate(SYS_KINDS):
            if kind != "fs":
                continue
            size = fs.stat(f"/e2e{index}.dat").size
            if size != SYS_SEEK_EVERY * SYS_PAYLOAD_BYTES:
                result.problems.append(
                    f"/e2e{index}.dat is {size} bytes, expected "
                    f"{SYS_SEEK_EVERY * SYS_PAYLOAD_BYTES}")


# ---------------------------------------------------------------------------
# nr_vspace_28c: the Figure 1b/1c shape, bound by the simulator loop
# ---------------------------------------------------------------------------

#: The paper's largest machine: 28 cores, two NUMA nodes of 14.
NR_CORES = 28
#: Ops per core per round (a multiple of 3: map, resolve, unmap).  84
#: keep a round near 2 s of host time here.
NR_OPS_PER_CORE = 84
#: Replica cost of one mutating / read-only op (the fig1b/1c baseline).
NR_APPLY_NS = 2000
NR_QUERY_NS = 400


class _CheckedVSpace(VSpaceModel):
    """The replicated DS, checking each result against what a sequential
    run of the same per-core programs must return (cores use disjoint
    pages, so every map succeeds and every resolve/unmap finds the frame
    its own core mapped)."""

    expected_frame: dict = {}
    mismatches: list = []

    def apply(self, op):
        result = super().apply(op)
        want = True if op[0] == "map" else self.expected_frame[op[1]]
        if result != want:
            self.mismatches.append((op, result, want))
        return result

    def query(self, op):
        result = super().query(op)
        if result != self.expected_frame[op[1]]:
            self.mismatches.append((op, result, self.expected_frame[op[1]]))
        return result


def _unmap_post_cost(op, is_read, num_cores, topology):
    if op[0] != "unmap":
        return 0
    return tlb_shootdown_cost(op, is_read, num_cores, topology)


class NrWorkload:
    """`run_timed_workload(VSpaceModel)` at 28 cores; every core cycles
    map -> resolve -> unmap over its own seed-chosen pages."""

    name = "nr_vspace_28c"
    why = ("the only workload bound by the sim kernel's event loop, the "
           "cache-line model and the NR step generators; the cluster and "
           "syscall workloads never enter repro.sim")
    unit = "host time between simulated op starts"

    def __init__(self, ops_per_core: int = NR_OPS_PER_CORE) -> None:
        self.ops_per_core = ops_per_core

    def generate(self, seed: int) -> dict:
        rng = random.Random(f"e2e/{self.name}/{seed}")
        programs, frames = [], {}
        for core in range(NR_CORES):
            pages = rng.sample(range(1, 1 << 16), self.ops_per_core // 3)
            program = []
            for page in pages:
                vaddr = (core << 28) | (page << 12)
                frames[vaddr] = rng.randrange(1, 1 << 20)
                program += [(("map", vaddr, frames[vaddr]), False),
                            (("resolve", vaddr), True),
                            (("unmap", vaddr), False)]
            programs.append(program)
        return {"seed": seed, "programs": programs, "frames": frames}

    def setup(self, inputs: dict) -> dict:
        checked = type("CheckedVSpace", (_CheckedVSpace,),
                       {"expected_frame": inputs["frames"],
                        "mismatches": []})
        cfg = TimedNrConfig(num_cores=NR_CORES,
                            ops_per_core=self.ops_per_core,
                            apply_cost_ns=NR_APPLY_NS,
                            query_cost_ns=NR_QUERY_NS,
                            post_op_cost_fn=_unmap_post_cost)
        return {"ds": checked, "cfg": cfg}

    def run(self, state: dict, inputs: dict) -> Round:
        programs = inputs["programs"]
        starts: list[float] = []

        def op_fn(core, i):
            starts.append(perf_counter())
            return programs[core][i]

        started = perf_counter()
        result = run_timed_workload(state["ds"], op_fn, state["cfg"])
        wall_s = perf_counter() - started

        ops = NR_CORES * self.ops_per_core
        latency = result.latency
        mismatches = state["ds"].mismatches
        kinds = {kind: len(result.kind(kind))
                 for kind in ("map", "resolve", "unmap")}
        problems = []
        if len(latency) != ops or any(n != ops // 3 for n in kinds.values()):
            problems.append(f"recorded {len(latency)} ops {kinds}, "
                            f"expected {ops}")
        if mismatches:
            problems.append(f"{len(mismatches)} results differ from the "
                            f"sequential model, e.g. {mismatches[0]}")
        counters = {
            "nr.core.log_appends": result.log_appends,
            "nr.core.batches": result.batches,
            "nr.core.max_batch": result.max_batch,
            "sim.sim_ns": result.sim_ns,
            "sim.host_us_per_sim_op": wall_s / ops * 1e6,
        }
        sim = {
            "sim_ops_per_s": result.throughput_ops_per_ms * 1000,
            "sim_p50_ns": latency.percentile(50),
            "sim_p99_ns": latency.percentile(99),
            "sim_samples": len(latency),
        }
        digest = digest_of({
            "sim_ns": result.sim_ns, "latency": latency.samples,
            "kinds": {kind: result.kind(kind).samples for kind in kinds},
            "batches": [result.batches, result.max_batch,
                        result.log_appends],
        })
        unit_s = [b - a for a, b in zip(starts, starts[1:])]
        return Round(ops=ops, failed=len(mismatches), wall_s=wall_s,
                     unit_s=unit_s, sim=sim, digest=digest,
                     counters=counters, problems=problems)

    def verify(self, state: dict, inputs: dict, result: Round) -> None:
        pass  # every result was checked as it was produced


# ---------------------------------------------------------------------------
# prove_cold: the proof-engineering loop
# ---------------------------------------------------------------------------

#: The `--quick` population of `python -m repro prove --layers all`.
PROVE_LAYERS = ("lemmas", "structural", "nr", "contract", "sched", "rg")
PROVE_SCENARIO_DEPTH = 2
PROVE_SCENARIO_CAP = 12
#: Left out of that population: their verdict depends on where the
#: checkout lives, not on the program (`analysis.imports.discover_sources`
#: skips every file once any directory *above* the repo starts with a
#: dot, so both fail there), and a workload has no failing operation.
PROVE_PATH_DEPENDENT = ("rg-static-interference-free", "rg-lockorder-clean")
PROVE_VCS = 270 - len(PROVE_PATH_DEPENDENT)
#: verif categories reported on their own; the rest are summed as other.
PROVE_CATEGORIES = ("invariants", "scheduler", "simulation", "refinement",
                    "rg")


class ProveWorkload:
    """All proof layers, discharged serially into an empty cache; the
    output check then discharges a second engine against the now-warm
    cache.  The population does not depend on the seed: the inputs of a
    proof run are the specs."""

    name = "prove_cold"
    why = ("the proof loop: state exploration in verif and core.refine "
           "dominates, SMT is a sliver; bypasses every runtime layer")
    unit = "verification condition"

    def __init__(self, scratch_dir: str, layers=PROVE_LAYERS,
                 expected_vcs: int = PROVE_VCS) -> None:
        self.scratch_dir = scratch_dir
        self.layers = layers
        self.expected_vcs = expected_vcs

    def generate(self, seed: int) -> dict:
        return {"seed": seed}

    def _engine(self):
        engine = build_proof(scenario_depth=PROVE_SCENARIO_DEPTH,
                             scenario_cap=PROVE_SCENARIO_CAP,
                             **{f"include_{layer}": layer in self.layers
                                for layer in PROVE_LAYERS})
        for group in engine.groups:
            group.vcs = [vc for vc in group.vcs
                         if vc.name not in PROVE_PATH_DEPENDENT]
        return engine

    def setup(self, inputs: dict) -> dict:
        return {"engine": self._engine()}

    def _prove(self, engine, cache_dir: str):
        cache = ProofCache(cache_dir)
        report = prove_all(engine, jobs=1, cache=cache, config=ProverConfig(
            use_cache=True, cache_dir=cache_dir))
        return report, cache

    def run(self, state: dict, inputs: dict) -> Round:
        os.makedirs(self.scratch_dir, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="proofs-", dir=self.scratch_dir)
        state["cache_dir"] = cache_dir
        started = perf_counter()
        cold, _ = self._prove(state["engine"], cache_dir)
        wall_s = perf_counter() - started

        verdicts = [(r.name, r.status.value) for r in cold.results]
        state["verdicts"] = verdicts
        not_proved = cold.total - cold.proved
        problems = []
        if cold.total != self.expected_vcs:
            problems.append(f"{cold.total} VCs, expected {self.expected_vcs}")
        if not cold.all_proved:
            problems.append(f"{not_proved} VCs not proved, e.g. "
                            f"{cold.failed[0].name}")
        if cold.cache_hits:
            problems.append(f"{cold.cache_hits} cache hits on a cold run")

        by_category = {name: sum(r.seconds for r in results)
                       for name, results in cold.by_category().items()}
        solver = cold.solver_counters()
        phases = {dict(hist.labels)["phase"]: hist.total
                  for hist in obs.registry().histograms()
                  if hist.name == "smt.phase_seconds"}
        counters = {
            **{f"verif.{name}_s": by_category.pop(name, 0.0)
               for name in PROVE_CATEGORIES},
            "verif.other_s": sum(by_category.values()),
            "smt.solver_seconds": sum(phases.values()),
            **{f"smt.{phase}_s": phases.get(phase, 0.0)
               for phase in ("rewrite", "blast", "preprocess", "sat")},
            "smt.sat_conflicts": solver.get("sat_conflicts", 0),
            "smt.cnf_clauses": solver.get("cnf_clauses", 0),
        }
        digest = digest_of({"verdicts": verdicts, "solver": solver})
        return Round(ops=cold.total, failed=not_proved, wall_s=wall_s,
                     unit_s=[r.seconds for r in cold.results], sim=no_sim(),
                     digest=digest, counters=counters, problems=problems)

    def verify(self, state: dict, inputs: dict, result: Round) -> None:
        """The warm pass: a fresh engine must be served entirely from the
        cache the cold pass filled, with the same verdicts."""
        try:
            started = perf_counter()
            warm, cache = self._prove(self._engine(), state["cache_dir"])
            result.counters["prover.warm_s"] = perf_counter() - started
            result.counters["prover.cache_hit_rate_warm"] = \
                cache.stats.hit_rate
        finally:
            shutil.rmtree(state["cache_dir"], ignore_errors=True)
        verdicts = [(r.name, r.status.value) for r in warm.results]
        if warm.cache_hits != warm.total or verdicts != state["verdicts"]:
            result.problems.append(
                f"warm pass: {warm.cache_hits}/{warm.total} cache hits, "
                f"verdicts {'equal' if verdicts == state['verdicts'] else 'differ'}")


def all_workloads(scratch_dir: str, tiny: bool = False) -> dict:
    """name -> workload, in reporting order.  `tiny` shrinks every size
    for the determinism self-test; nothing else may use it."""
    workloads = [
        KvWorkload(replace(KV_PUT_HEAVY, ops=300) if tiny else KV_PUT_HEAVY),
        KvWorkload(replace(KV_GET_HEAVY, ops=600) if tiny else KV_GET_HEAVY),
        SysWorkload(
            "sys_single",
            "one trap, one marshal round-trip and one scheduler pass per "
            "call, one NR sync + shootdown round per unmapped page",
            ring=False, iters=128 if tiny else SYS_SINGLE_ITERS),
        SysWorkload(
            "sys_ring",
            "the same six programs through 16-SQE ring batches and the "
            "batched map/unmap paths: 1/16 the traps, switches and rounds",
            ring=True, iters=128 if tiny else SYS_RING_ITERS),
        NrWorkload(6) if tiny else NrWorkload(),
        ProveWorkload(scratch_dir, ("lemmas", "nr", "contract"), 113)
        if tiny else ProveWorkload(scratch_dir),
    ]
    return {w.name: w for w in workloads}
