"""Ring: batched syscall dispatch vs one-at-a-time, under contention.

Three workloads cross the user/kernel boundary ``ITERS`` times per
process — ``fs`` (64-entry file writes), ``net`` (UDP sends through the
loopback stack), ``pt`` (page map+unmap pairs) — each in two modes:

* **single** — one ``yield sys(...)`` per operation, the classic
  trap-per-call path (and for ``pt``, one full NR sync + TLB-shootdown
  round per unmapped page);
* **batched** — the same operations staged as fixed-size SQEs and
  submitted through the submission/completion ring, one ``ring_enter``
  per ``BATCH`` entries (and for ``pt``, ``vm_map_batch`` /
  ``vm_unmap_batch`` paying one shootdown round per ``PT_BATCH`` pages).

Each (workload, mode) cell runs at 1 and 8 processes on one kernel, so
the batched path is measured alone and under scheduler contention, where
amortizing the per-crossing overhead matters most.  The acceptance gate
— batched pt throughput at least 3x single-call under contention — and
the accounting identities are the ring rows of ``benchmarks/gates.py``,
which ``write_bench_json`` applies to the emitted ``BENCH_ring.json``.

Operation *counts* (ops, ring batches, SQEs, shootdown rounds) are
deterministic and must equal ``baseline_ring.json``; wall-clock
throughput only has to stay above half of it.
"""

import gc
import time

import pytest

from benchmarks._common import report_lines, write_bench_json
from repro import obs
from repro.core.pt.defs import PAGE_SIZE
from repro.nros.fs.fd import O_CREAT, O_RDWR
from repro.nros.kernel import Kernel
from repro.nros.syscall.abi import sys
from repro.ulib import Ring

PROC_COUNTS = (1, 8)
ITERS = 32  # boundary crossings per process
BATCH = 16  # SQEs per ring_enter on the batched path
PT_BATCH = 16  # pages per vm_map_batch/vm_unmap_batch SQE
IP = 0x0A00_0001
PAYLOAD = b"x" * 48  # fits an SQE blob alongside the int args
DEAD_PORT = 9  # nothing binds it: the stack drops deliveries

WORKLOADS = ("fs", "net", "pt")


def _fs_single(index, iters, lats):
    def prog():
        fd = yield sys("open", f"/ring{index}.dat", O_CREAT | O_RDWR)
        for _ in range(iters):
            t0 = time.perf_counter()
            yield sys("write", fd, PAYLOAD)
            lats.append(time.perf_counter() - t0)
        yield sys("close", fd)

    return prog


def _fs_batched(index, iters, lats):
    def prog():
        fd = yield sys("open", f"/ring{index}.dat", O_CREAT | O_RDWR)
        ring = Ring(sq_depth=BATCH)
        yield from ring.setup()
        for _ in range(iters // BATCH):
            for _ in range(BATCH):
                ring.prepare("write", (fd, PAYLOAD))
            t0 = time.perf_counter()
            completions = yield from ring.submit()
            elapsed = time.perf_counter() - t0
            Ring.unwrap(completions)
            lats.extend([elapsed / BATCH] * BATCH)
        yield sys("close", fd)

    return prog


def _net_single(index, iters, lats):
    def prog():
        sid = yield sys("socket")
        yield sys("bind", sid, 1000 + index)
        for _ in range(iters):
            t0 = time.perf_counter()
            yield sys("sendto", sid, IP, DEAD_PORT, PAYLOAD)
            lats.append(time.perf_counter() - t0)

    return prog


def _net_batched(index, iters, lats):
    def prog():
        sid = yield sys("socket")
        yield sys("bind", sid, 1000 + index)
        ring = Ring(sq_depth=BATCH)
        yield from ring.setup()
        for _ in range(iters // BATCH):
            for _ in range(BATCH):
                ring.prepare("sendto", (sid, IP, DEAD_PORT, PAYLOAD))
            t0 = time.perf_counter()
            completions = yield from ring.submit()
            elapsed = time.perf_counter() - t0
            Ring.unwrap(completions)
            lats.extend([elapsed / BATCH] * BATCH)

    return prog


def _pt_single(index, iters, lats):
    def prog():
        for _ in range(iters):
            t0 = time.perf_counter()
            base = yield sys("vm_map", 1)
            yield sys("vm_unmap", base)
            lats.append(time.perf_counter() - t0)

    return prog


def _pt_batched(index, iters, lats):
    def prog():
        ring = Ring(sq_depth=4)
        yield from ring.setup()
        for _ in range(iters // PT_BATCH):
            t0 = time.perf_counter()
            ring.prepare("vm_map_batch", (PT_BATCH,))
            completions = yield from ring.submit()
            (base,) = Ring.unwrap(completions)
            # munmap-style range form: a few bytes in the SQE regardless
            # of the page count (a marshalled vaddr tuple would outgrow
            # the fixed-size slot past ~12 pages)
            ring.prepare("vm_unmap_batch", (base, PT_BATCH))
            Ring.unwrap((yield from ring.submit()))
            elapsed = time.perf_counter() - t0
            lats.extend([elapsed / PT_BATCH] * PT_BATCH)

    return prog


_FACTORIES = {
    ("fs", "single"): _fs_single,
    ("fs", "batched"): _fs_batched,
    ("net", "single"): _net_single,
    ("net", "batched"): _net_batched,
    ("pt", "single"): _pt_single,
    ("pt", "batched"): _pt_batched,
}


def _percentile(sorted_lats, q):
    if not sorted_lats:
        return 0.0
    return sorted_lats[min(len(sorted_lats) - 1, int(q * len(sorted_lats)))]


def _run_cell(kind, mode, procs):
    kernel = Kernel(num_cores=4, ip=IP)
    lats: list[float] = []
    rounds_before = obs.counter("vspace.shootdown_rounds").value
    for index in range(procs):
        name = f"{kind}-{mode}-{index}"
        kernel.register_program(
            name, _FACTORIES[(kind, mode)](index, ITERS, lats))
        kernel.spawn(name)
    # A cell runs for ~2 ms; a collection of the garbage the
    # *previous* cells and this cell's Kernel construction left behind
    # costs 5-15 ms and lands wherever the allocation counters say, so
    # pay it here, outside the timed region.
    gc.collect()
    t0 = time.perf_counter()
    kernel.run(max_ticks=5_000_000)
    wall = time.perf_counter() - t0
    for process in kernel.processes.values():
        assert process.exit_code == 0, (
            f"{kind}/{mode}/{procs}p: pid {process.pid} exited "
            f"{process.exit_code}")
    ops = procs * ITERS
    lats.sort()
    return {
        "procs": procs,
        "ops": ops,
        "wall_seconds": wall,
        "ops_per_s": ops / wall if wall > 0 else 0.0,
        "p50_s": _percentile(lats, 0.50),
        "p99_s": _percentile(lats, 0.99),
        "ring_batches": kernel.stats.ring_batches,
        "ring_sqes": kernel.stats.ring_sqes,
        "shootdown_rounds": sum(p.vspace.shootdowns
                                for p in kernel.processes.values()),
        "shootdown_rounds_obs": (
            obs.counter("vspace.shootdown_rounds").value - rounds_before),
    }


def ring_bench():
    series: dict = {}
    for kind in WORKLOADS:
        series[kind] = {}
        for procs in PROC_COUNTS:
            series[kind][str(procs)] = {
                mode: _run_cell(kind, mode, procs)
                for mode in ("single", "batched")
            }
    speedup = {
        kind: {
            procs: (cell["batched"]["ops_per_s"]
                    / max(cell["single"]["ops_per_s"], 1e-12))
            for procs, cell in series[kind].items()
        }
        for kind in WORKLOADS
    }
    batch_hist = obs.histogram("ring.batch_sqes")
    return {
        "iters": ITERS,
        "batch": BATCH,
        "pt_batch": PT_BATCH,
        "proc_counts": list(PROC_COUNTS),
        "series": series,
        "speedup": speedup,
        "ring_obs": {
            "batch_count": batch_hist.count,
            "batch_p50": batch_hist.percentile(50),
            "sq_pending_gauge": obs.gauge("ring.sq_pending").value,
            "cq_ready_gauge": obs.gauge("ring.cq_ready").value,
        },
    }


def _format(payload):
    lines = [
        f"  {payload['iters']} crossings/process, ring batch "
        f"{payload['batch']} SQEs, pt batch {payload['pt_batch']} pages",
        "",
        "  work  procs   single [op/s]   batched [op/s]   speedup"
        "   batched p50/p99 [us]",
    ]
    for kind in WORKLOADS:
        for procs in payload["proc_counts"]:
            cell = payload["series"][kind][str(procs)]
            single, batched = cell["single"], cell["batched"]
            lines.append(
                f"  {kind:4s}  {procs:5d}   {single['ops_per_s']:13,.0f}"
                f"   {batched['ops_per_s']:14,.0f}"
                f"   {payload['speedup'][kind][str(procs)]:7.2f}"
                f"   {batched['p50_s'] * 1e6:8.1f}/"
                f"{batched['p99_s'] * 1e6:<8.1f}")
    max_procs = str(payload["proc_counts"][-1])
    pt = payload["series"]["pt"][max_procs]
    lines += [
        "",
        f"  pt shootdown rounds at {max_procs} processes: "
        f"{pt['single']['shootdown_rounds']} single vs "
        f"{pt['batched']['shootdown_rounds']} batched",
    ]
    return lines


@pytest.mark.benchmark(group="ring")
def test_ring_batched_vs_single(benchmark, capsys):
    payload = benchmark.pedantic(ring_bench, rounds=1, iterations=1)
    path = write_bench_json("ring", payload)
    report_lines(capsys, "Ring: batched vs single-call syscall dispatch",
                 _format(payload) + ["", f"  wrote {path}"])
