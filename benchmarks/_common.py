"""Shared helpers for the benchmark harness.

Every benchmark prints the rows/series the paper reports (via
`report_lines`, which bypasses pytest's capture so the numbers are visible
in a normal `pytest benchmarks/ --benchmark-only` run); the figure
benchmarks also emit them as ``BENCH_<name>.json`` through
`write_bench_json`, which holds the file to `benchmarks.gates`.
"""

from __future__ import annotations

import functools
import json
import os
import time

from benchmarks import gates


def write_bench_json(name: str, payload: dict, out_dir: str | None = None) -> str:
    """Write the machine-readable result file ``BENCH_<name>.json``, then
    gate it: against its rows in `gates.GATES`, and against the committed
    ``benchmarks/baseline_<name>.json`` when there is one.

    The file lands next to the working directory (override with `out_dir`
    or ``$REPRO_BENCH_DIR``) *before* the gate runs, so a failing run can
    be inspected and a deliberate re-baseline is: run, copy the file over
    the baseline, re-run.  Returns the path written; raises
    `gates.GateFailure` naming the offending path."""
    out_dir = out_dir or os.environ.get("REPRO_BENCH_DIR") or os.getcwd()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    document = {"schema_version": gates.SCHEMA_VERSION, "bench": name}
    document.update(payload)
    text = json.dumps(document, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")

    baseline = None
    baseline_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 f"baseline_{name}.json")
    if os.path.exists(baseline_path):
        try:
            with open(baseline_path) as fh:
                baseline = json.load(fh)
        except ValueError as error:
            raise gates.GateFailure(baseline_path,
                                    f"not JSON ({error})") from None
    # gate what was written, not the in-memory payload
    gates.check(json.loads(text), baseline)
    return path


def report_lines(capsys, title: str, lines) -> None:
    """Print a block of result rows, bypassing pytest capture."""
    with capsys.disabled():
        print()
        print(f"=== {title} ===")
        for line in lines:
            print(line)


def calibrate_impl_cost(ops: int = 400, trials: int = 31) -> dict:
    """Measure the real Python cost of one map operation on the verified
    and the unverified page-table implementations.

    Trials are interleaved, alternating which implementation goes first,
    and the minimum per implementation is taken (the standard
    microbenchmark discipline: the minimum is the least noisy estimator
    of intrinsic cost, and interleaving lets a burst of host noise slow
    both sides instead of one).  The latency figures scale the simulated
    apply cost by the measured ratio, so 'verified vs unverified'
    reflects the actual relative cost of the two code bases."""
    from repro.core.pt.defs import Flags, PageSize
    from repro.core.pt.impl import PageTable, SimpleFrameAllocator
    from repro.hw.mem import PhysicalMemory
    from repro.nros.pt_unverified import UnverifiedPageTable

    MB = 1024 * 1024

    def run(factory):
        memory = PhysicalMemory(16 * MB)
        allocator = SimpleFrameAllocator(memory, start=8 * MB)
        pt = factory(memory, allocator)
        start = time.perf_counter()
        for i in range(ops):
            pt.map_frame(0x10_0000 + i * 0x1000, 0x10_0000 + i * 0x1000,
                         PageSize.SIZE_4K, Flags.user_rw())
        return (time.perf_counter() - start) / ops

    samples = {PageTable: [], UnverifiedPageTable: []}
    for trial in range(trials):
        order = (PageTable, UnverifiedPageTable)
        for factory in order if trial % 2 == 0 else order[::-1]:
            samples[factory].append(run(factory))
    verified = min(samples[PageTable])
    unverified = min(samples[UnverifiedPageTable])
    return {
        "verified_s_per_op": verified,
        "unverified_s_per_op": unverified,
        "ratio": verified / unverified if unverified else 1.0,
    }


@functools.cache
def session_calibration() -> dict:
    """The one calibration of a benchmark process: Figures 1b and 1c
    scale their verified curves by the same measured ratio (≈ 0.15 s)."""
    return calibrate_impl_cost()


def vspace_obs_probe(pages: int = 64, batch: int = 16) -> dict:
    """Drive a short batched map/unmap workload on the *real* VSpace and
    return the deltas the process-wide ``repro.obs`` instruments record.

    Figures 1b/1c price map/unmap on the timed NR model; this probe runs
    the same operation shapes through ``repro.nros.vspace`` so each
    figure's JSON also carries the observable side the model abstracts:
    shootdown rounds and pages, the mapped-page gauge, and the batch-size
    histogram.  The deltas double as a consistency check — one shootdown
    round per unmap batch, shot pages equal to pages unmapped, and the
    gauge back at its starting level once everything is unmapped.
    """
    from repro import obs
    from repro.core.pt.defs import Flags, PageSize
    from repro.hw.mem import PhysicalMemory
    from repro.nros.pmem import BuddyAllocator
    from repro.nros.vspace import VSpace

    if pages % batch:
        raise ValueError("pages must be a multiple of batch")
    MB = 1024 * 1024
    rounds = obs.counter("vspace.shootdown_rounds")
    shot = obs.counter("vspace.shootdown_pages")
    mapped = obs.gauge("vspace.mapped_pages")
    batch_hist = obs.histogram("vspace.batch_pages")
    before = (rounds.value, shot.value, mapped.value, batch_hist.count)

    memory = PhysicalMemory(16 * MB)
    allocator = BuddyAllocator(memory, start=8 * MB)
    vspace = VSpace(memory, allocator, num_nodes=2)
    for core in range(4):
        vspace.attach_core(core, core % 2)
    flags = Flags.user_rw()
    for index in range(pages // batch):
        base = 0x40_0000 + index * batch * 0x1000
        entries = [(base + i * 0x1000, 0x10_0000 + i * 0x1000,
                    PageSize.SIZE_4K, flags) for i in range(batch)]
        vspace.map_batch(entries, core=index % 4)
        vspace.unmap_batch([vaddr for vaddr, _, _, _ in entries],
                           core=index % 4)

    probe = {
        "pages": pages,
        "batch": batch,
        "shootdown_rounds": rounds.value - before[0],
        "shootdown_pages": shot.value - before[1],
        "mapped_pages_gauge_delta": mapped.value - before[2],
        "batch_pages_recorded": batch_hist.count - before[3],
        "batch_pages_p50": batch_hist.percentile(50),
    }
    assert probe["shootdown_rounds"] == pages // batch
    assert probe["shootdown_pages"] == pages
    assert probe["mapped_pages_gauge_delta"] == 0
    # one batch_pages sample per map_batch plus one per unmap_batch
    assert probe["batch_pages_recorded"] == 2 * (pages // batch)
    assert vspace.shootdowns == probe["shootdown_rounds"]
    return probe


CORE_COUNTS = (1, 8, 16, 24, 28)

# Base simulated cost (ns) of applying one page-table operation on a
# replica; the verified variant scales this by the measured code ratio.
BASE_APPLY_NS = 2000
BASE_QUERY_NS = 400
OPS_PER_CORE = 24
