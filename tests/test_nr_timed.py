"""Golden exactness of the timed NR driver.

Every literal below was recorded on the commit *before* the event loop
and the timed driver were optimised (PR 18) and must never move for a
host-side change: simulated time, every latency sample, the combiner's
batching and the number of events dispatched are outputs of the model,
not of the Python that runs it.  A change that moves one of them on
purpose (a new cost model, a new tie-break) re-records the table and
says so; the e2e `sim_digest` of `nr_vspace_28c` moves with it.
"""

import hashlib

import pytest

from repro.nr.datastructures import KvStore, VSpaceModel
from repro.nr.timed import (
    TimedNrConfig,
    run_timed_sharded,
    run_timed_workload,
    tlb_shootdown_cost,
)
from repro.obs.events import EventBus

OPS_PER_CORE = 12


def vspace_op(core, i):
    """Each core cycles map -> resolve -> unmap over its own pages."""
    vaddr = (core << 28) | ((i // 3 + 1) << 12)
    return ((("map", vaddr, (core << 20) | i), False),
            (("resolve", vaddr), True),
            (("unmap", vaddr), False))[i % 3]


def kv_op(core, i):
    """Three puts then a get, int keys spread over eight groups."""
    key = (core * 5 + i) % 8
    if i % 4 == 3:
        return (key, ("get", key), True)
    return (key, ("put", key, i), False)


def unmap_post_cost(op, is_read, num_cores, topology):
    if op[0] != "unmap":
        return 0
    return tlb_shootdown_cost(op, is_read, num_cores, topology)


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def summary(result):
    return (result.sim_ns,
            digest(",".join(map(str, result.latency.samples))),
            result.batches, result.max_batch, result.log_appends,
            result.events)


#: (workload, cores) -> (sim_ns, BLAKE2b of the latency samples, batches,
#: max_batch, log_appends, events dispatched)
GOLDEN = {
    ("vspace", 1): (23608, "4bd0230dd9e69a89", 8, 1, 8, 133),
    ("vspace", 2): (36274, "8f433d1f74d4dd46", 15, 2, 15, 299),
    ("vspace", 14): (116354, "8d667cbdc2829e0b", 18, 14, 18, 14411),
    ("vspace", 16): (135296, "debf3efb89386011", 33, 14, 33, 18564),
    ("vspace", 28): (217688, "6af3b59c7d833f52", 39, 14, 39, 59090),
    ("sharded", 1): (24146, "ac9723edf4bc5496", 9, 1, 9, 130),
    ("sharded", 2): (25392, "0c69e4365636f688", 18, 1, 18, 260),
    ("sharded", 14): (47146, "3fb39dfafb3a4963", 66, 4, 66, 5963),
    ("sharded", 16): (112956, "759a35301760ad57", 84, 5, 84, 8086),
    ("sharded", 28): (71526, "7310ca35802ec424", 120, 5, 120, 19512),
}


@pytest.mark.parametrize("workload,cores", sorted(GOLDEN))
def test_golden(workload, cores):
    if workload == "vspace":
        cfg = TimedNrConfig(num_cores=cores, ops_per_core=OPS_PER_CORE,
                            post_op_cost_fn=tlb_shootdown_cost)
        result = run_timed_workload(VSpaceModel, vspace_op, cfg)
    else:
        cfg = TimedNrConfig(num_cores=cores, ops_per_core=OPS_PER_CORE)
        result = run_timed_sharded(KvStore, kv_op, cfg, num_shards=4)
    assert summary(result) == GOLDEN[workload, cores]


def test_golden_traced_run():
    """A bus changes nothing about the run, and the trace it collects is
    one `nr.op` per operation, byte for byte."""
    bus, events = EventBus(), []
    bus.subscribe(events.append)
    cfg = TimedNrConfig(num_cores=14, ops_per_core=OPS_PER_CORE,
                        post_op_cost_fn=tlb_shootdown_cost)
    result = run_timed_workload(VSpaceModel, vspace_op, cfg, bus=bus)
    assert summary(result) == GOLDEN["vspace", 14]
    trace = "".join(event.to_json() + "\n" for event in events)
    assert len(trace.splitlines()) == 14 * OPS_PER_CORE == 168
    assert digest(trace) == "19c8780243e7a743"


def test_golden_e2e_shape():
    """The `nr_vspace_28c` benchmark workload's shape (28 cores, 84 ops
    per core, its replica costs, shootdown on unmap only; page numbers
    do not enter the cost model, so every seed gives these values).
    `sim_ns`, p50 and p99 are the figures `benchmarks/e2e/README.md`
    quotes, and 1 218 780 events for 2 352 ops is the events-per-op
    figure (518) that turns the workload's `ops_per_s` into events per
    second."""
    cfg = TimedNrConfig(num_cores=28, ops_per_core=84, apply_cost_ns=2000,
                        query_cost_ns=400, post_op_cost_fn=unmap_post_cost)
    result = run_timed_workload(VSpaceModel, vspace_op, cfg)
    assert summary(result) == (3295326, "c293fccce4203a17", 191, 14, 191,
                               1218780)
    assert len(result.latency) == 2352
    assert result.latency.percentile(50) == 39762
    assert result.latency.percentile(99) == 79842
