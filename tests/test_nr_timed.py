"""Golden exactness of the timed NR driver.

Every literal below is an output of the model, not of the Python that
runs it: simulated time, every latency sample, the combiner's batching
and the number of events dispatched must never move for a host-side
change.  They were recorded under the pid tie-break of
`repro.sim.kernel` with the combiner's result delivery priced (an
`apply` of an entry this node appended writes its owner's `result`
line).  A change that moves one of them on purpose (a new cost model, a
new tie-break) re-records the table and says so; the e2e `sim_digest`
of `nr_vspace_28c` moves with it.
"""

import hashlib

import pytest

from repro.nr import core as nrcore
from repro.nr import timed
from repro.nr.datastructures import KvStore, VSpaceModel
from repro.nr.timed import (
    TimedNrConfig,
    run_timed_sharded,
    run_timed_workload,
    tlb_shootdown_cost,
)
from repro.obs.events import EventBus
from repro.sim.kernel import SimulationError

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
    ("vspace", 1): (23712, "71f964ae02ca5a98", 8, 1, 8, 133),
    ("vspace", 2): (36418, "d809942c96d6bd41", 15, 2, 15, 288),
    ("vspace", 14): (118478, "6ab96d6ed01d09b9", 17, 14, 17, 10382),
    ("vspace", 16): (135954, "51a84065bfe54a5b", 33, 14, 33, 13782),
    ("vspace", 28): (220698, "f203cff3a9e65cd3", 34, 14, 34, 40127),
    ("sharded", 1): (24428, "51ecacb5f95a0c26", 9, 1, 9, 130),
    ("sharded", 2): (25674, "224f5412b99f2ffb", 18, 1, 18, 260),
    ("sharded", 14): (48632, "f0f3e806956ad2a0", 67, 4, 67, 4663),
    ("sharded", 16): (114078, "dc661d3a5f7c97fd", 88, 4, 88, 6377),
    ("sharded", 28): (78094, "a047d6275a1675e7", 128, 4, 128, 16410),
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
    assert digest(trace) == "6ced50edef79bcc7"


def test_golden_e2e_shape():
    """The `nr_vspace_28c` benchmark workload's shape (28 cores, 84 ops
    per core, its replica costs, shootdown on unmap only; page numbers
    do not enter the cost model, so every seed gives these values).
    817 837 events for 2 352 ops is the events-per-op figure (347.7)
    that turns the workload's `ops_per_s` into events per second."""
    cfg = TimedNrConfig(num_cores=28, ops_per_core=84, apply_cost_ns=2000,
                        query_cost_ns=400, post_op_cost_fn=unmap_post_cost)
    result = run_timed_workload(VSpaceModel, vspace_op, cfg)
    assert summary(result) == (3332750, "2324e6969b11031c", 194, 14, 194,
                               817837)
    assert len(result.latency) == 2352
    assert result.latency.percentile(50) == 40738
    assert result.latency.percentile(99) == 78720


class NoSpinAfterLoss(nrcore.NodeReplicated):
    """A protocol whose lost combine attempt re-reads its result slot
    instead of backing off: the step after a lost `try_combine` is no
    longer a local test the driver may take early."""

    def execute_steps(self, op, node, thread):
        for label in super().execute_steps(op, node, thread):
            yield nrcore.CHECK_RESULT if label is nrcore.SPIN else label


def test_a_lost_attempt_must_be_followed_by_spin(monkeypatch):
    monkeypatch.setattr(timed, "NodeReplicated", NoSpinAfterLoss)
    cfg = TimedNrConfig(num_cores=4, ops_per_core=OPS_PER_CORE)
    with pytest.raises(SimulationError, match="lost try_combine"):
        run_timed_workload(VSpaceModel, vspace_op, cfg)
