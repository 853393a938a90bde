"""A scalable key-value store built on node replication.

The paper argues NrOS-style node replication applies beyond the kernel, to
"many of the user-space components".  This application demonstrates it: a
KV store whose sequential logic is replicated per NUMA node via NR, with a
self-check that the observed concurrent behaviour is linearizable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.immutable import EMPTY_MAP
from repro.nr.core import NodeReplicated
from repro.nr.datastructures import KvStore, kv_model_step


@dataclass
class KvStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0


class ReplicatedKv:
    """The user-facing API over NR-replicated state."""

    def __init__(self, num_nodes: int = 2) -> None:
        self.nr = NodeReplicated(KvStore, num_nodes=num_nodes)
        self.stats = KvStats()

    def put(self, key, value, node: int = 0, thread: int = 0):
        self.stats.puts += 1
        return self.nr.execute(("put", key, value), node=node, thread=thread)

    def get(self, key, node: int = 0, thread: int = 0):
        self.stats.gets += 1
        return self.nr.execute_ro(("get", key), node=node, thread=thread)

    def delete(self, key, node: int = 0, thread: int = 0):
        self.stats.deletes += 1
        return self.nr.execute(("del", key), node=node, thread=thread)

    def snapshot(self, node: int = 0) -> dict:
        """A consistent snapshot (after quiescing the replica)."""
        self.nr.sync_all()
        return dict(self.nr.replicas[node].ds.data)


def workload_scripts(num_threads: int = 4, num_nodes: int = 2,
                     ops_per_thread: int = 6):
    """The mixed put/get/del workload: one script per thread, threads
    spread round-robin over the nodes.  The linearizability self-check
    below and the race detector (:mod:`repro.analysis.race`) replay the
    same scripts."""
    from repro.nr.interleave import ThreadScript  # repro: allow(ghost-import)

    keys = ["alpha", "beta", "gamma"]
    scripts = []
    for t in range(num_threads):
        ops = []
        for i in range(ops_per_thread):
            key = keys[(t + i) % len(keys)]
            which = (t * 7 + i) % 3
            if which == 0:
                ops.append((("put", key, f"v{t}.{i}"), False))
            elif which == 1:
                ops.append((("get", key), True))
            else:
                ops.append((("del", key), False))
        scripts.append(ThreadScript(thread=t, node=t % num_nodes, ops=ops))
    return scripts


def run_concurrent_workload(
    num_threads: int = 4,
    num_nodes: int = 2,
    ops_per_thread: int = 6,
    seed: int = 0,
):
    """Run a concurrent put/get/del workload and verify linearizability.

    Returns (kv, history, check_result)."""
    # Ghost imports: the self-check pulls in the proof layer only when
    # it actually runs, so the store itself deploys with proofs erased.
    from repro.nr.interleave import run_interleaved  # repro: allow(ghost-import)
    from repro.nr.linearizability import check_linearizable  # repro: allow(ghost-import)

    kv = ReplicatedKv(num_nodes=num_nodes)
    scripts = workload_scripts(num_threads, num_nodes, ops_per_thread)
    history = run_interleaved(kv.nr, scripts, seed=seed)
    result = check_linearizable(history, EMPTY_MAP, kv_model_step)
    return kv, history, result
