"""repro.cluster — a sharded, replicated KV service over the verified OS.

The paper's argument is that a verified kernel is a *foundation*, not a
destination: applications above it still have to get distribution right.
This package builds that application layer end to end — consistent-hash
placement (:mod:`repro.cluster.ring`), primary-forwarded synchronous
replication with failover (:mod:`repro.cluster.core`, the node's
protocol with no I/O, run by the shell :mod:`repro.cluster.node`), a
durable write-ahead log on each node's own verified filesystem
(:mod:`repro.cluster.wal`), a client gateway that checks session
guarantees and backs off with seeded jitter
(:mod:`repro.cluster.client`), a deterministic multi-kernel deployment
with crash-*restart* (:mod:`repro.cluster.deploy`), and an open-loop
million-client workload harness (:mod:`repro.cluster.workload`) —
entirely on the repo's verified kernel, disk, NIC, and UDP stack.
"""

from repro.cluster.client import AUDIT_CLIENT, ClientGateway
from repro.cluster.deploy import Deployment
from repro.cluster.harness import (
    default_profile,
    recovery_bench,
    run_cluster,
    scaling_bench,
)
from repro.cluster.node import ClusterNode
from repro.cluster.ring import HashRing, ring_hash
from repro.cluster.wal import NodeWal, WalRecovery
from repro.cluster.workload import (
    WorkloadProfile,
    WorkloadReport,
    ZipfSampler,
    run_workload,
)

__all__ = [
    "AUDIT_CLIENT",
    "ClientGateway",
    "ClusterNode",
    "Deployment",
    "HashRing",
    "NodeWal",
    "WalRecovery",
    "WorkloadProfile",
    "WorkloadReport",
    "ZipfSampler",
    "default_profile",
    "recovery_bench",
    "ring_hash",
    "run_cluster",
    "run_workload",
    "scaling_bench",
]
