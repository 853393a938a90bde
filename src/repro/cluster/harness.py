"""Entry points the CLI, benchmark, and fault campaign share.

``run_cluster`` is one seeded deployment + workload (+ optional
mid-workload node kill and restart); ``scaling_bench`` runs the same
profile at several node counts, ``recovery_bench`` measures a
kill+restart run (WAL replay, rejoin, and the time to restore every
acknowledged write to full replication factor), and together they shape
the ``BENCH_cluster.json`` payload that ``benchmarks/gates.py`` holds
to the committed baseline.
"""

from __future__ import annotations

from repro.cluster.deploy import Deployment
from repro.cluster.workload import WorkloadProfile, WorkloadReport, run_workload
from repro.obs.registry import Registry

#: Node counts the scaling benchmark reports (1 node runs rf=1 — a
#: single copy is the only option — so the contrast with 3-node rf=2
#: includes the replication forward on every write).
SCALE_NODE_COUNTS = (1, 3)


def default_profile(ops: int = 2_000, seed: int = 1,
                    rate: float = 2_000_000.0) -> WorkloadProfile:
    return WorkloadProfile(ops=ops, rate=rate, seed=seed)


def run_cluster(num_nodes: int = 3, rf: int = 2, seed: int = 1,
                profile: WorkloadProfile | None = None,
                kill_at_op: int | None = None,
                kill_node: str | None = None,
                restart_at_op: int | None = None,
                ) -> tuple[Deployment, WorkloadReport]:
    """One deployment, one workload; returns both for inspection."""
    profile = profile if profile is not None else default_profile(seed=seed)
    deployment = Deployment(num_nodes, rf=rf, registry=Registry(),
                            seed=seed)
    report = run_workload(deployment, profile, kill_at_op=kill_at_op,
                          kill_node=kill_node, restart_at_op=restart_at_op)
    return deployment, report


def _series_entry(report: WorkloadReport) -> dict:
    entry = {
        "nodes": report.num_nodes,
        "rf": report.rf,
        "issued": report.issued,
        "acked": report.acked,
        "failed": report.failed,
        "undrained": report.undrained,
        "retries": report.retries,
        "redirects": report.redirects,
        "lost_acked_writes": len(report.lost_acked_writes),
        "ryw_violations": len(report.ryw_violations),
        "sim_ns": report.sim_ns,
        "throughput_ops_per_s": report.throughput_ops_per_s,
    }
    for op in sorted(report.latency):
        snap = report.latency[op]
        entry[op] = {"count": snap["count"], "p50_ns": snap["p50"],
                     "p99_ns": snap["p99"], "max_ns": snap["max"]}
    return entry


def _rf_restore_hook(state: dict):
    """A deployment step hook that samples (every 20 ticks, after the
    restart) whether every acknowledged write is held — at or beyond
    its acknowledged version — by all `rf` of its owners in the ring of
    currently *serving* nodes.  The first tick where that holds is the
    moment the cluster is back at full replication factor."""
    from repro.cluster.ring import HashRing

    def hook(dep) -> None:
        if dep.now % 20 or dep.restarts.value == 0:
            return
        if state.get("restored_at") is not None:
            return
        serving = dep.serving_nodes
        if len(serving) < len(dep.nodes):
            return
        ring = HashRing(serving, vnodes=dep._vnodes)
        for key, (version, _value) in dep.gateway.acked_writes.items():
            for owner in ring.owners(key, dep.rf):
                stored = dep.nodes[owner].core.lookup(key)
                if stored is None or stored[1] < version:
                    return
        state["restored_at"] = dep.now

    return hook


def recovery_bench(seed: int = 1, ops: int = 600,
                   rate: float = 2_000_000.0) -> dict:
    """The recovery entry of BENCH_cluster.json: a 3-node rf=2 run that
    kills node1 a quarter of the way in, restarts it from its disk image
    at the half-way mark, and measures WAL replay, time-to-serving, and
    time-to-restore-RF — with the same zero-loss / zero-RYW invariants
    as every other run."""
    kill_at = ops // 4
    restart_at = ops // 2
    registry = Registry()
    profile = WorkloadProfile(ops=ops, rate=rate, seed=seed)
    deployment = Deployment(3, rf=2, registry=registry, seed=seed)
    state: dict = {"restored_at": None}
    deployment.step_hooks.append(_rf_restore_hook(state))
    report = run_workload(deployment, profile, kill_at_op=kill_at,
                          kill_node="node1", restart_at_op=restart_at)
    rec = report.recovery[0] if report.recovery else {}
    restart_tick = rec.get("restarted_at")
    restored_at = state["restored_at"]
    return {
        "nodes": 3,
        "rf": 2,
        "ops": ops,
        "kill_at_op": kill_at,
        "restart_at_op": restart_at,
        "acked": report.acked,
        "gaveup": report.gaveup,
        "undrained": report.undrained,
        "lost_acked_writes": len(report.lost_acked_writes),
        "ryw_violations": len(report.ryw_violations),
        "fsck_issues": rec.get("fsck_issues", -1),
        "replayed_records": rec.get("replayed_records", -1),
        "recovered_keys": rec.get("recovered_keys", -1),
        "serving": bool(rec.get("serving")),
        "recovery_ticks": rec.get("recovery_ticks", -1),
        "rf_restore_ticks": (restored_at - restart_tick
                             if restored_at is not None
                             and restart_tick is not None else -1),
    }


def scaling_bench(node_counts=SCALE_NODE_COUNTS, seed: int = 1,
                  ops: int = 900, rate: float = 5_000_000.0) -> dict:
    """The BENCH_cluster.json payload: one series entry per node count,
    same seeded open-loop profile, rate chosen above a single node's
    service capacity so the 1-node p99 shows the queueing the extra
    nodes exist to absorb."""
    series = {}
    for count in node_counts:
        profile = WorkloadProfile(ops=ops, rate=rate, seed=seed)
        _, report = run_cluster(
            num_nodes=count, rf=min(2, count), seed=seed, profile=profile)
        series[str(count)] = _series_entry(report)
    return {
        "seed": seed,
        "profile": {
            "ops": ops, "rate_ops_per_s": rate,
            "zipf_theta": WorkloadProfile().zipf_theta,
            "num_clients": WorkloadProfile().num_clients,
            "num_keys": WorkloadProfile().num_keys,
        },
        "series": series,
        "recovery": recovery_bench(seed=seed),
    }
