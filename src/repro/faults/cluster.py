"""The ``cluster`` fault campaign: attacking the replicated KV service.

Five scenarios, all through the real deployment (kernels, NICs, links,
the verified UDP stack, NR-backed shards, per-node WALs on the verified
filesystem — no mocks):

* **node crash at a message boundary** — a rule at site
  ``cluster.node.*`` fires while some node is mid-inbox, fail-stopping
  it between two datagrams.  The failure detector must promote the
  surviving replica and the invariant under attack is the service's
  contract: *no acknowledged write may be lost* and every client keeps
  read-your-writes.
* **link partition + heal** — a rule at site ``cluster.link`` severs a
  cable at its 130th draw, at every seed, for a bounded number of ticks.
  Requests may degrade into client-visible retries; the membership
  protocol must reconverge after the heal and the durability audit must
  still find every acked write.
* **replica lag** — rules at site ``cluster.repl`` delay the primary's
  replica forwards.  Acks stall (the primary may not acknowledge until
  the replica applied), so the only acceptable effect is latency; a
  fast-acked-then-lost write would be a violation.
* **crash + restart** — the node-crash scenario with
  ``auto_restart_delay`` armed: the killed node must remount its disk,
  fsck clean, replay its WAL, rejoin via the join/pull protocol, and
  return to serving — all mid-workload, with the durability audit and
  read-your-writes checks still green (site ``cluster.restart``).
* **WAL write-boundary crash matrix** — :func:`run_wal_crash_matrix`
  kills one node's *disk* at every sector-write boundary its WAL (and
  compaction) generates during a workload, restarts the node from the
  surviving image each time, and requires every crash point to be
  fsck-recoverable with the node back in service and zero acked-write
  loss (site ``cluster.wal``) — the cluster-level extension of the
  PR 2 filesystem crash matrix.

Each scenario reports to the campaign ledger
(:class:`repro.faults.campaign.SiteReport`): every injection of its plan,
the requests clients saw fail with a typed error as *degraded*, and a
breach of the service contract (:func:`_contract_breaches`) — a lost
acknowledged write, a read-your-writes violation, an undrained request —
as a violation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.crash import (CrashMatrixReport, crash_each_write,
                                is_recoverable)
from repro.faults.plan import FaultPlan, FaultRule

if TYPE_CHECKING:
    from repro.faults.campaign import SiteReport


def _contract_breaches(wl) -> list[str]:
    """The service contract every cluster scenario and every WAL crash
    point is held to: no acknowledged write lost, read-your-writes for
    every client, and every request completed."""
    breaches = [f"acked write lost: {problem}"
                for problem in wl.lost_acked_writes]
    breaches += [f"read-your-writes: {problem}"
                 for problem in wl.ryw_violations]
    if wl.undrained:
        breaches.append(f"{wl.undrained} requests never completed")
    return breaches


def _run_deployment(seed: int, site: SiteReport, rule: FaultRule,
                    auto_restart_delay: int | None = None):
    """Run the seeded 500-op workload on three nodes (rf 2) under `rule`
    and report the run: every injection, the requests clients saw fail
    (at most one per injection) as degraded, and each contract breach."""
    from repro.cluster.deploy import Deployment
    from repro.cluster.workload import WorkloadProfile, run_workload
    from repro.obs.registry import Registry

    plan = FaultPlan(seed, rules=[rule])
    deployment = Deployment(3, rf=2, fault_plan=plan, registry=Registry(),
                            seed=seed, auto_restart_delay=auto_restart_delay)
    wl = run_workload(deployment, WorkloadProfile(ops=500, seed=seed))
    site.injected = plan.injections
    site.degraded = min(wl.failed, plan.injections)
    if plan.injections == 0:
        site.violations.append(f"{rule.kind} rule never fired")
    site.violations += _contract_breaches(wl)
    return deployment, wl


def _cluster_node_crash(seed: int, site: SiteReport) -> None:
    deployment, wl = _run_deployment(seed, site, FaultRule(
        site="cluster.node.*", kind="crash", at=120))
    dead = sorted(set(deployment.nodes) - set(deployment.alive_nodes))
    site.notes.append(
        f"cluster.node: {','.join(dead) or 'nobody'} fail-stopped "
        f"at a message boundary; {wl.acked}/{wl.issued} ops acked, "
        f"{wl.audited_keys} acked keys audited intact after "
        f"failover ({wl.retries} client retries)")


def _cluster_partition(seed: int, site: SiteReport) -> None:
    deployment, wl = _run_deployment(seed, site, FaultRule(
        site="cluster.link", kind="partition", at=130))
    site.notes.append(
        f"cluster.link: {deployment.partitions.value} link "
        f"partitions injected and healed; {wl.acked}/{wl.issued} "
        f"ops acked, durability audit clean "
        f"({wl.retries} client retries)")


def _cluster_replica_lag(seed: int, site: SiteReport) -> None:
    _, wl = _run_deployment(seed, site, FaultRule(
        site="cluster.repl", kind="lag", probability=0.25))
    site.notes.append(
        f"cluster.repl: {site.injected} replica forwards lagged; "
        f"acks waited (no early acknowledgement), "
        f"{wl.acked}/{wl.issued} ops acked, audit clean")


def _cluster_crash_restart(seed: int, site: SiteReport) -> None:
    deployment, wl = _run_deployment(seed, site, FaultRule(
        site="cluster.node.*", kind="crash", at=150),
        auto_restart_delay=200)
    if wl.restarts == 0:
        site.violations.append("killed node was never restarted")
    for rec in wl.recovery:
        node = deployment.nodes[rec["node"]]
        if not rec["serving"]:
            site.violations.append(f"{rec['node']} restarted but never "
                                   f"returned to serving")
        for issue in node.fsck_issues:
            if not is_recoverable(issue):
                site.violations.append(f"{rec['node']} remount fsck: "
                                       f"{issue}")
    site.notes.append(
        f"cluster.restart: {site.injected} injected crash(es), "
        f"{wl.restarts} restart(s); "
        + "; ".join(
            f"{r['node']} replayed {r['replayed_records']} wal "
            f"records ({r['recovered_keys']} keys, "
            f"{r['fsck_issues']} fsck issues), serving after "
            f"{r.get('recovery_ticks', '?')} ticks" for r in wl.recovery)
        + f"; {wl.acked}/{wl.issued} ops acked, audit clean")


def run_wal_crash_matrix(seed: int = 1, ops: int = 120,
                         compact_every: int = 16,
                         target: str = "node1") -> CrashMatrixReport:
    """Kill `target`'s disk at every write boundary, restart, audit.

    Pass 1 runs the seeded workload undisturbed and counts the sector
    writes the target's WAL + compaction generate; pass 2 re-runs it
    once per boundary with a crash armed at exactly that write.  The
    node fail-stops when the disk dies, the deployment restarts it from
    the surviving platter image, and the crash point passes only if the
    remount fsck is clean-or-recoverable, the node returns to serving,
    and the workload's durability and session invariants hold."""
    from repro.cluster.deploy import Deployment
    from repro.cluster.workload import WorkloadProfile, run_workload
    from repro.obs.registry import Registry

    def build() -> "Deployment":
        return Deployment(3, rf=2, registry=Registry(), seed=seed,
                          compact_every=compact_every,
                          auto_restart_delay=150)

    profile = WorkloadProfile(ops=ops, seed=seed)

    def count_writes() -> int:
        deployment = build()
        disk = deployment.kernels[target].disk
        before = disk.writes
        run_workload(deployment, profile)
        return disk.writes - before

    def crash_at(n: int, plan: FaultPlan) -> list[str]:
        # one full kill+restart run
        deployment = build()
        deployment.kernels[target].disk.fault_plan = plan
        wl = run_workload(deployment, profile)
        issues: list[str] = []
        if plan.injections == 0:
            issues.append(f"crash at write {n} never fired "
                          f"(non-deterministic run?)")
        node = deployment.nodes[target]
        issues.extend(node.fsck_issues)
        if not (node.alive and node.core.state == "serving"):
            issues.append(f"{target} not back to serving after restart")
        issues.extend(_contract_breaches(wl))
        return issues

    return crash_each_write(f"cluster-wal/{target}", count_writes, crash_at)


def _cluster_wal_matrix(seed: int, site: SiteReport) -> None:
    # a reduced matrix (still covering append + compaction boundaries)
    # keeps the campaign fast; CI's cluster job runs the full
    # run_wal_crash_matrix() at its default size
    site.add_matrix(run_wal_crash_matrix(seed=seed, ops=24, compact_every=4),
                    "cluster.wal: ")


#: The ``cluster`` row of :data:`repro.faults.campaign.CAMPAIGNS`.
SCENARIOS = (("cluster.node", _cluster_node_crash),
             ("cluster.link", _cluster_partition),
             ("cluster.repl", _cluster_replica_lag),
             ("cluster.restart", _cluster_crash_restart),
             ("cluster.wal", _cluster_wal_matrix))
