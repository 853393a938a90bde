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
* **link partition + heal** — rules at site ``cluster.link`` sever
  cables for a bounded number of ticks.  Requests may degrade into
  client-visible retries; the membership protocol must reconverge after
  the heal and the durability audit must still find every acked write.
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

Classification follows the campaign convention: injections that the
service absorbed with the contract intact are *survived*; client-visible
failures (typed, reported request failures) are *degraded*; a lost
acknowledged write, a read-your-writes violation, or an undrained
request is *failed* and lands in :attr:`CampaignReport.violations`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.crash import is_recoverable
from repro.faults.plan import FaultPlan, FaultRule

if TYPE_CHECKING:
    from repro.faults.campaign import CampaignReport


def _run_deployment(seed: int, plan: FaultPlan, ops: int,
                    num_nodes: int = 3, rf: int = 2,
                    auto_restart_delay: int | None = None):
    from repro.cluster.deploy import Deployment
    from repro.cluster.workload import WorkloadProfile, run_workload
    from repro.obs.registry import Registry

    deployment = Deployment(num_nodes, rf=rf, fault_plan=plan,
                            registry=Registry(), seed=seed,
                            auto_restart_delay=auto_restart_delay)
    report = run_workload(deployment,
                          WorkloadProfile(ops=ops, seed=seed))
    return deployment, report


def _classify(report, wl, site_name: str, plan: FaultPlan,
              note: str) -> None:
    """Shared outcome accounting for one cluster scenario."""
    site = report.site(site_name)
    site.injected += plan.injections
    before = len(report.violations)
    for problem in wl.lost_acked_writes:
        report.violation(site_name, f"acked write lost: {problem}")
    for problem in wl.ryw_violations:
        report.violation(site_name, f"read-your-writes: {problem}")
    if wl.undrained:
        report.violation(site_name,
                         f"{wl.undrained} requests never completed")
    if len(report.violations) != before:
        return
    if wl.failed:
        site.degraded += min(wl.failed, plan.injections)
        site.survived += max(0, plan.injections - wl.failed)
    else:
        site.survived += plan.injections
    report.notes.append(note)


def _cluster_node_crash(seed: int, report: CampaignReport) -> None:
    plan = FaultPlan(seed, rules=[
        FaultRule(site="cluster.node.*", kind="crash", at=120),
    ])
    deployment, wl = _run_deployment(seed, plan, ops=500)
    if plan.injections == 0:
        report.violation("cluster.node",
                         "crash rule never reached its trigger")
        return
    dead = sorted(set(deployment.nodes) - set(deployment.alive_nodes))
    _classify(report, wl, "cluster.node", plan,
              f"cluster.node: {','.join(dead) or 'nobody'} fail-stopped "
              f"at a message boundary; {wl.acked}/{wl.issued} ops acked, "
              f"{wl.audited_keys} acked keys audited intact after "
              f"failover ({wl.retries} client retries)")


def _cluster_partition(seed: int, report: CampaignReport) -> None:
    plan = FaultPlan(seed, rules=[
        FaultRule(site="cluster.link", kind="partition",
                  probability=0.001, max_triggers=3),
    ])
    deployment, wl = _run_deployment(seed, plan, ops=500)
    if plan.injections == 0:
        report.violation("cluster.link", "no partition ever fired")
        return
    _classify(report, wl, "cluster.link", plan,
              f"cluster.link: {deployment.partitions.value} link "
              f"partitions injected and healed; {wl.acked}/{wl.issued} "
              f"ops acked, durability audit clean "
              f"({wl.retries} client retries)")


def _cluster_replica_lag(seed: int, report: CampaignReport) -> None:
    plan = FaultPlan(seed, rules=[
        FaultRule(site="cluster.repl", kind="lag", probability=0.25),
    ])
    _, wl = _run_deployment(seed, plan, ops=500)
    if plan.injections == 0:
        report.violation("cluster.repl", "no replica forward ever lagged")
        return
    _classify(report, wl, "cluster.repl", plan,
              f"cluster.repl: {plan.injections} replica forwards lagged; "
              f"acks waited (no early acknowledgement), "
              f"{wl.acked}/{wl.issued} ops acked, audit clean")


def _cluster_crash_restart(seed: int, report: CampaignReport) -> None:
    plan = FaultPlan(seed, rules=[
        FaultRule(site="cluster.node.*", kind="crash", at=150),
    ])
    deployment, wl = _run_deployment(seed, plan, ops=500,
                                     auto_restart_delay=200)
    if plan.injections == 0:
        report.violation("cluster.restart",
                         "crash rule never reached its trigger")
        return
    site = "cluster.restart"
    before = len(report.violations)
    if wl.restarts == 0:
        report.violation(site, "killed node was never restarted")
    for rec in wl.recovery:
        node = deployment.nodes[rec["node"]]
        if not rec["serving"]:
            report.violation(site, f"{rec['node']} restarted but never "
                                   f"returned to serving")
        for issue in node.fsck_issues:
            if not is_recoverable(issue):
                report.violation(site, f"{rec['node']} remount fsck: "
                                       f"{issue}")
    if len(report.violations) != before:
        return
    recs = wl.recovery
    _classify(report, wl, site, plan,
              f"cluster.restart: {plan.injections} injected crash(es), "
              f"{wl.restarts} restart(s); "
              + "; ".join(
                  f"{r['node']} replayed {r['replayed_records']} wal "
                  f"records ({r['recovered_keys']} keys, "
                  f"{r['fsck_issues']} fsck issues), serving after "
                  f"{r.get('recovery_ticks', '?')} ticks" for r in recs)
              + f"; {wl.acked}/{wl.issued} ops acked, audit clean")


def run_wal_crash_matrix(seed: int = 1, ops: int = 120,
                         compact_every: int = 16,
                         target: str = "node1") -> "CrashMatrixReport":
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
    from repro.faults.crash import CrashMatrixReport, CrashPointResult
    from repro.obs.registry import Registry

    def build() -> "Deployment":
        return Deployment(3, rf=2, registry=Registry(), seed=seed,
                          compact_every=compact_every,
                          auto_restart_delay=150)

    profile = WorkloadProfile(ops=ops, seed=seed)
    report = CrashMatrixReport(scenario=f"cluster-wal/{target}")

    # Pass 1: count the target's write boundaries on an undisturbed run.
    deployment = build()
    disk = deployment.kernels[target].disk
    before = disk.writes
    run_workload(deployment, profile)
    report.total_writes = disk.writes - before

    # Pass 2: one full kill+restart run per crash point.
    for n in range(1, report.total_writes + 1):
        deployment = build()
        plan = FaultPlan(seed=n, rules=[
            FaultRule(site="disk.write", kind="crash", at=n),
        ])
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
        for problem in wl.lost_acked_writes:
            issues.append(f"acked write lost: {problem}")
        for problem in wl.ryw_violations:
            issues.append(f"read-your-writes: {problem}")
        if wl.undrained:
            issues.append(f"{wl.undrained} requests never completed")
        report.points.append(CrashPointResult(write_number=n,
                                              issues=issues))
    return report


def _cluster_wal_matrix(seed: int, report: CampaignReport) -> None:
    # a reduced matrix (still covering append + compaction boundaries)
    # keeps the campaign fast; CI's cluster job runs the full
    # run_wal_crash_matrix() at its default size
    matrix = run_wal_crash_matrix(seed=seed, ops=24, compact_every=4)
    site = report.site("cluster.wal")
    site.injected += matrix.crash_points
    for violation in matrix.violations:
        report.violation("cluster.wal", violation)
    if matrix.ok:
        site.survived += matrix.clean
        site.degraded += matrix.degraded
        report.notes.append(f"cluster.wal: {matrix.summary()}")


#: The ``cluster`` row of :data:`repro.faults.campaign.CAMPAIGNS`.
SCENARIOS = (_cluster_node_crash, _cluster_partition, _cluster_replica_lag,
             _cluster_crash_restart, _cluster_wal_matrix)
