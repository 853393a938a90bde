"""The open-loop, Zipfian, million-client workload harness.

Open loop means arrivals come from a seeded Poisson process at a
configured rate and are issued whether or not earlier requests have
completed — the discipline that exposes queueing: when offered load
nears a node's service capacity the p99 latency diverges from the p50,
which is exactly the effect ``BENCH_cluster.json`` reports for 1 vs 3
nodes.

Key popularity is Zipfian (cumulative-weight inversion, seeded), the
client id of each op is drawn uniformly from a population of millions —
clients are virtual, multiplexed over the gateway, but every one gets
its own read-your-writes session check.  Time is simulated throughout:
latencies are integer nanoseconds of virtual time, so a run's entire
latency distribution is deterministic under its seed.

After the arrival phase drains, the harness audits durability: every
acknowledged write is read back and any version regression is counted
as an acknowledged-write loss (the acceptance invariant for the
node-kill scenario).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

from repro.cluster.client import AUDIT_CLIENT
from repro.cluster.deploy import Deployment
from repro.cluster.node import TICK_NS
from repro.obs import Histogram


class ZipfSampler:
    """Zipf(theta) over ranks 0..n-1 by cumulative-weight inversion."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError("need at least one key")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self._rng = rng
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        self._cumulative = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total

    def sample(self) -> int:
        point = self._rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)


@dataclass(frozen=True)
class WorkloadProfile:
    """One workload configuration (everything the seed doesn't cover)."""

    ops: int = 2_000
    rate: float = 2_000_000.0      # open-loop arrival rate, ops/s (sim)
    num_clients: int = 1_000_000   # virtual client population
    num_keys: int = 512
    zipf_theta: float = 0.99
    put_fraction: float = 0.45
    del_fraction: float = 0.05
    value_bytes: int = 32
    seed: int = 1
    drain_ticks: int = 120_000     # budget to settle after arrivals stop


@dataclass
class WorkloadReport:
    """Everything a run proved and measured."""

    profile: WorkloadProfile
    num_nodes: int
    rf: int
    issued: int = 0
    acked: int = 0
    failed: int = 0
    undrained: int = 0
    redirects: int = 0
    retries: int = 0
    kills: int = 0
    restarts: int = 0
    gaveup: int = 0
    sim_ns: int = 0
    latency: dict = field(default_factory=dict)  # op -> snapshot dict
    #: records per WAL write, merged over the nodes
    wal_batches: Histogram = field(
        default_factory=lambda: Histogram(name="cluster.wal.batch_records"))
    ryw_violations: list = field(default_factory=list)
    lost_acked_writes: list = field(default_factory=list)
    gaveup_ops: list = field(default_factory=list)  # typed give-up records
    recovery: list = field(default_factory=list)    # per-restart facts
    audited_keys: int = 0

    @property
    def ok(self) -> bool:
        return (not self.ryw_violations and not self.lost_acked_writes
                and self.undrained == 0)

    @property
    def throughput_ops_per_s(self) -> float:
        if self.sim_ns <= 0:
            return 0.0
        return self.acked / (self.sim_ns / 1e9)

    def summary_lines(self) -> list[str]:
        lines = [
            f"cluster workload: {self.num_nodes} nodes rf={self.rf} "
            f"seed={self.profile.seed}: {self.acked}/{self.issued} acked, "
            f"{self.failed} failed ({self.gaveup} gave up), "
            f"{self.undrained} undrained, "
            f"{self.kills} kills, {self.restarts} restarts",
            f"  throughput {self.throughput_ops_per_s:,.0f} ops/s over "
            f"{self.sim_ns / 1e6:.3f} ms simulated "
            f"({self.retries} retries, {self.redirects} redirects)",
        ]
        for op in sorted(self.latency):
            snap = self.latency[op]
            if snap["count"]:
                lines.append(
                    f"  {op:4s} n={snap['count']:>6} p50={snap['p50']:.0f}ns "
                    f"p99={snap['p99']:.0f}ns max={snap['max']:.0f}ns")
        batches = self.wal_batches
        lines.append(
            f"  wal  writes={batches.count} records per write "
            f"p50={batches.percentile(50)} max={batches.max}")
        lines.append(
            f"  audit: {self.audited_keys} acked keys re-read, "
            f"{len(self.lost_acked_writes)} lost, "
            f"{len(self.ryw_violations)} read-your-writes violations")
        for rec in self.recovery:
            ticks = rec.get("recovery_ticks")
            lines.append(
                f"  recovery: {rec['node']} restarted at t={rec['restarted_at']}, "
                f"fsck issues={rec['fsck_issues']}, "
                f"replayed {rec['replayed_records']} wal records, "
                f"{rec['recovered_keys']} keys, "
                + (f"serving after {ticks} ticks"
                   if ticks is not None else "NOT SERVING"))
        for record in self.gaveup_ops[:5]:
            lines.append(
                f"  GAVEUP: {record['op']} {record['key']} "
                f"(client {record['client']}, {record['attempts']} attempts, "
                f"last error: {record['reason']})")
        for problem in self.lost_acked_writes[:5]:
            lines.append(f"  LOST: {problem}")
        for problem in self.ryw_violations[:5]:
            lines.append(f"  RYW: {problem}")
        return lines


def run_workload(deployment: Deployment, profile: WorkloadProfile,
                 kill_at_op: int | None = None,
                 kill_node: str | None = None,
                 restart_at_op: int | None = None) -> WorkloadReport:
    """Drive one open-loop run (plus drain and audit) to completion.

    `kill_at_op` fail-stops `kill_node` at that arrival index;
    `restart_at_op` (a later index) boots its replacement from the dead
    disk's image mid-workload, so recovery contends with live traffic."""
    rng = random.Random(f"{profile.seed}/arrivals")
    zipf = ZipfSampler(profile.num_keys, profile.zipf_theta,
                       random.Random(f"{profile.seed}/zipf"))
    gateway = deployment.gateway
    start_tick = deployment.now

    issued = 0
    next_arrival_ns = 0.0
    deadline = None
    while True:
        now_ns = (deployment.now - start_tick) * TICK_NS
        while issued < profile.ops and next_arrival_ns <= now_ns:
            if kill_at_op is not None and issued == kill_at_op \
                    and kill_node is not None:
                deployment.kill(kill_node)
            if restart_at_op is not None and issued == restart_at_op \
                    and kill_node is not None \
                    and not deployment.nodes[kill_node].alive:
                deployment.restart(kill_node)
            key = f"k{zipf.sample()}"
            client = rng.randrange(profile.num_clients)
            which = rng.random()
            if which < profile.put_fraction:
                value = f"v{issued}".ljust(profile.value_bytes, ".")
                gateway.issue("put", key, value, client, deployment.now)
            elif which < profile.put_fraction + profile.del_fraction:
                gateway.issue("del", key, None, client, deployment.now)
            else:
                gateway.issue("get", key, None, client, deployment.now)
            issued += 1
            next_arrival_ns += rng.expovariate(profile.rate) * 1e9
        deployment.step()
        if issued >= profile.ops:
            if deadline is None:
                deadline = deployment.now + profile.drain_ticks
            if not gateway.outstanding or deployment.now >= deadline:
                break

    undrained = len(gateway.outstanding)
    gateway.outstanding.clear()
    arrivals_ns = (deployment.now - start_tick) * TICK_NS

    # measurements are taken before the audit so its reads (issued by
    # the reserved audit client) never pollute the workload's numbers
    report = WorkloadReport(
        profile=profile,
        num_nodes=len(deployment.nodes),
        rf=deployment.rf,
        issued=issued,
        acked=gateway.acked.value,
        failed=gateway.failed.value,
        undrained=undrained,
        redirects=gateway.redirects.value,
        retries=gateway.retries.value,
        kills=deployment.kills.value,
        restarts=deployment.restarts.value,
        gaveup=gateway.giveups.value,
        sim_ns=arrivals_ns,
        ryw_violations=list(gateway.ryw_violations),
        gaveup_ops=list(gateway.gaveup),
    )
    for op, hist in gateway.latency.items():
        report.latency[op] = hist.snapshot() if hist.count else {
            "count": 0, "p50": 0, "p99": 0, "max": 0, "mean": 0}
    for hist in deployment.registry.histograms():
        if hist.name == report.wal_batches.name:
            report.wal_batches.merge(hist)

    # -- durability audit: read back every acknowledged write --------------
    audit_keys = gateway.audit_keys()
    for offset in range(0, len(audit_keys), 16):
        for key in audit_keys[offset:offset + 16]:
            gateway.issue("get", key, None, AUDIT_CLIENT, deployment.now)
        for _ in range(profile.drain_ticks):
            deployment.step()
            if not gateway.outstanding:
                break
    gateway.outstanding.clear()
    report.lost_acked_writes = gateway.audit_losses()
    report.audited_keys = len(audit_keys)
    report.recovery = deployment.recovery_info()
    return report
