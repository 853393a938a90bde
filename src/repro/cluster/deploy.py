"""Deployment: N storage kernels + a gateway on one simulated fabric.

Builds the real thing end to end: one :class:`~repro.nros.kernel.Kernel`
per storage node (each with its NIC, verified net stack, and its own
disk + verified filesystem carrying the node's WAL), a gateway kernel
for the client population, a full mesh of
:class:`~repro.nros.net.link.Link` cables through
:class:`~repro.nros.cluster.Cluster` (whose ``partition``/``heal``
helpers the fault campaign drives), and a deterministic tick loop that
pumps links, polls stacks, and services nodes in a fixed order — so a
seeded run is replayable byte for byte.

Crash-*restart* is a first-class operation: :meth:`Deployment.restart`
snapshots the dead node's platter, unplugs the kernel, boots a
replacement from that image (remount, not mkfs), re-cables it, and
hands it to a :class:`~repro.cluster.node.ClusterNode` constructed in
``recover`` mode — fsck, WAL replay, and the join/pull rejoin protocol
all run in simulated time inside the same tick loop.  With
``auto_restart_delay`` set, any node that dies (killed or crashed by a
fault injection) is restarted that many ticks later, which is how the
crash-recovery campaign turns every kill into a kill+rejoin scenario.

Fault hooks (all driven by a seeded
:class:`~repro.faults.plan.FaultPlan`):

* ``cluster.node.<id>`` — fail-stop crash at a message boundary
  (drawn inside the node's inbox loop);
* ``cluster.link`` — partition a cable for a bounded number of ticks,
  then heal it (drawn here, once per link per tick);
* ``cluster.repl`` — delay a replica forward (drawn at the primary's
  send site);
* ``disk.write`` on one node's disk — kill the platter mid-WAL-append
  (armed directly on the kernel's disk by the WAL crash matrix).
"""

from __future__ import annotations

from repro import obs
from repro.cluster.client import ClientGateway
from repro.cluster.node import ClusterNode, TICK_NS
from repro.cluster.wal import COMPACT_EVERY
from repro.nros.cluster import Cluster
from repro.nros.kernel import Kernel
from repro.nros.net.ip import ip_addr

#: Upper bound (ticks) on an injected partition's duration.
PARTITION_MAX_TICKS = 160

#: NIC receive ring depth on every cluster kernel.  A service fabric
#: needs deeper rings than the 64-frame default: an open-loop burst must
#: queue at the node, not vanish at the NIC.
NIC_RING_FRAMES = 4096

MB = 1024 * 1024


class Deployment:
    """A running cluster: kernels, links, nodes, gateway, virtual time."""

    def __init__(self, num_nodes: int, rf: int = 2, vnodes: int = 64,
                 capacity: int = 4, fault_plan=None,
                 registry=None, seed: int = 1,
                 compact_every: int = COMPACT_EVERY,
                 auto_restart_delay: int | None = None) -> None:
        if num_nodes <= 0:
            raise ValueError("need at least one node")
        if not 1 <= rf <= num_nodes:
            raise ValueError(f"replication factor {rf} needs "
                             f"1..{num_nodes} nodes")
        self.rf = rf
        self.fault_plan = fault_plan
        self.registry = registry if registry is not None else obs.registry()
        self.seed = seed
        self.now = 0
        self._vnodes = vnodes
        self._capacity = capacity
        self._compact_every = compact_every
        self.auto_restart_delay = auto_restart_delay

        self.cluster = Cluster()
        self.kernels: dict[str, Kernel] = {}
        members: dict[str, int] = {}
        for i in range(num_nodes):
            node_id = f"node{i}"
            ip = ip_addr(f"10.0.0.{i + 1}")
            kernel = Kernel(num_cores=1, memory_bytes=4 * MB,
                            disk_sectors=256, ip=ip, hostname=node_id)
            self.cluster.add(kernel)
            self.kernels[node_id] = kernel
            members[node_id] = ip
        self._members = members
        gateway_kernel = Kernel(num_cores=1, memory_bytes=4 * MB,
                                disk_sectors=256,
                                ip=ip_addr("10.0.0.254"),
                                hostname="gateway")
        self.cluster.add(gateway_kernel)
        self._gateway_kernel = gateway_kernel

        ids = sorted(self.kernels)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                self.cluster.connect(self.kernels[a], self.kernels[b])
            self.cluster.connect(self.kernels[a], gateway_kernel)
        for kernel in list(self.kernels.values()) + [gateway_kernel]:
            kernel.nic.ring_size = NIC_RING_FRAMES

        self.nodes = {
            node_id: ClusterNode(node_id, self.kernels[node_id], members,
                                 rf=rf, vnodes=vnodes, capacity=capacity,
                                 fault_plan=fault_plan,
                                 registry=self.registry, seed=seed,
                                 compact_every=compact_every)
            for node_id in ids
        }
        self.gateway = ClientGateway(gateway_kernel, members,
                                     vnodes=vnodes, registry=self.registry,
                                     seed=seed)
        self.kills = self.registry.counter("cluster.kills")
        self.partitions = self.registry.counter("cluster.partitions")
        self.restarts = self.registry.counter("cluster.restarts")
        self._heals: list[tuple[int, object]] = []  # (due tick, link)
        self._restart_due: dict[str, int] = {}
        self._restart_log: list[dict] = []
        #: callables invoked as hook(deployment) after every step —
        #: the recovery benchmark's RF-restore sampler plugs in here.
        self.step_hooks: list = []

    # -- orchestration ------------------------------------------------------

    @property
    def alive_nodes(self) -> list[str]:
        return [n for n in sorted(self.nodes) if self.nodes[n].alive]

    @property
    def serving_nodes(self) -> list[str]:
        return [n for n in sorted(self.nodes) if self.nodes[n].alive
                and self.nodes[n].core.state == "serving"]

    def kill(self, node_id: str) -> None:
        """Fail-stop one node mid-run (the acceptance scenario)."""
        node = self.nodes[node_id]
        if node.alive:
            node.crash(self.now, reason="killed")
            self.kills.inc()

    def restart(self, node_id: str) -> ClusterNode:
        """Boot a dead node's replacement from its surviving disk image.

        The physical story: snapshot the platter, unplug the machine,
        cable in a replacement that *mounts* the image (no mkfs), and
        start the service in recovery mode — it will fsck, replay its
        snapshot+WAL, and rejoin via the join/pull protocol before it
        serves a single request."""
        old = self.nodes[node_id]
        if old.alive:
            raise ValueError(f"{node_id} is alive; kill it first")
        old_kernel = self.kernels[node_id]
        image = old_kernel.disk.snapshot()
        self.cluster.remove(old_kernel)

        kernel = Kernel(num_cores=1, memory_bytes=4 * MB,
                        disk_sectors=256, ip=self._members[node_id],
                        hostname=node_id, disk_image=image)
        self.cluster.add(kernel)
        self.kernels[node_id] = kernel
        for other_id in sorted(self.kernels):
            if other_id != node_id:
                self.cluster.connect(kernel, self.kernels[other_id])
        self.cluster.connect(kernel, self._gateway_kernel)
        kernel.nic.ring_size = NIC_RING_FRAMES

        node = ClusterNode(node_id, kernel, self._members, rf=self.rf,
                           vnodes=self._vnodes, capacity=self._capacity,
                           fault_plan=self.fault_plan,
                           registry=self.registry, seed=self.seed,
                           recover=True, now=self.now,
                           compact_every=self._compact_every)
        self.nodes[node_id] = node
        self.restarts.inc()
        self._restart_log.append({"node": node_id, "at": self.now})
        self._emit("cluster.restart", node=node_id,
                   fsck_issues=len(node.fsck_issues),
                   replayed=node.replayed_records,
                   keys=node.recovered_keys)
        return node

    def recovery_info(self) -> list[dict]:
        """Per-restart recovery facts (for reports and the benchmark)."""
        info = []
        for entry in self._restart_log:
            node = self.nodes[entry["node"]]
            rec = {"node": entry["node"], "restarted_at": entry["at"],
                   "fsck_issues": len(node.fsck_issues),
                   "replayed_records": node.replayed_records,
                   "recovered_keys": node.recovered_keys,
                   "serving": node.alive and node.core.state == "serving",
                   "recovered_at": node.core.recovered_at}
            if rec["recovered_at"] is not None:
                rec["recovery_ticks"] = rec["recovered_at"] - entry["at"]
            info.append(rec)
        return info

    def partition(self, a: str, b: str) -> None:
        self.cluster.partition(self.kernels[a], self.kernels[b])
        self._emit("cluster.partition", a=a, b=b)
        self.partitions.inc()

    def heal(self, a: str, b: str) -> None:
        self.cluster.heal(self.kernels[a], self.kernels[b])
        self._emit("cluster.heal", a=a, b=b)

    def _emit(self, name: str, **fields) -> None:
        bus = obs.bus()
        if bus.active:
            bus.emit(name, t=self.now * TICK_NS, clock="sim", **fields)

    # -- the tick loop ------------------------------------------------------

    def step(self) -> None:
        """One deterministic round of simulated time (TICK_NS)."""
        self.now += 1
        self._auto_restarts()
        self._inject_link_faults()
        for link in self.cluster.links:
            link.pump()
        for kernel in self.cluster.kernels:
            kernel.net.poll()
        for node_id in sorted(self.nodes):
            self.nodes[node_id].on_tick(self.now)
        self.gateway.on_tick(self.now)
        for hook in self.step_hooks:
            hook(self)

    def run_ticks(self, ticks: int) -> None:
        for _ in range(ticks):
            self.step()

    def _auto_restarts(self) -> None:
        if self.auto_restart_delay is not None:
            for node_id in sorted(self.nodes):
                if (not self.nodes[node_id].alive
                        and node_id not in self._restart_due):
                    self._restart_due[node_id] = (self.now
                                                  + self.auto_restart_delay)
        due = sorted(n for n, t in self._restart_due.items()
                     if t <= self.now)
        for node_id in due:
            del self._restart_due[node_id]
            self.restart(node_id)

    def _inject_link_faults(self) -> None:
        if self._heals:
            due = [(t, link) for t, link in self._heals if t <= self.now]
            if due:
                self._heals = [(t, link) for t, link in self._heals
                               if t > self.now]
                for _, link in due:
                    link.heal()
                    self._emit("cluster.heal", links=1)
        if self.fault_plan is None:
            return
        for link in self.cluster.links:
            decision = self.fault_plan.draw("cluster.link")
            if (decision is not None and decision.kind == "partition"
                    and not link.partitioned):
                link.partition()
                duration = 1 + decision.rand_below(PARTITION_MAX_TICKS)
                self._heals.append((self.now + duration, link))
                self.partitions.inc()
                self._emit("cluster.partition", ticks=duration)
