"""One storage node of the sharded, replicated KV service: the I/O shell.

The node's protocol is :class:`~repro.cluster.core.NodeCore`, which does
no I/O.  :class:`ClusterNode` does it: UDP through its kernel's
:class:`~repro.nros.net.stack.NetStack`, and a
:class:`~repro.cluster.wal.NodeWal` on the node's own verified
filesystem.  Per tick it runs the core's timer steps and one *inbox
pass*: decode and check each datagram, spend capacity, draw the
``cluster.node.*`` crash and ``cluster.repl`` lag faults, and send the
core's messages — except those after the pass's first WAL record, which
wait until :meth:`ClusterNode._commit` has logged the pass in one write.
"""

from __future__ import annotations

from repro import obs
from repro.cluster import messages as msg
from repro.cluster.core import SERVICE_PORT, NodeCore
from repro.cluster.wal import COMPACT_EVERY, VOLUME_FULL, NodeWal, WalRecovery
from repro.hw.devices.disk import DiskCrash
from repro.nros.fs import fd as fdmod
from repro.nros.fs.fsck import fsck

#: Simulated nanoseconds per deployment tick.
TICK_NS = 1_000
#: Upper bound (ticks) on an injected replica-lag delay.
LAG_MAX_TICKS = 60

#: Message kinds that consume service capacity (the data plane); the
#: control plane (heartbeats, acks, membership traffic) is served free.
_DATA_KINDS = ("put", "get", "del", "repl", "sync")


class ClusterNode:
    """One node: socket, WAL and fault sites around a :class:`NodeCore`."""

    def __init__(self, node_id: str, kernel, members: dict[str, int],
                 rf: int = 2, vnodes: int = 64, capacity: int = 4,
                 fault_plan=None, registry=None, seed: int = 1,
                 recover: bool = False, now: int = 0,
                 compact_every: int = COMPACT_EVERY) -> None:
        if kernel.net is None:
            raise ValueError(f"kernel {kernel.hostname!r} has no network")
        self.node_id = node_id
        self.kernel = kernel
        self.stack = kernel.net
        self.sock = self.stack.udp_bind(SERVICE_PORT)
        self.capacity = capacity
        self.fault_plan = fault_plan
        self.registry = registry if registry is not None else obs.registry()
        self.alive = True
        #: lagged replica forwards as (due tick, ip, port, payload), and
        #: the (ip, port, payload) held behind this pass's WAL records
        self._lagged: list[tuple[int, int, int, bytes]] = []
        self._outbox: list[tuple[int, int, bytes]] = []

        # mount (or remount) the durable log through the file API
        self.fdtable = fdmod.FdTable(kernel.fs)
        self.fsck_issues: list[str] = fsck(kernel.fs) if recover else []
        try:
            self.wal, recovery = NodeWal.open(self.fdtable,
                                              compact_every=compact_every)
        except VOLUME_FULL:
            # no room for the clean generation: a node that cannot log
            # cannot serve, so this incarnation fail-stops below
            self.wal, recovery = None, WalRecovery()
        self.replayed_records = recovery.replayed_records
        self.recovered_keys = len(recovery.entries)
        replay = {"fsck_issues": len(self.fsck_issues),
                  "replayed": self.replayed_records,
                  "keys": self.recovered_keys}
        self.core = NodeCore(node_id, members, self.registry, rf=rf,
                             vnodes=vnodes, seed=seed, recover=recover,
                             now=now, entries=recovery.entries,
                             replay=replay, emit=self._emit)
        self.store = self.core.store

        counter = self.registry.counter
        self._served = {kind: counter("cluster.served", node=node_id,
                                      op=kind) for kind in _DATA_KINDS}
        #: datagrams dropped undecodable or failing `messages.check`
        self._bad_messages = counter("cluster.bad_messages", node=node_id)
        self._oversize = counter("cluster.oversize_drops", node=node_id)
        self._backlog = self.registry.gauge("cluster.backlog", node=node_id)
        self._compact_seconds = self.registry.histogram(
            "cluster.wal.compact_seconds", node=node_id)
        self._snapshot_bytes = counter("cluster.wal.snapshot_bytes",
                                       node=node_id)
        #: records per WAL write (one sample per pass that logged any)
        self._batch_records = self.registry.histogram(
            "cluster.wal.batch_records", node=node_id)
        self._compact_failed = counter("cluster.wal_compact_failed",
                                       node=node_id)
        if recover:
            self._emit("cluster.recovering", now, epoch=self.core.epoch,
                       **replay)
        if self.wal is None:
            self.crash(now, reason="volume-full")

    def _emit(self, name: str, now: int, **fields) -> None:
        bus = obs.bus()
        if bus.active:
            bus.emit(name, t=now * TICK_NS, clock="sim",
                     node=self.node_id, **fields)

    # -- the per-tick service loop ------------------------------------------

    def on_tick(self, now: int) -> None:
        if not self.alive:
            return
        core = self.core
        core.heartbeat(now)
        core.detect_failures(now)
        self._dispatch(now)
        self._release_lagged(now)
        if not self._process_inbox(now):
            return  # crashed mid-inbox
        if core.state == "recovering":
            core.recover_tick(now)
        else:
            core.retry_pending(now)
        self._dispatch(now)
        try:
            if self.wal.should_compact():
                self._compact()
        except DiskCrash:
            self.crash(now, reason="disk-crash")
            return
        core.drain_queues(now)
        self._dispatch(now)
        self._backlog.set(len(self.sock.recv_queue))

    def _dispatch(self, now: int) -> None:
        """Encode and send the core's output in order, but drop (and count)
        what UDP cannot carry, lag a ``repl`` the fault plan picks and
        hold what the core marked held."""
        out = self.core.out
        if not out:
            return
        self.core.out = []
        for (dst_ip, dst_port), message, held in out:
            payload = msg.encode(message)
            if len(payload) > msg.MAX_DATAGRAM:
                self._oversize.inc()   # outgrew UDP: dropped, not raised
                continue
            if self.fault_plan is not None and message["kind"] == "repl":
                decision = self.fault_plan.draw("cluster.repl")
                if decision is not None and decision.kind == "lag":
                    due = now + 1 + decision.rand_below(LAG_MAX_TICKS)
                    self._lagged.append((due, dst_ip, dst_port, payload))
                    continue
            if held:
                self._outbox.append((dst_ip, dst_port, payload))
            else:
                self.stack.udp_send(SERVICE_PORT, dst_ip, dst_port, payload)

    def _release_lagged(self, now: int) -> None:
        due = [entry for entry in self._lagged if entry[0] <= now]
        if due:
            self._lagged = [e for e in self._lagged if e[0] > now]
            for _, dst_ip, dst_port, payload in due:
                self.stack.udp_send(SERVICE_PORT, dst_ip, dst_port, payload)

    def _process_inbox(self, now: int) -> bool:
        """Serve queued datagrams as one pass; data-plane messages
        consume capacity (the queueing model behind the latency
        distributions).  The pass ends in :meth:`_commit`.  Returns
        False if the node died: the disk dying, or filling up, under
        the pass's WAL write, or an injected crash at a message
        boundary — which lands after the messages before it were
        committed, so each of those was served in full."""
        budget = self.capacity
        queue = self.sock.recv_queue
        injected = False
        while queue:
            src_ip, src_port, payload = queue.popleft()
            try:
                message = msg.check(msg.decode(payload))
            except msg.ClusterMsgError:
                self._bad_messages.inc()
                continue
            kind = message["kind"]
            if kind in _DATA_KINDS:
                if budget == 0:
                    queue.appendleft((src_ip, src_port, payload))
                    break
                budget -= 1
                if self.fault_plan is not None:
                    decision = self.fault_plan.draw(
                        f"cluster.node.{self.node_id}")
                    if decision is not None and decision.kind == "crash":
                        injected = True
                        break
                self._served[kind].inc()
            self.core.on_message(message, (src_ip, src_port), now)
            self._dispatch(now)
        if not self._commit(now):
            return False
        if injected:
            self.crash(now, reason="injected")
        return not injected

    def _commit(self, now: int) -> bool:
        """Log the pass's records with one WAL write, then release the
        datagrams held behind them, in order.  Returns False if the
        write failed: the node fail-stops and the outbox dies with it,
        so nothing that depended on the batch was ever sent."""
        batch, held = self.core.records, self._outbox
        if not batch:
            return True
        self.core.records, self._outbox = [], []
        try:
            self.wal.append(batch)
        except DiskCrash:
            self.crash(now, reason="disk-crash")
            return False
        except VOLUME_FULL:
            # no room to log: nothing of the batch was acknowledged,
            # and a node that cannot log cannot serve
            self.crash(now, reason="volume-full")
            return False
        self._batch_records.record(len(batch))
        for dst_ip, dst_port, payload in held:
            self.stack.udp_send(SERVICE_PORT, dst_ip, dst_port, payload)
        return True

    def _compact(self) -> None:
        """One WAL compaction, as a ``cluster.wal.compact`` trace span.
        A volume too full for the snapshot is not fatal: generation
        ``g`` keeps serving and the WAL retries `compact_every` appends
        later; only a failing *append* stops the node."""
        with obs.Span("cluster.wal.compact",
                      histogram=self._compact_seconds, bus=obs.bus(),
                      node=self.node_id):
            try:
                self._snapshot_bytes.inc(
                    self.wal.compact(self.core.local_data()))
            except VOLUME_FULL:
                self._compact_failed.inc()

    def crash(self, now: int, reason: str = "killed") -> None:
        """Fail-stop: the node goes silent (the failure mode the
        heartbeat detector, replication, and restart path are built
        for).  Its disk image survives for the restarted incarnation."""
        self.alive = False
        self._emit("cluster.kill", now, reason=reason, epoch=self.core.epoch)
