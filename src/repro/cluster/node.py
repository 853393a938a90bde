"""One storage node of the sharded, replicated KV service.

A node is a *user-space service the verified OS carries*: it talks UDP
through its kernel's :class:`~repro.nros.net.stack.NetStack`, its
local state is a :class:`~repro.nr.core.NodeReplicated` ``KvStore`` —
the NR structure whose linearizability the proof layer checks — and
(since the crash-restart work) every applied write is made durable
through a :class:`~repro.cluster.wal.NodeWal` on the node's own
verified filesystem before anything that depends on it leaves the
node, so the paper's claim ("the application is correct
because the OS's verified services carry it") is literal end to end:
every byte this service stores moves through the verified net stack,
the verified replication protocol, and the crash-ordered filesystem.

Cluster-level replication lives *above* that boundary (see DESIGN.md):

* **placement** — a :class:`~repro.cluster.ring.HashRing` maps each key
  to `rf` distinct nodes, primary first;
* **writes** — the primary applies locally, forwards to every live
  replica (each of which applies and confirms), and acknowledges the
  client only once all of them confirmed.  Each node logs an inbox
  pass's records to its WAL in one write and holds every datagram the
  pass sends after its first record until that write returns, so no
  forward, confirmation or ack leaves before its record is on the
  platter; if the ring
  currently holds fewer than `rf` nodes the primary refuses the write
  with the typed retryable ``degraded`` error instead of acking thin;
* **reads** — served by the primary only, which (with primary-forwarded
  writes) gives read-your-writes per client session;
* **membership** — all-to-all heartbeats (periods jittered per seed so
  retry storms cannot synchronize) with a fixed-timeout failure
  detector, and a three-way state per peer: *serving* (in the ring),
  *recovering* (announced itself restarting — out of the ring, but
  streamed catch-up data), or *dead* (silent past the timeout);
* **crash-restart** — a restarted node remounts its disk, runs fsck,
  replays snapshot+WAL to rebuild the shard, then rejoins: a
  ``join``/``join-ack`` epoch handshake, a ``pull`` of every entry it
  will own from each live peer (version-guarded, idempotent), and only
  after every transfer's ``pull-done`` does it start serving — so a
  rejoining node can never answer a read with pre-crash state;
* **versions** — writes are stamped with per-key monotonically
  increasing versions in the issuing node's residue class
  (``version % N == node_index``), so two nodes can never mint the
  same version and last-writer-wins stays unambiguous even when a
  replayed WAL resurrects a write that was never acknowledged.

Timing is in integer scheduler ticks (:data:`~repro.cluster.messages`
constants); everything is deterministic under a seed.
"""

from __future__ import annotations

import random
from collections import deque

from repro import obs
from repro.cluster import messages as msg
from repro.cluster.ring import HashRing
from repro.cluster.wal import COMPACT_EVERY, VOLUME_FULL, NodeWal
from repro.hw.devices.disk import DiskCrash
from repro.nr.core import NodeReplicated
from repro.nr.datastructures import KvStore
from repro.nros.fs import fd as fdmod
from repro.nros.fs.fsck import fsck

#: UDP port every node serves on.
SERVICE_PORT = 7000
#: Simulated nanoseconds per deployment tick.
TICK_NS = 1_000
#: Heartbeat period and failure-detector timeout, in ticks.
HB_EVERY = 20
HB_TIMEOUT = 80
#: Seeded jitter added to each heartbeat period (desynchronizes nodes).
HB_JITTER = 5
#: Primary retransmits unacknowledged replica forwards this often...
REPL_RETRY = 40
#: ...plus a seeded jitter so retransmit storms cannot phase-lock.
REPL_JITTER = 13
#: Re-replication entries pushed per tick after a membership change.
SYNC_BATCH = 16
#: Upper bound (ticks) on an injected replica-lag delay.
LAG_MAX_TICKS = 60
#: A rejoining node re-sends its join/pull requests this often, and
#: gives up waiting for silent peers after the window below.
JOIN_RETRY = 20
JOIN_WINDOW = 80
PULL_RETRY = 200

#: Message kinds that consume service capacity (the data plane); the
#: control plane (heartbeats, acks, membership traffic) is served free.
_DATA_KINDS = ("put", "get", "del", "repl", "sync")


class ClusterNode:
    """One node: KV shard server, WAL, replica peer, failure detector."""

    def __init__(self, node_id: str, kernel, members: dict[str, int],
                 rf: int = 2, vnodes: int = 64, capacity: int = 4,
                 nr_nodes: int = 1, fault_plan=None, registry=None,
                 seed: int = 1, recover: bool = False, now: int = 0,
                 compact_every: int = COMPACT_EVERY) -> None:
        if kernel.net is None:
            raise ValueError(f"kernel {kernel.hostname!r} has no network")
        if rf <= 0 or rf > len(members):
            raise ValueError(f"replication factor {rf} needs "
                             f"1..{len(members)} nodes")
        self.node_id = node_id
        self.kernel = kernel
        self.stack = kernel.net
        self.sock = self.stack.udp_bind(SERVICE_PORT)
        self.members = dict(members)          # id -> ip, bootstrap set
        self.rf = rf
        self.capacity = capacity
        self.store = NodeReplicated(KvStore, num_nodes=nr_nodes)
        self.fault_plan = fault_plan
        self.registry = registry if registry is not None else obs.registry()
        self.seed = seed
        self._rng = random.Random(f"cluster/{seed}/{node_id}")

        # version residue class: versions this node mints are ≡ its
        # index mod the bootstrap member count, so no two nodes can
        # ever issue the same version for a key
        ids = sorted(members)
        self._vslot = ids.index(node_id)
        self._vmod = len(ids)

        self.alive = True
        self.epoch = 0
        self.state = "serving"
        self.last_seen = {peer: now for peer in ids}
        self._hb_due = now
        self._next_version: dict[str, int] = {}
        #: req id -> in-flight primary write awaiting replica acks.
        self.pending: dict[int, dict] = {}
        self._sync_queue: deque = deque()     # (target id, key, val, ver)
        self._catchup_queue: deque = deque()  # + (target, None, req, 0)
        self._lagged: list[tuple[int, int, dict]] = []  # (due, ip, msg)
        #: this inbox pass's WAL records, and the datagrams held behind
        #: them — (ip, port, payload) sent after the pass's first record
        self._batch: list[tuple] = []
        self._outbox: list[tuple[int, int, bytes]] = []

        # peers announced as restarting: out of the ring, streamed data
        self._recovering_peers: set[str] = set()
        self._catchup_rings: dict[str, HashRing] = {}

        # rejoin-protocol state (used only while self.state=="recovering")
        self._next_req = 1
        self._recover_started = now
        self._recover_phase: str | None = None
        self._last_join = now - JOIN_RETRY
        self._join_acked: set[str] = set()
        self._pull_targets: set[str] = set()
        self._pull_done_from: set[str] = set()
        self._pull_reqs: dict[str, int] = {}
        self._pull_sent: dict[str, int] = {}

        # mount (or remount) the durable log through the file API
        self.fdtable = fdmod.FdTable(kernel.fs)
        self.fsck_issues: list[str] = []
        self.recovered_at: int | None = now if not recover else None
        if recover:
            self.state = "recovering"
            self._recover_phase = "join"
            self.fsck_issues = fsck(kernel.fs)
            self.peer_alive = {peer: peer == node_id for peer in ids}
            self.ring = HashRing([node_id], vnodes=vnodes)
        else:
            self.peer_alive = {peer: True for peer in ids}
            self.ring = HashRing(ids, vnodes=vnodes)
        self.wal, self.wal_recovery = NodeWal.open(
            self.fdtable, compact_every=compact_every)
        self.replayed_records = self.wal_recovery.replayed_records
        self.recovered_keys = len(self.wal_recovery.entries)
        for key in sorted(self.wal_recovery.entries):
            value, version = self.wal_recovery.entries[key]
            self.store.execute(("put", key, (value, version)))
            self._next_version[key] = version

        self._served = {kind: self.registry.counter(
            "cluster.served", node=node_id, op=kind)
            for kind in _DATA_KINDS}
        self._redirects = self.registry.counter("cluster.redirects",
                                                node=node_id)
        self._failovers = self.registry.counter("cluster.failovers",
                                                node=node_id)
        self._synced = self.registry.counter("cluster.sync_entries",
                                             node=node_id)
        self._degraded_writes = self.registry.counter(
            "cluster.degraded_writes", node=node_id)
        self._recovering_rejects = self.registry.counter(
            "cluster.recovering_rejects", node=node_id)
        self._backlog = self.registry.gauge("cluster.backlog", node=node_id)
        self._compact_seconds = self.registry.histogram(
            "cluster.wal.compact_seconds", node=node_id)
        self._snapshot_bytes = self.registry.counter(
            "cluster.wal.snapshot_bytes", node=node_id)
        #: records per WAL write (one sample per pass that logged any)
        self._batch_records = self.registry.histogram(
            "cluster.wal.batch_records", node=node_id)
        self._compact_failed = self.registry.counter(
            "cluster.wal_compact_failed", node=node_id)
        if recover:
            self._emit("cluster.recovering", now, epoch=self.epoch,
                       fsck_issues=len(self.fsck_issues),
                       replayed=self.replayed_records,
                       keys=self.recovered_keys)

    # -- storage (the NR-carried KV shard, behind the WAL) ------------------

    def _lookup(self, key: str):
        """The stored ``(value, version)`` pair, or None."""
        return self.store.execute_ro(("get", key))

    def _apply(self, key: str, value, version: int) -> bool:
        """Version-guarded last-writer-wins apply; True if it landed.

        The record joins this pass's WAL batch.  Durability rule:
        nothing a pass sends leaves before the pass's records are on
        the platter (:meth:`_commit`).  The in-memory store is updated
        at once, so later messages of the pass see the write; a node
        that dies before the batch is logged loses that store with it,
        and nothing that saw the write was sent."""
        current = self._lookup(key)
        if current is not None and current[1] >= version:
            return False
        self._batch.append((key, value, version))
        self.store.execute(("put", key, (value, version)))
        if version > self._next_version.get(key, 0):
            self._next_version[key] = version
        return True

    def _assign_version(self, key: str) -> int:
        """The next version in this node's residue class, above both the
        stored version and anything this node already promised."""
        stored = self._lookup(key)
        floor = max(self._next_version.get(key, 0),
                    stored[1] if stored is not None else 0)
        version = floor + 1
        version += (self._vslot - version) % self._vmod
        self._next_version[key] = version
        return version

    def local_data(self) -> dict:
        """A quiesced snapshot of this node's shard (key -> (val, ver))."""
        self.store.sync_all()
        return dict(self.store.replicas[0].ds.data)

    # -- wire helpers -------------------------------------------------------

    def _send(self, dst_ip: int, dst_port: int, message: dict) -> None:
        """Send now — or, once this pass has a WAL record, hold the
        datagram in the outbox until :meth:`_commit` logs the batch."""
        payload = msg.encode(message)
        if self._batch:
            self._outbox.append((dst_ip, dst_port, payload))
        else:
            self.stack.udp_send(SERVICE_PORT, dst_ip, dst_port, payload)

    def _send_peer(self, peer: str, message: dict) -> None:
        self._send(self.members[peer], SERVICE_PORT, message)

    def _respond(self, client, message: dict) -> None:
        src_ip, src_port = client
        self._send(src_ip, src_port, message)

    def _emit(self, name: str, now: int, **fields) -> None:
        bus = obs.bus()
        if bus.active:
            bus.emit(name, t=now * TICK_NS, clock="sim",
                     node=self.node_id, **fields)

    # -- the per-tick service loop ------------------------------------------

    def on_tick(self, now: int) -> None:
        if not self.alive:
            return
        self._heartbeat(now)
        self._detect_failures(now)
        self._release_lagged(now)
        if not self._process_inbox(now):
            return  # crashed mid-inbox
        if self.state == "recovering":
            self._recover_tick(now)
        else:
            self._retry_pending(now)
        try:
            if self.wal.should_compact():
                self._compact()
        except DiskCrash:
            self.crash(now, reason="disk-crash")
            return
        self._drain_queues(now)
        self._backlog.set(len(self.sock.recv_queue))

    def _compact(self) -> None:
        """One WAL compaction, as a ``cluster.wal.compact`` trace span.
        A volume too full for the snapshot is not fatal — generation
        ``g`` keeps serving and the WAL retries after another
        `compact_every` appends; only a failing *append* stops the
        node."""
        with obs.Span("cluster.wal.compact",
                      histogram=self._compact_seconds, bus=obs.bus(),
                      node=self.node_id):
            try:
                self._snapshot_bytes.inc(
                    self.wal.compact(self.local_data()))
            except VOLUME_FULL:
                self._compact_failed.inc()

    def _heartbeat(self, now: int) -> None:
        if now < self._hb_due:
            return
        self._hb_due = now + HB_EVERY + self._rng.randrange(HB_JITTER)
        for peer in sorted(self.members):
            if peer != self.node_id:
                self._send_peer(peer, {"kind": "hb", "from": self.node_id,
                                       "epoch": self.epoch,
                                       "state": self.state})

    def _detect_failures(self, now: int) -> None:
        for peer in sorted(self.members):
            if peer == self.node_id or not self.peer_alive[peer]:
                continue
            if now - self.last_seen[peer] > HB_TIMEOUT:
                self._membership_change(peer, alive=False, now=now)
        # a recovering peer that went silent died mid-recovery: drop its
        # catch-up stream until it announces itself again
        for peer in sorted(self._recovering_peers):
            if now - self.last_seen[peer] > HB_TIMEOUT:
                self._recovering_peers.discard(peer)
                self._catchup_rings.pop(peer, None)
                self._catchup_queue = deque(
                    entry for entry in self._catchup_queue
                    if entry[0] != peer)

    def _release_lagged(self, now: int) -> None:
        due = [entry for entry in self._lagged if entry[0] <= now]
        if due:
            self._lagged = [e for e in self._lagged if e[0] > now]
            for _, dst_ip, message in due:
                self._send(dst_ip, SERVICE_PORT, message)

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
                message = msg.decode(payload)
            except msg.ClusterMsgError:
                continue
            kind = message.get("kind")
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
            self._handle(message, (src_ip, src_port), now)
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
        batch, held = self._batch, self._outbox
        if not batch:
            return True
        self._batch, self._outbox = [], []
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

    def crash(self, now: int, reason: str = "killed") -> None:
        """Fail-stop: the node goes silent (the failure mode the
        heartbeat detector, replication, and restart path are built
        for).  Its disk image survives for the restarted incarnation."""
        self.alive = False
        self._emit("cluster.kill", now, reason=reason, epoch=self.epoch)

    # -- message handling ---------------------------------------------------

    def _handle(self, message: dict, client, now: int) -> None:
        kind = message["kind"]
        if kind == "hb":
            self._on_heartbeat(message, now)
        elif kind in ("put", "del"):
            self._on_write(message, client, now)
        elif kind == "get":
            self._on_read(message, client)
        elif kind == "ring":
            self._on_ring(message, client)
        elif kind == "repl":
            self._on_repl(message, client)
        elif kind == "repl-ack":
            self._on_repl_ack(message, now)
        elif kind == "sync":
            self._on_sync(message, client)
        elif kind == "join":
            self._on_join(message, now)
        elif kind == "join-ack":
            self._on_join_ack(message, now)
        elif kind == "pull":
            self._on_pull(message, now)
        elif kind == "pull-done":
            self._on_pull_done(message)
        # sync-ack needs no action: sync is version-guarded + idempotent

    def _on_heartbeat(self, message: dict, now: int) -> None:
        peer = message.get("from")
        if peer not in self.last_seen or peer == self.node_id:
            return
        self.last_seen[peer] = now
        if message.get("state", "serving") == "recovering":
            if self.peer_alive[peer]:
                # it restarted before our detector fired: it is not a
                # ring member while it replays (dead ≠ recovering)
                self._membership_change(peer, alive=False, now=now)
            if peer not in self._recovering_peers:
                self._recovering_peers.add(peer)
                self._refresh_catchup()
        else:
            if peer in self._recovering_peers:
                self._recovering_peers.discard(peer)
                self._catchup_rings.pop(peer, None)
            if not self.peer_alive[peer]:
                self._membership_change(peer, alive=True, now=now)

    def _reject_not_serving(self, message: dict, client) -> bool:
        """While recovering, data requests get the typed retryable
        ``recovering`` error — never pre-crash (possibly stale) state."""
        if self.state == "serving":
            return False
        self._recovering_rejects.inc()
        self._respond(client, {"kind": "resp", "req": message["req"],
                               "ok": False, "err": msg.ERR_RECOVERING})
        return True

    def _on_write(self, message: dict, client, now: int) -> None:
        if self._reject_not_serving(message, client):
            return
        key = message["key"]
        value = message.get("value") if message["kind"] == "put" else None
        owners = self.ring.owners(key, self.rf)
        if owners[0] != self.node_id:
            self._redirect(message, client, owners[0])
            return
        if len(owners) < self.rf:
            # quorum-aware degraded mode: fewer live nodes than the
            # replica group needs — refuse rather than ack thin
            self._degraded_writes.inc()
            self._respond(client, {"kind": "resp", "req": message["req"],
                                   "ok": False, "err": msg.ERR_DEGRADED})
            return
        version = self._assign_version(key)
        self._apply(key, value, version)
        self._stream_to_recovering(key, value, version)
        waiting = {peer for peer in owners[1:] if self.peer_alive[peer]}
        if not waiting:
            self._respond(client, {"kind": "resp", "req": message["req"],
                                   "ok": True, "version": version})
            return
        self.pending[message["req"]] = {
            "client": client, "key": key, "value": value,
            "version": version, "waiting": waiting,
            "retry_at": now + REPL_RETRY + self._rng.randrange(REPL_JITTER),
        }
        for peer in sorted(waiting):
            self._send_repl(peer, message["req"], key, value, version, now)

    def _send_repl(self, peer: str, req: int, key: str, value,
                   version: int, now: int) -> None:
        forward = {"kind": "repl", "req": req, "from": self.node_id,
                   "key": key, "value": value, "version": version}
        if self.fault_plan is not None:
            decision = self.fault_plan.draw("cluster.repl")
            if decision is not None and decision.kind == "lag":
                due = now + 1 + decision.rand_below(LAG_MAX_TICKS)
                self._lagged.append((due, self.members[peer], forward))
                return
        self._send_peer(peer, forward)

    def _on_repl(self, message: dict, client) -> None:
        self._apply(message["key"], message.get("value"),
                    message["version"])
        self._respond(client, {"kind": "repl-ack", "req": message["req"],
                               "from": self.node_id})

    def _on_repl_ack(self, message: dict, now: int) -> None:
        entry = self.pending.get(message["req"])
        if entry is None:
            return
        entry["waiting"].discard(message.get("from"))
        self._complete_ready_writes(now)

    def _complete_ready_writes(self, now: int) -> None:
        for req in sorted(self.pending):
            entry = self.pending[req]
            if entry["waiting"]:
                continue
            del self.pending[req]
            self._respond(entry["client"],
                          {"kind": "resp", "req": req, "ok": True,
                           "version": entry["version"]})

    def _retry_pending(self, now: int) -> None:
        for req in sorted(self.pending):
            entry = self.pending[req]
            if now < entry["retry_at"]:
                continue
            entry["retry_at"] = (now + REPL_RETRY
                                 + self._rng.randrange(REPL_JITTER))
            for peer in sorted(entry["waiting"]):
                self._send_repl(peer, req, entry["key"], entry["value"],
                                entry["version"], now)

    def _on_read(self, message: dict, client) -> None:
        if self._reject_not_serving(message, client):
            return
        key = message["key"]
        owners = self.ring.owners(key, self.rf)
        if owners[0] != self.node_id:
            self._redirect(message, client, owners[0])
            return
        stored = self._lookup(key)
        value, version = (stored if stored is not None else (None, 0))
        self._respond(client, {"kind": "resp", "req": message["req"],
                               "ok": True, "value": value,
                               "version": version})

    def _redirect(self, message: dict, client, leader: str) -> None:
        self._redirects.inc()
        self._respond(client, {
            "kind": "resp", "req": message["req"], "ok": False,
            "err": msg.ERR_NOT_PRIMARY,
            "leader": self.members.get(leader),
        })

    def _on_ring(self, message: dict, client) -> None:
        if self.state != "serving":
            return  # a cold membership view would mislead the gateway
        alive = [[peer, self.members[peer]]
                 for peer in sorted(self.members)
                 if self.peer_alive[peer]]
        self._respond(client, {"kind": "ring-resp", "req": message["req"],
                               "members": alive, "epoch": self.epoch})

    def _on_sync(self, message: dict, client) -> None:
        applied = 0
        for key, value, version in message.get("entries", []):
            if self._apply(key, value, version):
                applied += 1
        self._synced.inc(applied)
        self._respond(client, {"kind": "sync-ack", "req": message["req"],
                               "from": self.node_id, "applied": applied})

    # -- the rejoin protocol ------------------------------------------------

    def _on_join(self, message: dict, now: int) -> None:
        peer = message.get("from")
        if peer not in self.members or peer == self.node_id:
            return
        self.last_seen[peer] = now
        if self.state != "serving":
            return  # a recovering node cannot vouch for anything
        if self.peer_alive[peer]:
            self._membership_change(peer, alive=False, now=now)
        if peer not in self._recovering_peers:
            self._recovering_peers.add(peer)
            self._refresh_catchup()
        self._send_peer(peer, {"kind": "join-ack", "from": self.node_id,
                               "epoch": self.epoch})
        self._emit("cluster.join", now, peer=peer, epoch=self.epoch)

    def _on_join_ack(self, message: dict, now: int) -> None:
        if self.state != "recovering":
            return
        peer = message.get("from")
        if peer not in self.members or peer == self.node_id:
            return
        self.last_seen[peer] = now
        # the epoch catch-up half of the handshake
        self.epoch = max(self.epoch, message.get("epoch", 0))
        self._join_acked.add(peer)
        if not self.peer_alive[peer]:
            self._membership_change(peer, alive=True, now=now)

    def _on_pull(self, message: dict, now: int) -> None:
        peer = message.get("from")
        if peer not in self.members or peer == self.node_id:
            return
        self.last_seen[peer] = now
        if self.state != "serving":
            return
        if self.peer_alive[peer]:
            self._membership_change(peer, alive=False, now=now)
        if peer not in self._recovering_peers:
            self._recovering_peers.add(peer)
            self._refresh_catchup()
        queued = self._queue_catchup(peer)
        # the end-of-transfer marker rides the same FIFO, so it reaches
        # the rejoiner only after every entry queued above
        self._catchup_queue.append((peer, None, message.get("req", 0), 0))
        self._emit("cluster.pull", now, peer=peer, entries=queued,
                   epoch=self.epoch)

    def _on_pull_done(self, message: dict) -> None:
        if self.state != "recovering":
            return
        peer = message.get("from")
        if peer is not None and message.get("req") == self._pull_reqs.get(peer):
            self._pull_done_from.add(peer)

    def _recover_tick(self, now: int) -> None:
        others = [p for p in sorted(self.members) if p != self.node_id]
        if self._recover_phase == "join":
            if now - self._last_join >= JOIN_RETRY:
                self._last_join = now
                for peer in others:
                    if peer not in self._join_acked:
                        self._send_peer(peer, {"kind": "join",
                                               "from": self.node_id,
                                               "epoch": self.epoch})
            waited = now - self._recover_started
            complete = all(peer in self._join_acked for peer in others)
            if complete or (waited >= JOIN_WINDOW and self._join_acked) \
                    or waited >= 2 * JOIN_WINDOW:
                # nobody answered after two windows: sole survivor —
                # serve the replayed state rather than wait forever
                self._pull_targets = set(self._join_acked)
                self._recover_phase = "pull"
                if not self._pull_targets:
                    self._finish_recovery(now)
                    return
                for peer in sorted(self._pull_targets):
                    self._send_pull(peer, now)
            return
        for peer in sorted(self._pull_targets - self._pull_done_from):
            if now - self.last_seen[peer] > HB_TIMEOUT:
                self._pull_targets.discard(peer)   # died mid-transfer
            elif now - self._pull_sent[peer] >= PULL_RETRY:
                self._send_pull(peer, now)
        if self._pull_targets <= self._pull_done_from:
            self._finish_recovery(now)

    def _send_pull(self, peer: str, now: int) -> None:
        req = self._next_req
        self._next_req += 1
        self._pull_reqs[peer] = req
        self._pull_sent[peer] = now
        self._send_peer(peer, {"kind": "pull", "req": req,
                               "from": self.node_id, "epoch": self.epoch})

    def _finish_recovery(self, now: int) -> None:
        self.state = "serving"
        self.recovered_at = now
        self.epoch += 1
        self._recover_phase = None
        self._hb_due = now  # announce "serving" on the very next tick
        self._emit("cluster.recovered", now, epoch=self.epoch,
                   keys=self.recovered_keys,
                   replayed=self.replayed_records,
                   fsck_issues=len(self.fsck_issues),
                   ticks=now - self._recover_started)
        self._schedule_sync(now)

    # -- membership, failover, re-replication -------------------------------

    def _membership_change(self, peer: str, alive: bool, now: int) -> None:
        self.peer_alive[peer] = alive
        self.epoch += 1
        if alive:
            self.last_seen[peer] = now
            if peer not in self.ring:
                self.ring.add_node(peer)
        elif peer in self.ring:
            self.ring.remove_node(peer)
        self._emit("cluster.member", now, peer=peer,
                   state="alive" if alive else "dead", epoch=self.epoch)
        if not alive:
            self._failovers.inc()
            self._emit("cluster.failover", now, dead=peer,
                       epoch=self.epoch)
            # a dead replica can never ack: release writes it was gating
            for entry in self.pending.values():
                entry["waiting"].discard(peer)
            self._complete_ready_writes(now)
        self._refresh_catchup()
        if self.state == "serving":
            self._schedule_sync(now)
            for other in sorted(self._recovering_peers):
                self._queue_catchup(other)

    def _refresh_catchup(self) -> None:
        """Rebuild each recovering peer's target ring: the live members
        plus that peer — the ring everyone converges to when it serves."""
        alive = {p for p in sorted(self.members) if self.peer_alive[p]}
        for peer in sorted(self._recovering_peers):
            self._catchup_rings[peer] = HashRing(
                sorted(alive | {peer}), vnodes=self.ring.vnodes)

    def _queue_catchup(self, peer: str) -> int:
        """Queue every entry `peer` will own once it serves, taken from
        the keys this node is currently primary for (each live node is
        pulled, so together the primaries cover the whole ring)."""
        ring2 = self._catchup_rings[peer]
        data = self.local_data()
        queued = 0
        for key in sorted(data):
            owners = self.ring.owners(key, self.rf)
            if not owners or owners[0] != self.node_id:
                continue
            if peer not in ring2.owners(key, self.rf):
                continue
            value, version = data[key]
            self._catchup_queue.append((peer, key, value, version))
            queued += 1
        return queued

    def _stream_to_recovering(self, key: str, value, version: int) -> None:
        """Forward a freshly applied primary write to any recovering
        peer that will own it — closing the gap between its pull and
        the moment it starts serving (read-your-writes across rejoin)."""
        for peer in sorted(self._recovering_peers):
            ring2 = self._catchup_rings.get(peer)
            if ring2 is not None and peer in ring2.owners(key, self.rf):
                self._send_peer(peer, {"kind": "sync", "req": 0,
                                       "from": self.node_id,
                                       "entries": [[key, value, version]]})

    def _schedule_sync(self, now: int) -> None:
        """Queue version-guarded pushes of every key this node is now
        primary for, to the group members that may lack it."""
        self._sync_queue.clear()
        queued = 0
        data = self.local_data()
        for key in sorted(data):
            owners = self.ring.owners(key, self.rf)
            if not owners or owners[0] != self.node_id:
                continue
            value, version = data[key]
            for peer in owners[1:]:
                if self.peer_alive[peer]:
                    self._sync_queue.append((peer, key, value, version))
                    queued += 1
        if queued:
            self._emit("cluster.sync", now, entries=queued,
                       epoch=self.epoch)

    def _drain_queues(self, now: int) -> None:
        """Send up to SYNC_BATCH queued entries, catch-up stream first
        (a rejoiner's time-to-serving is the recovery metric)."""
        budget = SYNC_BATCH
        batches: dict[str, list] = {}
        markers: list[tuple[str, int]] = []
        while budget and self._catchup_queue:
            peer, key, value, version = self._catchup_queue.popleft()
            if key is None:
                markers.append((peer, value))  # (peer, pull req id)
                continue
            batches.setdefault(peer, []).append([key, value, version])
            budget -= 1
        while budget and self._sync_queue:
            peer, key, value, version = self._sync_queue.popleft()
            batches.setdefault(peer, []).append([key, value, version])
            budget -= 1
        for peer in sorted(batches):
            if self.peer_alive[peer] or peer in self._recovering_peers:
                self._send_peer(peer, {"kind": "sync", "req": 0,
                                       "from": self.node_id,
                                       "entries": batches[peer]})
        for peer, req in markers:
            if peer in self._recovering_peers:
                self._send_peer(peer, {"kind": "pull-done", "req": req,
                                       "from": self.node_id})
