"""The protocol of one storage node, as a function of its inputs.

:class:`NodeCore` reads no socket, writes no disk, encodes no bytes and
draws no fault.  Each call appends to two lists the I/O shell
(:class:`~repro.cluster.node.ClusterNode`) drains: the pass's WAL
:attr:`~NodeCore.records`, and :attr:`~NodeCore.out`, the messages to
send in order, each marked if it came after the pass's first record.
:meth:`NodeCore.on_message` trusts :func:`~repro.cluster.messages.decode`:
every message it is handed carries every field of its kind, typed.

Replication lives *above* the verified kernel boundary (see DESIGN.md):

* **placement** — a :class:`~repro.cluster.ring.HashRing` maps each key
  to `rf` distinct nodes, primary first;
* **writes** — the primary applies locally, forwards to every live
  replica (each of which applies and confirms), and acknowledges the
  client only once all of them confirmed; no message sent after a
  record leaves before the record is logged.  If the ring holds fewer
  than `rf` nodes the primary refuses the write with the typed
  retryable ``degraded`` error instead of acking thin;
* **reads** — served by the primary only, which (with primary-forwarded
  writes) gives read-your-writes per client session;
* **membership** — all-to-all heartbeats (periods jittered per seed so
  retry storms cannot synchronize) with a fixed-timeout failure
  detector, and a three-way state per peer: *serving* (in the ring),
  *recovering* (announced itself restarting — out of the ring, but
  streamed catch-up data), or *dead* (silent past the timeout);
* **rejoin** — from its replayed WAL entries, a ``join``/``join-ack``
  epoch handshake, then a ``pull`` from each live peer; it serves only
  after every ``pull-done``, never a read from pre-crash state;
* **versions** — per-key monotonically increasing, in the issuing
  node's residue class (``version % N == node_index``), so no two nodes
  mint the same version and last-writer-wins stays unambiguous even
  when a replayed WAL resurrects a write that was never acknowledged.

Timing is in integer ticks; everything is deterministic under a seed.
"""

from __future__ import annotations

import random
from collections import deque

from repro.cluster import messages as msg
from repro.cluster.ring import HashRing
from repro.nr.core import NodeReplicated
from repro.nr.datastructures import KvStore

#: UDP port every node serves on.
SERVICE_PORT = 7000
#: Heartbeat period and failure-detector timeout, in ticks.
HB_EVERY = 20
HB_TIMEOUT = 80
#: Seeded jitter added to each heartbeat period (desynchronizes nodes).
HB_JITTER = 5
#: Primary retransmits unacknowledged replica forwards this often...
REPL_RETRY = 40
#: ...plus a seeded jitter so retransmit storms cannot phase-lock.
REPL_JITTER = 13
#: Re-replication entries pushed per tick after a membership change
#: (fewer if they would not fit one datagram).
SYNC_BATCH = 16
#: A rejoining node re-sends its join/pull requests this often, and
#: gives up waiting for silent peers after the window below.
JOIN_RETRY = 20
JOIN_WINDOW = 80
PULL_RETRY = 200


class NodeCore:
    """A node's protocol state, its KV shard, and its handlers."""

    def __init__(self, node_id: str, members: dict[str, int], registry,
                 rf: int = 2, vnodes: int = 64, seed: int = 1,
                 recover: bool = False, now: int = 0,
                 entries: dict | None = None, replay: dict | None = None,
                 emit=None) -> None:
        if len(node_id.encode()) > msg.MAX_NODE_ID:
            raise ValueError(f"node id {node_id!r} is longer than "
                             f"{msg.MAX_NODE_ID} bytes")
        if rf <= 0 or rf > len(members):
            raise ValueError(f"replication factor {rf} needs "
                             f"1..{len(members)} nodes")
        self.node_id = node_id
        self.members = dict(members)          # id -> ip, bootstrap set
        self.rf = rf
        self.store = NodeReplicated(KvStore, num_nodes=1)
        #: ``emit(name, now, **fields)``: a bus event, or nothing
        self.emit = emit or (lambda name, now, **fields: None)
        self._rng = random.Random(f"cluster/{seed}/{node_id}")
        #: bytes a ``sync`` from this node has for its entries
        self._sync_room = (msg.MAX_DATAGRAM - msg.fixed_size("sync")
                           - len(node_id.encode()))

        # version residue class: versions this node mints are ≡ its
        # index mod the bootstrap member count, so no two nodes can
        # ever issue the same version for a key
        ids = sorted(members)
        self._vslot = ids.index(node_id)
        self._vmod = len(ids)

        self.epoch = 0
        self.state = "recovering" if recover else "serving"
        self.recovered_at: int | None = None if recover else now
        self.last_seen = {peer: now for peer in ids}
        self.peer_alive = {peer: not recover or peer == node_id
                           for peer in ids}
        self.ring = HashRing([node_id] if recover else ids, vnodes=vnodes)
        self._hb_due = now
        self._next_version: dict[str, int] = {}
        #: req id -> in-flight primary write awaiting replica acks.
        self.pending: dict[int, dict] = {}
        self._sync_queue: deque = deque()     # (target id, key, val, ver)
        self._catchup_queue: deque = deque()  # + (target, None, req, 0)
        #: the output: this pass's WAL records, and every message to
        #: send as ((ip, port), message, sent after the pass's 1st record)
        self.records: list[tuple] = []
        self.out: list[tuple[tuple[int, int], dict, bool]] = []

        # peers announced as restarting: out of the ring, streamed data
        self._recovering_peers: set[str] = set()
        self._catchup_rings: dict[str, HashRing] = {}

        # rejoin-protocol state (used only while self.state=="recovering")
        self._next_req = 1
        self._recover_started = now
        self._recover_phase = "join" if recover else None
        self._last_join = now - JOIN_RETRY
        self._join_acked: set[str] = set()
        self._pull_targets: set[str] = set()
        self._pull_done_from: set[str] = set()
        self._pull_reqs: dict[str, int] = {}
        self._pull_sent: dict[str, int] = {}

        #: the shell's fsck and replay facts, for ``cluster.recovered``
        self._replay = replay or {}
        for key in sorted(entries or {}):
            value, version = entries[key]
            self.store.execute(("put", key, (value, version)))
            self._next_version[key] = version

        counter = registry.counter
        self._redirects = counter("cluster.redirects", node=node_id)
        self._failovers = counter("cluster.failovers", node=node_id)
        self._synced = counter("cluster.sync_entries", node=node_id)
        self._degraded_writes = counter("cluster.degraded_writes",
                                        node=node_id)
        self._recovering_rejects = counter("cluster.recovering_rejects",
                                           node=node_id)

    # -- the KV shard -------------------------------------------------------

    def lookup(self, key: str):
        """The stored ``(value, version)`` pair, or None."""
        return self.store.execute_ro(("get", key))

    def _apply(self, key: str, value, version: int) -> bool:
        """Version-guarded last-writer-wins apply; True if it landed.
        The record joins :attr:`records`, and every message sent after
        it is marked held.  The store is updated at once, so later
        messages of the pass see the write."""
        current = self.lookup(key)
        if current is not None and current[1] >= version:
            return False
        self.records.append((key, value, version))
        self.store.execute(("put", key, (value, version)))
        if version > self._next_version.get(key, 0):
            self._next_version[key] = version
        return True

    def _assign_version(self, key: str) -> int:
        """The next version in this node's residue class, above both the
        stored version and anything this node already promised."""
        stored = self.lookup(key)
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

    def _primary_entries(self):
        """``(key, value, version, owners)`` per key this node leads."""
        data = self.local_data()
        for key in sorted(data):
            owners = self.ring.owners(key, self.rf)
            if owners and owners[0] == self.node_id:
                value, version = data[key]
                yield key, value, version, owners

    # -- output -------------------------------------------------------------

    def _send(self, to, kind: str, **fields) -> None:
        """Queue a `kind` message for a peer id or a client's ``(ip,
        port)``; every message but a reply names this node as sender."""
        if type(to) is str:
            to = self.members[to], SERVICE_PORT
        fields["kind"] = kind
        if kind not in msg.REPLY_KINDS:
            fields["from"] = self.node_id
        self.out.append((to, fields, bool(self.records)))

    def _reply(self, client, req: int, ok: bool, err: str | None = None,
               leader: int | None = None, value: str | None = None,
               version: int = 0) -> None:
        """Queue a ``resp``: every field, those it does not set empty."""
        self._send(client, "resp", req=req, ok=ok, err=err, leader=leader,
                   value=value, version=version)

    # -- timer steps --------------------------------------------------------

    def heartbeat(self, now: int) -> None:
        if now < self._hb_due:
            return
        self._hb_due = now + HB_EVERY + self._rng.randrange(HB_JITTER)
        for peer in sorted(self.members):
            if peer != self.node_id:
                self._send(peer, "hb", epoch=self.epoch, state=self.state)

    def detect_failures(self, now: int) -> None:
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

    def retry_pending(self, now: int) -> None:
        for req in sorted(self.pending):
            entry = self.pending[req]
            if now < entry["retry_at"]:
                continue
            entry["retry_at"] = (now + REPL_RETRY
                                 + self._rng.randrange(REPL_JITTER))
            for peer in sorted(entry["waiting"]):
                self._send_repl(peer, req, entry)

    def recover_tick(self, now: int) -> None:
        others = [p for p in sorted(self.members) if p != self.node_id]
        if self._recover_phase == "join":
            if now - self._last_join >= JOIN_RETRY:
                self._last_join = now
                for peer in others:
                    if peer not in self._join_acked:
                        self._send(peer, "join", epoch=self.epoch)
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

    def drain_queues(self, now: int) -> None:
        """Send up to SYNC_BATCH queued entries, catch-up stream first
        (a rejoiner's time-to-serving is the recovery metric).  The
        drain stops at the first entry that would push its peer's batch
        past one datagram; it leads the next drain."""
        budget = SYNC_BATCH
        batches: dict[str, list] = {}
        room: dict[str, int] = {}
        markers: list[tuple[str, int]] = []
        for queue in (self._catchup_queue, self._sync_queue):
            while budget and queue:
                peer, key, value, version = queue[0]
                if key is None:
                    queue.popleft()
                    markers.append((peer, value))  # (peer, pull req id)
                    continue
                size = msg.entry_size(key, value)
                if peer in room and size > room[peer]:
                    budget = 0
                    break
                queue.popleft()
                room[peer] = room.get(peer, self._sync_room) - size
                batches.setdefault(peer, []).append((key, value, version))
                budget -= 1
        for peer in sorted(batches):
            if self.peer_alive[peer] or peer in self._recovering_peers:
                self._send(peer, "sync", req=0, entries=batches[peer])
        for peer, req in markers:
            if peer in self._recovering_peers:
                self._send(peer, "pull-done", req=req)

    # -- messages -----------------------------------------------------------

    def on_message(self, message: dict, client: tuple[int, int],
                   now: int) -> None:
        """Handle one checked message from ``client = (ip, port)``: the
        handler of kind ``k`` is ``_on_k`` (``-`` read as ``_``)."""
        handler = _HANDLERS.get(message["kind"])
        # sync-ack needs no action: sync is version-guarded + idempotent
        if handler is not None:
            handler(self, message, client, now)

    def _seen(self, message: dict, now: int) -> str | None:
        """The sender, noted alive at `now`; None for a stranger or self."""
        peer = message["from"]
        if peer not in self.members or peer == self.node_id:
            return None
        self.last_seen[peer] = now
        return peer

    def _peer_recovering(self, peer: str, now: int) -> None:
        """`peer` announced it is restarting: if it restarted before the
        detector fired it leaves the ring while it replays (dead ≠
        recovering), and it is streamed catch-up data from now on."""
        if self.peer_alive[peer]:
            self._membership_change(peer, alive=False, now=now)
        if peer not in self._recovering_peers:
            self._recovering_peers.add(peer)
            self._refresh_catchup()

    def _on_hb(self, message: dict, client, now: int) -> None:
        peer = self._seen(message, now)
        if peer is None:
            return
        if message["state"] == "recovering":
            self._peer_recovering(peer, now)
        else:
            self._recovering_peers.discard(peer)
            self._catchup_rings.pop(peer, None)
            if not self.peer_alive[peer]:
                self._membership_change(peer, alive=True, now=now)

    def _owners_if_primary(self, message: dict, client) -> list | None:
        """The key's owners if this node serves it as primary; else None,
        and the client gets the typed retryable ``recovering`` error
        (never pre-crash, possibly stale state) or a redirect."""
        if self.state != "serving":
            self._recovering_rejects.inc()
            self._reply(client, message["req"], False,
                        err=msg.ERR_RECOVERING)
            return None
        owners = self.ring.owners(message["key"], self.rf)
        if owners[0] != self.node_id:
            self._redirects.inc()
            self._reply(client, message["req"], False,
                        err=msg.ERR_NOT_PRIMARY,
                        leader=self.members.get(owners[0]))
            return None
        return owners

    def _on_put(self, message: dict, client, now: int) -> None:
        owners = self._owners_if_primary(message, client)
        if owners is None:
            return
        key = message["key"]
        value = message["value"] if message["kind"] == "put" else None
        if len(owners) < self.rf:
            # quorum-aware degraded mode: fewer live nodes than the
            # replica group needs — refuse rather than ack thin
            self._degraded_writes.inc()
            self._reply(client, message["req"], False, err=msg.ERR_DEGRADED)
            return
        version = self._assign_version(key)
        if version > msg.MAX_INT:
            # a peer's forward drove the key's version to the top of
            # its layout: no record or message could carry the next one
            self._reply(client, message["req"], False,
                        err=msg.ERR_VERSIONS_EXHAUSTED)
            return
        self._apply(key, value, version)
        self._stream_to_recovering(key, value, version)
        waiting = {peer for peer in owners[1:] if self.peer_alive[peer]}
        if not waiting:
            self._reply(client, message["req"], True, version=version)
            return
        entry = self.pending[message["req"]] = {
            "client": client, "key": key, "value": value,
            "version": version, "waiting": waiting,
            "retry_at": now + REPL_RETRY + self._rng.randrange(REPL_JITTER),
        }
        for peer in sorted(waiting):
            self._send_repl(peer, message["req"], entry)

    _on_del = _on_put

    def _send_repl(self, peer: str, req: int, entry: dict) -> None:
        self._send(peer, "repl", req=req, key=entry["key"],
                   value=entry["value"], version=entry["version"])

    def _on_repl(self, message: dict, client, now: int) -> None:
        self._apply(message["key"], message["value"], message["version"])
        self._send(client, "repl-ack", req=message["req"])

    def _on_repl_ack(self, message: dict, client, now: int) -> None:
        entry = self.pending.get(message["req"])
        if entry is None:
            return
        entry["waiting"].discard(message["from"])
        self._complete_ready_writes()

    def _complete_ready_writes(self) -> None:
        for req in sorted(self.pending):
            entry = self.pending[req]
            if entry["waiting"]:
                continue
            del self.pending[req]
            self._reply(entry["client"], req, True, version=entry["version"])

    def _on_get(self, message: dict, client, now: int) -> None:
        if self._owners_if_primary(message, client) is None:
            return
        stored = self.lookup(message["key"])
        value, version = (stored if stored is not None else (None, 0))
        self._reply(client, message["req"], True, value=value,
                    version=version)

    def _on_ring(self, message: dict, client, now: int) -> None:
        if self.state != "serving":
            return  # a cold membership view would mislead the gateway
        alive = [(peer, self.members[peer])
                 for peer in sorted(self.members)
                 if self.peer_alive[peer]]
        self._send(client, "ring-resp", req=message["req"], members=alive,
                   epoch=self.epoch)

    def _on_sync(self, message: dict, client, now: int) -> None:
        applied = 0
        for key, value, version in message["entries"]:
            if self._apply(key, value, version):
                applied += 1
        self._synced.inc(applied)
        self._send(client, "sync-ack", req=message["req"], applied=applied)

    # -- the rejoin protocol ------------------------------------------------

    def _on_join(self, message: dict, client, now: int) -> None:
        peer = self._seen(message, now)
        if peer is None or self.state != "serving":
            return  # a recovering node cannot vouch for anything
        self._peer_recovering(peer, now)
        self._send(peer, "join-ack", epoch=self.epoch)
        self.emit("cluster.join", now, peer=peer, epoch=self.epoch)

    def _on_join_ack(self, message: dict, client, now: int) -> None:
        if self.state != "recovering":
            return
        peer = self._seen(message, now)
        if peer is None:
            return
        # the epoch catch-up half of the handshake
        self.epoch = max(self.epoch, message["epoch"])
        self._join_acked.add(peer)
        if not self.peer_alive[peer]:
            self._membership_change(peer, alive=True, now=now)

    def _on_pull(self, message: dict, client, now: int) -> None:
        peer = self._seen(message, now)
        if peer is None or self.state != "serving":
            return
        self._peer_recovering(peer, now)
        queued = self._queue_catchup(peer)
        # the end-of-transfer marker rides the same FIFO, so it reaches
        # the rejoiner only after every entry queued above
        self._catchup_queue.append((peer, None, message["req"], 0))
        self.emit("cluster.pull", now, peer=peer, entries=queued,
                  epoch=self.epoch)

    def _on_pull_done(self, message: dict, client, now: int) -> None:
        if self.state != "recovering":
            return
        peer = message["from"]
        if message["req"] == self._pull_reqs.get(peer):
            self._pull_done_from.add(peer)

    def _send_pull(self, peer: str, now: int) -> None:
        req = self._next_req
        self._next_req += 1
        self._pull_reqs[peer] = req
        self._pull_sent[peer] = now
        self._send(peer, "pull", req=req, epoch=self.epoch)

    def _finish_recovery(self, now: int) -> None:
        self.state = "serving"
        self.recovered_at = now
        self.epoch += 1
        self._recover_phase = None
        self._hb_due = now  # announce "serving" on the very next tick
        self.emit("cluster.recovered", now, epoch=self.epoch,
                  **self._replay, ticks=now - self._recover_started)
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
        self.emit("cluster.member", now, peer=peer,
                  state="alive" if alive else "dead", epoch=self.epoch)
        if not alive:
            self._failovers.inc()
            self.emit("cluster.failover", now, dead=peer, epoch=self.epoch)
            # a dead replica can never ack: release writes it was gating
            for entry in self.pending.values():
                entry["waiting"].discard(peer)
            self._complete_ready_writes()
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
        queued = 0
        for key, value, version, _ in self._primary_entries():
            if peer in ring2.owners(key, self.rf):
                self._catchup_queue.append((peer, key, value, version))
                queued += 1
        return queued

    def _stream_to_recovering(self, key: str, value, version: int) -> None:
        """Forward a fresh primary write to each recovering peer that
        will own it: read-your-writes across the rejoin."""
        for peer in sorted(self._recovering_peers):
            ring2 = self._catchup_rings.get(peer)
            if ring2 is not None and peer in ring2.owners(key, self.rf):
                self._send(peer, "sync", req=0,
                           entries=[(key, value, version)])

    def _schedule_sync(self, now: int) -> None:
        """Queue version-guarded pushes of every key this node is now
        primary for, to the group members that may lack it."""
        self._sync_queue.clear()
        queued = 0
        for key, value, version, owners in self._primary_entries():
            for peer in owners[1:]:
                if self.peer_alive[peer]:
                    self._sync_queue.append((peer, key, value, version))
                    queued += 1
        if queued:
            self.emit("cluster.sync", now, entries=queued, epoch=self.epoch)


#: kind -> ``NodeCore._on_<kind>`` (``-`` read as ``_``), or None
_HANDLERS = {kind: getattr(NodeCore, "_on_" + kind.replace("-", "_"), None)
             for kind in msg.ALL_KINDS}
