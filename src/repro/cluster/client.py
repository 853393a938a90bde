"""The client gateway: millions of simulated clients over one stack.

An open-loop workload with a million distinct clients cannot afford a
kernel per client; instead one gateway machine multiplexes the whole
client population over a single UDP socket, the way a load-balancer
tier fronts a storage service.  Each request carries its simulated
``client`` id; the gateway keeps the per-client session bookkeeping
needed to *check* the service's guarantees:

* **read-your-writes** — for every acknowledged write it records
  ``(client, key) -> version``; a later read by the same client must
  return at least that version;
* **acknowledged-write durability** — for every acknowledged write it
  records ``key -> (version, value)``; the post-workload audit re-reads
  every such key and any version regression is an acknowledged-write
  loss (the invariant the fault campaign kills nodes to attack).

Routing uses the gateway's own :class:`~repro.cluster.ring.HashRing`
view, updated from ``not-primary`` redirects and explicit membership
queries after timeouts — the gateway is *not* on the failure-detection
path, it discovers failovers the way real clients do.

Retries back off exponentially with seeded jitter (doubling from
:data:`CLIENT_TIMEOUT` up to :data:`BACKOFF_CAP`), both for silent
timeouts and for the typed *retryable* refusals a degraded or
recovering node sends.  A request that exhausts :data:`MAX_ATTEMPTS`
does not vanish: it is recorded as a typed give-up (op, key, client,
last error) and counted, so the workload report can distinguish "the
service refused and the client gave up" from "the service lied".
"""

from __future__ import annotations

import random

from repro import obs
from repro.cluster import messages as msg
from repro.cluster.node import SERVICE_PORT, TICK_NS
from repro.cluster.ring import HashRing

#: UDP port the gateway issues from.
GATEWAY_PORT = 7001
#: Ticks before an outstanding request's first retry.
CLIENT_TIMEOUT = 1_200
#: Ceiling of the exponential backoff (doubling starts at
#: CLIENT_TIMEOUT, so retries space out 1x, 2x, 4x, then stay at 4x).
BACKOFF_CAP = 4 * CLIENT_TIMEOUT
#: Seeded jitter added to every backoff (desynchronizes retry storms).
BACKOFF_JITTER = 97
#: Attempts (first send + retries/redirects) before a request gives up.
MAX_ATTEMPTS = 12
#: The reserved client id of the post-workload durability audit.
AUDIT_CLIENT = -1


class ClientGateway:
    """Issues client ops, tracks completions, checks session guarantees."""

    def __init__(self, kernel, members: dict[str, int], vnodes: int = 64,
                 registry=None, seed: int = 1) -> None:
        if kernel.net is None:
            raise ValueError("gateway kernel has no network")
        self.kernel = kernel
        self.stack = kernel.net
        self.sock = self.stack.udp_bind(GATEWAY_PORT)
        self.member_ips = dict(members)
        self.ring = HashRing(sorted(members), vnodes=vnodes)
        self.registry = registry if registry is not None else obs.registry()
        self._rng = random.Random(f"cluster/{seed}/gateway")

        self._next_req = 1
        self._refresh_rotor = 0
        self._ring_reqs: set[int] = set()
        self.outstanding: dict[int, dict] = {}

        self.latency = {op: self.registry.histogram("cluster.latency_ns",
                                                    op=op)
                        for op in ("put", "get", "del")}
        self.acked = self.registry.counter("cluster.acked")
        self.failed = self.registry.counter("cluster.failed")
        self.redirects = self.registry.counter("cluster.client_redirects")
        self.retries = self.registry.counter("cluster.client_retries")
        self.giveups = self.registry.counter("cluster.client_giveup")

        #: (client, key) -> highest acknowledged version (read-your-writes).
        self.sessions: dict[tuple[int, str], int] = {}
        #: key -> (version, value) of the newest acknowledged write.
        self.acked_writes: dict[str, tuple[int, object]] = {}
        #: audit read results: key -> (value, version).
        self.audit_results: dict[str, tuple[object, int]] = {}
        self.ryw_violations: list[str] = []
        #: typed records of requests that exhausted MAX_ATTEMPTS.
        self.gaveup: list[dict] = []

    # -- issuing ------------------------------------------------------------

    def issue(self, op: str, key: str, value, client_id: int,
              now: int) -> int:
        """Send one op toward the believed primary; returns the req id.

        Raises :class:`~repro.cluster.messages.ClusterMsgError`, and
        sends nothing, for a key or put value that is not a str or whose
        UTF-8 bytes exceed :data:`~repro.cluster.messages.MAX_ENTRY`."""
        value_type = str if op == "put" else type(None)
        if type(key) is not str or type(value) is not value_type:
            raise msg.ClusterMsgError(
                f"{op} of {key!r}: the key must be a str and the value "
                f"{value_type.__name__}, not {type(value).__name__}")
        try:
            size = len(key.encode()) + (0 if value is None
                                        else len(value.encode()))
        except UnicodeEncodeError as exc:
            raise msg.ClusterMsgError(f"{op} of {key!r}: {exc}") from None
        if size > msg.MAX_ENTRY:
            raise msg.ClusterMsgError(
                f"{op} of {key!r}: {size} bytes of key and value, more "
                f"than the {msg.MAX_ENTRY} one entry may carry")
        req = self._next_req
        self._next_req += 1
        target = self.ring.primary_for(key)
        self.outstanding[req] = {
            "op": op, "key": key, "value": value, "client": client_id,
            "issued": now, "attempts": 1,
            "retry_at": now + self._backoff(1),
        }
        self._send_op(req, self.member_ips[target])
        return req

    def _backoff(self, attempts: int) -> int:
        """Exponential backoff with seeded jitter for the next retry."""
        base = min(CLIENT_TIMEOUT * (2 ** (attempts - 1)), BACKOFF_CAP)
        return base + self._rng.randrange(BACKOFF_JITTER)

    def _send_op(self, req: int, target_ip: int) -> None:
        entry = self.outstanding[req]
        message = {"kind": entry["op"], "req": req, "key": entry["key"],
                   "client": entry["client"]}
        if entry["op"] == "put":
            message["value"] = entry["value"]
        self.stack.udp_send(GATEWAY_PORT, target_ip, SERVICE_PORT,
                            msg.encode(message))

    # -- the per-tick loop --------------------------------------------------

    def on_tick(self, now: int) -> None:
        queue = self.sock.recv_queue
        while queue:
            _, _, payload = queue.popleft()
            try:
                message = msg.decode(payload)
            except msg.ClusterMsgError:
                continue
            if message["kind"] == "resp":
                self._on_resp(message, now)
            elif message["kind"] == "ring-resp":
                self._on_ring_resp(message)
        self._retry_timeouts(now)

    def _on_resp(self, message: dict, now: int) -> None:
        req = message["req"]
        entry = self.outstanding.get(req)
        if entry is None:
            return  # duplicate / late response for a settled request
        if message["ok"]:
            del self.outstanding[req]
            self.acked.inc()
            self.latency[entry["op"]].record(
                (now - entry["issued"]) * TICK_NS)
            self._settle(entry, message)
            return
        err = message["err"]
        if err == msg.ERR_NOT_PRIMARY:
            # a redirect is information, not congestion: follow it now
            self.redirects.inc()
            entry["attempts"] += 1
            if entry["attempts"] > MAX_ATTEMPTS:
                self._give_up(req, err, now)
                return
            entry["retry_at"] = now + self._backoff(entry["attempts"])
            leader_ip = message["leader"]
            if leader_ip is None:
                leader_ip = self.member_ips[
                    self.ring.primary_for(entry["key"])]
            self._send_op(req, leader_ip)
            return
        if err in msg.RETRYABLE_ERRS:
            # a typed refusal (degraded / recovering): the service is
            # telling us to come back later — back off, don't hammer
            entry["attempts"] += 1
            if entry["attempts"] > MAX_ATTEMPTS:
                self._give_up(req, err, now)
                return
            entry["retry_at"] = now + self._backoff(entry["attempts"])
            return
        self._give_up(req, err if err is not None else "error", now)

    def _give_up(self, req: int, reason: str, now: int) -> None:
        """Surface an exhausted request as a typed failure record."""
        entry = self.outstanding.pop(req)
        self.failed.inc()
        self.giveups.inc()
        self.gaveup.append({
            "req": req, "op": entry["op"], "key": entry["key"],
            "client": entry["client"], "attempts": entry["attempts"],
            "reason": reason, "issued": entry["issued"], "gave_up": now,
        })

    def _settle(self, entry: dict, message: dict) -> None:
        """Session bookkeeping for one acknowledged op."""
        client, key, op = entry["client"], entry["key"], entry["op"]
        version = message["version"]
        if op in ("put", "del"):
            value = entry["value"] if op == "put" else None
            session = (client, key)
            if version > self.sessions.get(session, 0):
                self.sessions[session] = version
            if version > self.acked_writes.get(key, (0, None))[0]:
                self.acked_writes[key] = (version, value)
            return
        # reads: the audit records, real clients check read-your-writes
        if client == AUDIT_CLIENT:
            self.audit_results[key] = (message["value"], version)
            return
        floor = self.sessions.get((client, key))
        if floor is not None and version < floor:
            self.ryw_violations.append(
                f"client {client} read {key} at version {version} after "
                f"its own acknowledged write {floor}")

    def _on_ring_resp(self, message: dict) -> None:
        self._ring_reqs.discard(message["req"])
        members = dict(message["members"])
        if not members or members == self.member_ips:
            return
        self.member_ips = members
        self.ring = HashRing(sorted(members), vnodes=self.ring.vnodes)

    def _retry_timeouts(self, now: int) -> None:
        for req in sorted(self.outstanding):
            entry = self.outstanding[req]
            if now < entry["retry_at"]:
                continue
            entry["attempts"] += 1
            if entry["attempts"] > MAX_ATTEMPTS:
                self._give_up(req, "timeout", now)
                continue
            self.retries.inc()
            entry["retry_at"] = now + self._backoff(entry["attempts"])
            # a timeout means our routing may be stale: refresh the view
            # from a rotating member and retry at the believed primary
            self._request_ring(now)
            self._send_op(req, self.member_ips[
                self.ring.primary_for(entry["key"])])

    def _request_ring(self, now: int) -> None:
        members = sorted(self.member_ips)
        if not members:
            return
        target = members[self._refresh_rotor % len(members)]
        self._refresh_rotor += 1
        req = self._next_req
        self._next_req += 1
        self._ring_reqs.add(req)
        self.stack.udp_send(GATEWAY_PORT, self.member_ips[target],
                            SERVICE_PORT,
                            msg.encode({"kind": "ring", "req": req}))

    # -- the durability audit ----------------------------------------------

    def audit_keys(self) -> list[str]:
        return sorted(self.acked_writes)

    def audit_losses(self) -> list[str]:
        """Acknowledged writes the post-workload audit could not read
        back at (or beyond) their acknowledged version."""
        losses = []
        for key in self.audit_keys():
            version, value = self.acked_writes[key]
            got = self.audit_results.get(key)
            if got is None:
                losses.append(f"{key}: audit read never completed")
            elif got[1] < version:
                losses.append(f"{key}: acked version {version} but audit "
                              f"read version {got[1]}")
            elif got[1] == version and got[0] != value:
                losses.append(f"{key}: version {version} value mismatch")
        return losses
