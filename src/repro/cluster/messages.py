"""The cluster wire protocol: canonical JSON over UDP datagrams.

One message is one datagram.  Encoding is canonical (sorted keys, no
whitespace) so identical messages are identical bytes and a traced run
is byte-reproducible.  The protocol is deliberately small:

client → node
    ``put`` / ``get`` / ``del`` — one KV operation, tagged with the
    issuing (simulated) client id and a gateway-unique request id;
    ``ring`` — ask for the responder's current membership view.

node → client
    ``resp`` — the outcome: ``ok`` with value/version, or an error with
    an optional ``leader`` redirect hint; ``ring-resp`` — alive members
    plus the responder's membership epoch.

node → node
    ``hb`` — failure-detector heartbeat (now carrying the sender's
    ``state``: serving or recovering); ``repl`` / ``repl-ack`` — the
    primary forwarding one write to a replica and the replica's
    acknowledgement; ``sync`` / ``sync-ack`` — version-guarded bulk
    catch-up after a membership change (re-replication); ``join`` /
    ``join-ack`` — a restarted node's epoch-catch-up handshake;
    ``pull`` / ``pull-done`` — the rejoiner asking each live peer for
    the entries it will own, and the peer's end-of-transfer marker.
"""

from __future__ import annotations

import json

#: Message kinds a node accepts from clients.
CLIENT_KINDS = ("put", "get", "del", "ring")
#: Message kinds exchanged between nodes.
PEER_KINDS = ("hb", "repl", "repl-ack", "sync", "sync-ack",
              "join", "join-ack", "pull", "pull-done")
#: Message kinds a client accepts from nodes.
REPLY_KINDS = ("resp", "ring-resp")

ALL_KINDS = CLIENT_KINDS + PEER_KINDS + REPLY_KINDS

#: Errors a ``resp`` may carry.
ERR_NOT_PRIMARY = "not-primary"
ERR_NO_KEY = "no-key"
#: Typed *retryable* errors: the request was refused, not lost — the
#: gateway backs off (exponentially, with seeded jitter) and retries.
ERR_DEGRADED = "degraded"      # primary cannot reach its full group
ERR_RECOVERING = "recovering"  # node is replaying/rejoining, not serving
RETRYABLE_ERRS = (ERR_DEGRADED, ERR_RECOVERING)


class ClusterMsgError(Exception):
    """A datagram that is not a well-formed cluster message."""


#: The canonical JSON form (sorted keys, no whitespace) as one encoder
#: built once: ``json.dumps`` with these arguments builds one per call.
#: The WAL frames its records with the same encoder.
canonical_json = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode
_parse_json = json.JSONDecoder().decode


def encode(msg: dict) -> bytes:
    """Canonical bytes of one message (must carry a known ``kind``)."""
    kind = msg.get("kind")
    if kind not in ALL_KINDS:
        raise ClusterMsgError(f"unknown message kind {kind!r}")
    return canonical_json(msg).encode("utf-8")


def decode(data: bytes) -> dict:
    """Parse one datagram; raises :class:`ClusterMsgError` on garbage."""
    try:
        msg = _parse_json(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ClusterMsgError(f"not a cluster message: {exc}") from exc
    if not isinstance(msg, dict):
        raise ClusterMsgError(f"message is {type(msg).__name__}, not object")
    if msg.get("kind") not in ALL_KINDS:
        raise ClusterMsgError(f"unknown message kind {msg.get('kind')!r}")
    return msg
