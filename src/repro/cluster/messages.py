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

#: The largest UDP payload an IPv4 datagram carries (65535 - 20 - 8).
MAX_DATAGRAM = 65_507

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


def _utf8(text: str) -> bool:
    """False if `text` holds a lone surrogate: a JSON ``\\ud800`` escape
    decodes to one, and the ring could not hash it as a key."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _entries(entries: list) -> bool:
    return all(type(entry) is list and len(entry) == 3
               and type(entry[0]) is str and _utf8(entry[0])
               and type(entry[2]) is int for entry in entries)


#: Per kind a node accepts, each field its handler reads and the type
#: the value must have (exactly: JSON true/false are bool, not int).
#: Kinds not listed (``sync-ack``; the replies) are read for nothing
#: but their kind.
FIELDS = {
    "put": (("req", int), ("key", str)),
    "del": (("req", int), ("key", str)),
    "get": (("req", int), ("key", str)),
    "ring": (("req", int),),
    "hb": (("from", str),),
    "repl": (("req", int), ("key", str), ("version", int)),
    "repl-ack": (("req", int), ("from", str)),
    "sync": (("req", int), ("entries", list)),
    "join": (("from", str),),
    "join-ack": (("from", str), ("epoch", int)),
    "pull": (("req", int), ("from", str)),
    "pull-done": (("req", int), ("from", str)),
}


def check(msg: dict) -> dict:
    """`msg` if every field a node reads from it is present and of its
    :data:`FIELDS` type, a str is UTF-8 and each ``entries`` item is
    ``[str, value, int]``; raises :class:`ClusterMsgError` otherwise."""
    for name, kind in FIELDS.get(msg["kind"], ()):
        value = msg.get(name)
        if type(value) is not kind \
                or (kind is str and not _utf8(value)) \
                or (kind is list and not _entries(value)):
            raise ClusterMsgError(
                f"{msg['kind']} message: bad or missing {name!r}")
    return msg
