"""The cluster wire protocol: one binary layout per message kind.

One message is one UDP datagram.  :data:`LAYOUTS` is the whole format:
one row per kind, its fields in wire order with their types.  A
datagram is the kind's one-byte tag and its fixed-width fields — ints,
bools and the length of every string and list — packed by one
precompiled :class:`struct.Struct`, followed by the string bytes in
field order (a list's items inline at its position, each an item header
and its strings).  Every message of a kind carries every field of its
row, so identical messages are identical bytes, identical bytes are
identical messages, and a traced run is byte-reproducible.

From each row the module generates, once at import, a straight-line
encoder and decoder (the way :mod:`dataclasses` generates ``__init__``):
a loop over the row at run time costs as much as C-level JSON.
:func:`decode` returns only complete, well-typed messages, so the
node's handlers read fields without checking them.  The WAL frames its
records and commit markers with the last two rows (:func:`codec`).

client → node
    ``put`` / ``get`` / ``del`` — one KV operation, tagged with the
    issuing (simulated) client id and a gateway-unique request id;
    ``ring`` — ask for the responder's current membership view.

node → client
    ``resp`` — the outcome: ``ok`` with value/version, or an error with
    an optional ``leader`` redirect hint; ``ring-resp`` — alive members
    plus the responder's membership epoch.

node → node (each names its sender in ``from``)
    ``hb`` — failure-detector heartbeat carrying the sender's
    ``state``: serving or recovering; ``repl`` / ``repl-ack`` — the
    primary forwarding one write to a replica and the replica's
    acknowledgement; ``sync`` / ``sync-ack`` — version-guarded bulk
    catch-up after a membership change (re-replication); ``join`` /
    ``join-ack`` — a restarted node's epoch-catch-up handshake;
    ``pull`` / ``pull-done`` — the rejoiner asking each live peer for
    the entries it will own, and the peer's end-of-transfer marker.
"""

from __future__ import annotations

import struct
from typing import get_args, get_origin

#: Message kinds a node accepts from clients.
CLIENT_KINDS = ("put", "get", "del", "ring")
#: Message kinds exchanged between nodes.
PEER_KINDS = ("hb", "repl", "repl-ack", "sync", "sync-ack",
              "join", "join-ack", "pull", "pull-done")
#: Message kinds a client accepts from nodes.
REPLY_KINDS = ("resp", "ring-resp")

ALL_KINDS = CLIENT_KINDS + PEER_KINDS + REPLY_KINDS

#: One replicated entry: key, value (None = deleted), version.
Entry = tuple[str, str | None, int]

#: Per kind, its fields in wire order and their types.  A kind's tag is
#: its 1-based position here.  ``record`` and ``commit`` never travel:
#: they are the WAL's record and its snapshot commit marker.
LAYOUTS = {
    "put": (("req", int), ("key", str), ("client", int), ("value", str)),
    "get": (("req", int), ("key", str), ("client", int)),
    "del": (("req", int), ("key", str), ("client", int)),
    "ring": (("req", int),),
    "hb": (("from", str), ("epoch", int), ("state", str)),
    "repl": (("from", str), ("req", int), ("key", str),
             ("value", str | None), ("version", int)),
    "repl-ack": (("from", str), ("req", int)),
    "sync": (("from", str), ("req", int), ("entries", list[Entry])),
    "sync-ack": (("from", str), ("req", int), ("applied", int)),
    "join": (("from", str), ("epoch", int)),
    "join-ack": (("from", str), ("epoch", int)),
    "pull": (("from", str), ("req", int), ("epoch", int)),
    "pull-done": (("from", str), ("req", int)),
    "resp": (("req", int), ("ok", bool), ("err", str | None),
             ("leader", int | None), ("value", str | None),
             ("version", int)),
    "ring-resp": (("req", int), ("epoch", int),
                  ("members", list[tuple[str, int]])),
    "record": (("key", str), ("value", str | None), ("version", int)),
    "commit": (("records", int), ("gen", int)),
}

#: The largest UDP payload an IPv4 datagram carries (65535 - 20 - 8).
MAX_DATAGRAM = 65_507
#: The largest payload of one WAL record (a sanity cap recovery reads
#: a frame's length against).
MAX_RECORD = 64 * 1024
#: The longest node id (UTF-8 bytes) a ``from`` field may carry.
MAX_NODE_ID = 16
#: The largest ``int`` a layout carries (a signed 64-bit field).
MAX_INT = (1 << 63) - 1

#: Errors a ``resp`` may carry.
ERR_NOT_PRIMARY = "not-primary"
ERR_NO_KEY = "no-key"
#: The key's next version would not fit its layout's 64 bits.
ERR_VERSIONS_EXHAUSTED = "versions-exhausted"
#: Typed *retryable* errors: the request was refused, not lost — the
#: gateway backs off (exponentially, with seeded jitter) and retries.
ERR_DEGRADED = "degraded"      # primary cannot reach its full group
ERR_RECOVERING = "recovering"  # node is replaying/rejoining, not serving
RETRYABLE_ERRS = (ERR_DEGRADED, ERR_RECOVERING)


class ClusterMsgError(Exception):
    """A datagram that is not a well-formed cluster message, or a
    message that has no encoding."""


# -- the generated codec -----------------------------------------------------
#
# Wire form of each type: an ``int`` is ``q``; a ``bool`` is ``B`` (0 or
# 1); an ``int | None`` is a ``B`` present flag then ``q`` (0 if None);
# a ``str`` is its ``H`` byte length; a ``str | None`` is ``H`` length
# + 1 (0 if None); a list is its ``H`` item count.  All little-endian.

_CODES = {int: "q", bool: "B", int | None: "Bq", str: "H", str | None: "H"}


def _item_types(kind: type) -> tuple | None:
    """A list field's item types, or None for a scalar field."""
    if get_origin(kind) is not list:
        return None
    return get_args(get_args(kind)[0])


def _has_type(value, kind) -> bool:
    if kind == int | None:
        return value is None or type(value) is int
    if kind == str | None:
        return value is None or type(value) is str
    items = _item_types(kind)
    if items is None:
        return type(value) is kind
    return type(value) is list and all(
        type(item) is tuple and len(item) == len(items)
        and all(map(_has_type, item, items)) for item in value)


def _type_name(kind) -> str:
    return kind.__name__ if isinstance(kind, type) else str(kind)


def _shape_error(kind: str, msg: dict) -> str:
    names = {name for name, _ in LAYOUTS[kind]} | {"kind"}
    missing = sorted(names - msg.keys())
    extra = sorted(map(repr, msg.keys() - names))
    return f"{kind} message: missing {missing}, extra [{', '.join(extra)}]"


def _type_error(kind: str, values: tuple) -> str:
    for (name, field_type), value in zip(LAYOUTS[kind], values):
        if not _has_type(value, field_type):
            return (f"{kind} message: {name!r} is "
                    f"{type(value).__name__}, not {_type_name(field_type)}")
    return f"{kind} message: bad field"


def _test(var: str, kind) -> str:
    """A Python expression true iff `var` has field type `kind`."""
    if kind == int | None:
        return f"({var} is None or type({var}) is int)"
    if kind == str | None:
        return f"({var} is None or type({var}) is str)"
    if _item_types(kind) is not None:
        return f"type({var}) is list"
    return f"type({var}) is {kind.__name__}"


class _Source:
    """Lines of one generated function body, indented as they go."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def __call__(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)


def _pack_fields(src: _Source, depth: int, names: list[str], types,
                 pack: str, lead: str) -> str:
    """Emit the code that encodes variables `names` of `types`; return
    the expression of their bytes: the header packed by `pack` (after
    the `lead` argument), then the strings and list items in order."""
    args, parts = [lead] if lead else [], []
    for name, kind in zip(names, types):
        items = _item_types(kind)
        if kind is str:
            src(depth, f"b_{name} = {name}.encode()")
            args.append(f"len(b_{name})")
            parts.append(f"b_{name}")
        elif kind == str | None:
            src(depth, f"b_{name} = b'' if {name} is None "
                       f"else {name}.encode()")
            args.append(f"0 if {name} is None else len(b_{name}) + 1")
            parts.append(f"b_{name}")
        elif kind == int | None:
            args.append(f"{name} is not None, {name} or 0")
        elif items is not None:
            inner = [f"{name}_{i}" for i in range(len(items))]
            src(depth, f"parts_{name} = []")
            src(depth, f"for item in {name}:")
            src(depth + 1, f"if type(item) is not tuple "
                           f"or len(item) != {len(items)}:")
            src(depth + 2, "raise ClusterMsgError(_type_error(KIND, VALUES))")
            src(depth + 1, f"{', '.join(inner)}, = item")
            src(depth + 1, "if not (" + " and ".join(map(_test, inner, items))
                + "):")
            src(depth + 2, "raise ClusterMsgError(_type_error(KIND, VALUES))")
            expr = _pack_fields(src, depth + 1, inner, items,
                                f"pack_{name}", "")
            src(depth + 1, f"parts_{name}.append({expr})")
            args.append(f"len({name})")
            parts.append(f"b''.join(parts_{name})")
        else:
            args.append(name)
    return " + ".join([f"{pack}({', '.join(args)})"] + parts)


def _unpack_fields(src: _Source, depth: int, names: list[str], types,
                   layout: struct.Struct, unpack: str, checks: list[str],
                   values: dict[str, str]) -> None:
    """Emit code reading variables `names` of `types` from ``data`` at
    ``p`` with `unpack` (of `layout`); append to `checks` the conditions
    that make them invalid, and put in `values` each variable's
    expression in the decoded message."""
    heads = []
    for name, kind in zip(names, types):
        values[name] = name
        if kind == int | None:
            heads += [f"f_{name}", name]
            checks.append(f"f_{name} > 1 or (not f_{name} and {name})")
            values[name] = f"{name} if f_{name} else None"
        elif kind in (str, str | None) or _item_types(kind) is not None:
            heads.append(f"n_{name}")
        else:
            heads.append(name)
            if kind is bool:
                checks.append(f"{name} > 1")
                values[name] = f"{name} == 1"
    src(depth, f"{', '.join(heads)}, = {unpack}(data, p)")
    src(depth, f"p += {layout.size}")
    for name, kind in zip(names, types):
        items = _item_types(kind)
        if kind is str:
            src(depth, f"q = p + n_{name}")
            src(depth, f"{name} = data[p:q].decode()")
            src(depth, "p = q")
        elif kind == str | None:
            src(depth, f"if n_{name}:")
            src(depth + 1, f"q = p + n_{name} - 1")
            src(depth + 1, f"{name} = data[p:q].decode()")
            src(depth + 1, "p = q")
            src(depth, "else:")
            src(depth + 1, f"{name} = None")
        elif items is not None:
            inner = [f"{name}_{i}" for i in range(len(items))]
            src(depth, f"{name} = []")
            src(depth, f"for _ in range(n_{name}):")
            _unpack_fields(src, depth + 1, inner, items,
                           _item_layout(items), f"unpack_{name}", checks,
                           values)
            src(depth + 1, f"{name}.append(({', '.join(inner)},))")


def _head(kind: str) -> struct.Struct:
    """The tag, fixed-width fields and lengths of a `kind` message."""
    return struct.Struct("<B" + "".join(
        _CODES.get(field_type, "H") for _, field_type in LAYOUTS[kind]))


def _item_layout(items: tuple) -> struct.Struct:
    # an item is a flat tuple: no bool, optional int or list to check
    assert set(items) <= {int, str, str | None}, items
    return struct.Struct("<" + "".join(_CODES[t] for t in items))


def _compile(kind: str, tag: int, wire: bool) -> tuple:
    """The generated ``(encode, decode)`` of one row: on dicts with a
    ``kind`` key if `wire`, else on the tuple of the row's fields."""
    fields = LAYOUTS[kind]
    names = [f"v{i}" for i in range(len(fields))]
    types = [field_type for _, field_type in fields]
    head = _head(kind)
    namespace = {
        "KIND": kind, "ClusterMsgError": ClusterMsgError,
        "struct_error": struct.error, "_type_error": _type_error,
        "_shape_error": _shape_error,
        "pack_head": head.pack, "unpack_head": head.unpack_from,
    }
    for name, field_type in zip(names, types):
        items = _item_types(field_type)
        if items is not None:
            namespace[f"pack_{name}"] = _item_layout(items).pack
            namespace[f"unpack_{name}"] = _item_layout(items).unpack_from
    suffix = kind.replace("-", "_")

    enc = _Source()
    if wire:
        enc(0, f"def encode_{suffix}(msg):")
        enc(1, f"if len(msg) != {len(fields) + 1}:")
        enc(2, "raise ClusterMsgError(_shape_error(KIND, msg))")
        enc(1, "try:")
        for name, (field, _) in zip(names, fields):
            enc(2, f"{name} = msg[{field!r}]")
        enc(1, "except KeyError:")
        enc(2, "raise ClusterMsgError(_shape_error(KIND, msg)) from None")
    else:
        enc(0, f"def encode_{suffix}({', '.join(names)}):")
    enc(1, "if not (" + " and ".join(map(_test, names, types)) + "):")
    enc(2, f"raise ClusterMsgError(_type_error(KIND, ({', '.join(names)},)))")
    enc(1, "try:")
    if any(_item_types(t) is not None for t in types):
        enc(2, f"VALUES = ({', '.join(names)},)")
    expr = _pack_fields(enc, 2, names, types, "pack_head", str(tag))
    enc(2, f"return {expr}")
    enc(1, "except (UnicodeEncodeError, struct_error) as exc:")
    enc(2, "raise ClusterMsgError(f'{KIND} message: {exc}') from None")

    dec = _Source()
    checks, values = ["p != len(data)", f"tag != {tag}"], {}
    dec(0, f"def decode_{suffix}(data):")
    dec(1, "p = 0")
    dec(1, "try:")
    _unpack_fields(dec, 2, ["tag"] + names, [int] + types, head,
                   "unpack_head", checks, values)
    dec(1, "except (UnicodeDecodeError, struct_error) as exc:")
    dec(2, "raise ClusterMsgError(f'{KIND} message: {exc}') from None")
    dec(1, f"if {' or '.join(checks)}:")
    dec(2, "raise ClusterMsgError(f'{KIND} message: '")
    dec(3, "f'{len(data)} bytes disagree with its layout')")
    if wire:
        dec(1, "return {'kind': KIND, " + ", ".join(
            f"{field!r}: {values[name]}"
            for name, (field, _) in zip(names, fields)) + "}")
    else:
        dec(1, f"return ({', '.join(values[name] for name in names)},)")
    source = "\n".join(enc.lines + dec.lines)
    exec(compile(source, f"<messages.LAYOUTS[{kind!r}]>", "exec"),
         namespace)
    return namespace[f"encode_{suffix}"], namespace[f"decode_{suffix}"]


def _unknown_tag(data: bytes) -> dict:
    raise ClusterMsgError(f"unknown message tag {data[0]}")


#: kind -> tag, and the generated codec of every row
TAGS = {kind: tag for tag, kind in enumerate(LAYOUTS, start=1)}
_CODECS = {kind: _compile(kind, TAGS[kind], wire=kind in ALL_KINDS)
           for kind in LAYOUTS}
_ENCODE = {kind: _CODECS[kind][0] for kind in ALL_KINDS}
#: tag byte -> decoder
_DECODE = [_unknown_tag] * 256
for _kind in ALL_KINDS:
    _DECODE[TAGS[_kind]] = _CODECS[_kind][1]


def encode(msg: dict) -> bytes:
    """The bytes of one message; raises :class:`ClusterMsgError` for an
    unknown kind, a missing or extra field, a field of the wrong type,
    a string that is not UTF-8 or a number out of its range."""
    try:
        encoder = _ENCODE[msg["kind"]]
    except (KeyError, TypeError):
        raise ClusterMsgError(
            f"unknown message kind {msg.get('kind')!r}") from None
    return encoder(msg)


def decode(data: bytes) -> dict:
    """The message in one datagram; raises :class:`ClusterMsgError` for
    an unknown tag, a short buffer, a length past the end, trailing
    bytes or a string that is not UTF-8."""
    if not data:
        raise ClusterMsgError("empty datagram")
    return _DECODE[data[0]](data)


def codec(kind: str) -> tuple:
    """The generated ``(pack, unpack)`` of a row that never travels:
    ``pack(*fields) -> bytes`` and ``unpack(bytes) -> fields``."""
    if kind in ALL_KINDS:
        raise ValueError(f"{kind!r} is a wire kind: use encode/decode")
    return _CODECS[kind]


# -- sizes -------------------------------------------------------------------

def fixed_size(kind: str) -> int:
    """Bytes of a `kind` message besides its strings and list items."""
    return _head(kind).size


#: Bytes of one ``sync`` entry besides its key and value.
ENTRY_OVERHEAD = _item_layout(get_args(Entry)).size

#: The most UTF-8 bytes of key plus value one put may carry: what a
#: ``repl`` forward and a one-entry ``sync`` (each from a sender of up
#: to :data:`MAX_NODE_ID` bytes), a ``resp`` to a read and a WAL record
#: can all hold.
MAX_ENTRY = min(
    MAX_DATAGRAM - fixed_size("repl") - MAX_NODE_ID,
    MAX_DATAGRAM - fixed_size("sync") - ENTRY_OVERHEAD - MAX_NODE_ID,
    MAX_DATAGRAM - fixed_size("resp"),
    MAX_RECORD - fixed_size("record"),
)


def entry_size(key: str, value: str | None) -> int:
    """Bytes one entry adds to a ``sync`` message."""
    return (ENTRY_OVERHEAD + len(key.encode())
            + (0 if value is None else len(value.encode())))
