"""The cluster wire codec: one binary layout per kind, byte for byte.

The codec is generated from ``messages.LAYOUTS``; these tests hold it to
a reference that reads the same table field by field with ``struct``,
and to the obligations of a marshalling layer: decode inverts encode,
encode is injective across kinds, and any bytes either decode to a
message of its row's types or raise ``ClusterMsgError``."""

import struct
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import messages as msg

INT64 = (-(1 << 63), (1 << 63) - 1)


def _items(kind):
    """A list field's item types, or None for a scalar field."""
    if typing.get_origin(kind) is list:
        return typing.get_args(typing.get_args(kind)[0])
    return None


def _field(kind, value):
    """(struct codes, header values, trailing bytes) of one field."""
    if kind is int:
        return "q", [value], b""
    if kind is bool:
        return "B", [int(value)], b""
    if kind == int | None:
        return "Bq", [int(value is not None), value or 0], b""
    if kind is str:
        data = value.encode("utf-8")
        return "H", [len(data)], data
    if kind == str | None:
        if value is None:
            return "H", [0], b""
        data = value.encode("utf-8")
        return "H", [len(data) + 1], data
    items = _items(kind)
    body = b"".join(_pack(items, item) for item in value)
    return "H", [len(value)], body


def _pack(types, values, tag=None):
    codes, head, tail = "<", [], b""
    if tag is not None:
        codes, head = "<B", [tag]
    for kind, value in zip(types, values):
        code, fields, data = _field(kind, value)
        codes += code
        head += fields
        tail += data
    return struct.pack(codes, *head) + tail


def reference(m: dict) -> bytes:
    """The format's definition: the tag and every fixed-width field and
    length in one little-endian header, then the strings and list items
    in field order."""
    row = msg.LAYOUTS[m["kind"]]
    return _pack([kind for _, kind in row], [m[name] for name, _ in row],
                 tag=msg.TAGS[m["kind"]])


def typed(value, kind) -> bool:
    """`value` has field type `kind` (exactly: a bool is not an int)."""
    if kind == int | None:
        return value is None or typed(value, int)
    if kind == str | None:
        return value is None or typed(value, str)
    items = _items(kind)
    if items is None:
        return type(value) is kind and (
            kind is not int or INT64[0] <= value <= INT64[1])
    return type(value) is list and all(
        type(item) is tuple and len(item) == len(items)
        and all(typed(v, k) for v, k in zip(item, items)) for item in value)


# -- strategies -------------------------------------------------------------

def strategy(kind):
    """Values of one field type."""
    if kind is int:
        return st.integers(*INT64)
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.text(max_size=12)
    if kind == int | None:
        return st.none() | strategy(int)
    if kind == str | None:
        return st.none() | strategy(str)
    return st.lists(st.tuples(*map(strategy, _items(kind))), max_size=4)


def of_kind(kind: str):
    """Messages of one kind, every field drawn from its type."""
    row = msg.LAYOUTS[kind]
    return st.fixed_dictionaries(
        {"kind": st.just(kind),
         **{name: strategy(field_type) for name, field_type in row}})


#: Messages of every wire kind.
message = st.sampled_from(msg.ALL_KINDS).flatmap(of_kind)

#: Small field domains: empty, non-ASCII and maximal strings, None, and
#: the extreme in-range ints.
DOMAINS = {
    int: (0, -1, 1, *INT64),
    bool: (False, True),
    str: ("", "clé", "\U0001f600", "x" * 65535),
    str | None: (None, "", "é", "x" * 65534),
    int | None: (None, 0, -1, *INT64),
}


def _domain(kind):
    if _items(kind) is None:
        return DOMAINS[kind]
    item = tuple(DOMAINS[k][1] for k in _items(kind))
    return ([], [item], [item, tuple(DOMAINS[k][-1] for k in _items(kind))])


def small_messages():
    """Per kind, a base message and every one-field variation of it over
    :data:`DOMAINS`."""
    for kind in msg.ALL_KINDS:
        row = msg.LAYOUTS[kind]
        base = {"kind": kind, **{name: _domain(t)[1] for name, t in row}}
        yield base
        for name, field_type in row:
            for value in _domain(field_type):
                yield {**base, name: value}


# -- the obligation ---------------------------------------------------------

def test_decode_inverts_encode_over_small_domains():
    seen: dict[bytes, dict] = {}
    for m in small_messages():
        wire = msg.encode(m)
        assert wire == reference(m)
        assert msg.decode(wire) == m
        # injective across kinds: distinct messages, distinct bytes
        assert seen.setdefault(wire, m) == m


@given(message)
def test_encode_is_the_layout(m):
    wire = msg.encode(m)
    assert wire == reference(m)
    assert msg.decode(wire) == m


@given(message, message)
def test_encode_is_injective(a, b):
    assert (msg.encode(a) == msg.encode(b)) == (a == b)


def _mutations(data: bytes):
    """A valid encoding, truncated, extended, and with one byte changed."""
    return st.one_of(
        st.integers(0, len(data)).map(lambda n: data[:n]),
        st.binary(min_size=1, max_size=4).map(lambda extra: data + extra),
        st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)).map(
            lambda change: data[:change[0]] + bytes([change[1]])
            + data[change[0] + 1:]))


arbitrary_bytes = st.one_of(
    st.binary(max_size=64),
    message.map(msg.encode).flatmap(_mutations))


@given(arbitrary_bytes)
def test_any_bytes_decode_to_a_typed_message_or_raise(data):
    try:
        m = msg.decode(data)
    except msg.ClusterMsgError:
        return
    row = msg.LAYOUTS[m["kind"]]
    assert m.keys() == {"kind"} | {name for name, _ in row}
    assert all(typed(m[name], kind) for name, kind in row)
    # one encoding per message: what decodes re-encodes to itself
    assert msg.encode(m) == data


# -- pins -------------------------------------------------------------------

PINNED = {
    "put": ({"kind": "put", "req": 42, "key": "clé", "client": 7,
             "value": "v"},
            "012a000000000000000400070000000000000001"
            "00636cc3a976"),
    "get": ({"kind": "get", "req": 1, "key": "k", "client": -1},
            "0201000000000000000100ffffffffffffffff6b"),
    "del": ({"kind": "del", "req": 2, "key": "k", "client": 3},
            "030200000000000000010003000000000000006b"),
    "ring": ({"kind": "ring", "req": 5}, "040500000000000000"),
    "hb": ({"kind": "hb", "from": "node0", "epoch": 3,
            "state": "serving"},
           "0505000300000000000000070"
           "06e6f64653073657276696e67"),
    "repl": ({"kind": "repl", "from": "node0", "req": 9, "key": "k",
              "value": None, "version": 4},
             "06050009000000000000000100000004000000000000006e6f6465306b"),
    "repl-ack": ({"kind": "repl-ack", "from": "node1", "req": 9},
                 "07050009000000000000006e6f646531"),
    "sync": ({"kind": "sync", "from": "node2", "req": 0,
              "entries": [("a", "b", 1), ("c", None, 2)]},
             "080500000000000000000002006e6f64653201000200010000000000"
             "0000616201000000020000000000000063"),
    "sync-ack": ({"kind": "sync-ack", "from": "node2", "req": 0,
                  "applied": 2},
                 "0905000000000000000000020000000000000"
                 "06e6f646532"),
    "join": ({"kind": "join", "from": "node1", "epoch": 0},
             "0a050000000000000000006e6f646531"),
    "join-ack": ({"kind": "join-ack", "from": "node0", "epoch": 6},
                 "0b050006000000000000006e6f646530"),
    "pull": ({"kind": "pull", "from": "node1", "req": 1, "epoch": 6},
             "0c0500010000000000000006000000000000006e6f646531"),
    "pull-done": ({"kind": "pull-done", "from": "node0", "req": 1},
                  "0d050001000000000000006e6f646530"),
    "resp": ({"kind": "resp", "req": 42, "ok": False,
              "err": "not-primary", "leader": 0x0A000002, "value": None,
              "version": 0},
             "0e2a00000000000000000c00010200000a000000000000000000000000"
             "00006e6f742d7072696d617279"),
    "ring-resp": ({"kind": "ring-resp", "req": 3, "epoch": 2,
                   "members": [("node0", 0x0A000001)]},
                  "0f03000000000000000200000000000000010005000100000a0000"
                  "00006e6f646530"),
}


def test_one_message_pinned_as_bytes():
    m = {"kind": "put", "req": 42, "key": "clé", "client": 7, "value": "v"}
    wire = bytes.fromhex("01" "2a00000000000000" "0400" "0700000000000000"
                         "0100") + "clé".encode() + b"v"
    assert msg.encode(m) == wire
    assert msg.decode(wire) == m


@pytest.mark.parametrize("kind", msg.ALL_KINDS)
def test_each_kind_pinned_as_bytes(kind):
    m, wire = PINNED[kind]
    assert msg.encode(m).hex() == wire
    assert msg.decode(bytes.fromhex(wire)) == m


def test_tags_are_distinct_bytes():
    assert sorted(msg.TAGS.values()) == list(range(1, len(msg.LAYOUTS) + 1))
    assert set(msg.ALL_KINDS) < set(msg.LAYOUTS)


# -- refusals ---------------------------------------------------------------

PUT = {"kind": "put", "req": 1, "key": "k", "client": 7, "value": "v"}


#: Messages `encode` must refuse, and the start of its error text.
UNENCODABLE = [
    ({"kind": "x"}, "unknown message kind 'x'"),
    ({}, "unknown message kind None"),
    ({**PUT, "value": b"bytes"}, "put message: 'value' is bytes, not str"),
    ({**PUT, "value": None}, "put message: 'value' is NoneType, not str"),
    ({**PUT, "req": True}, "put message: 'req' is bool, not int"),
    ({**PUT, "req": 1.0}, "put message: 'req' is float, not int"),
    ({"kind": "put", "req": 1}, "put message: missing ['client', 'key', "
                                "'value'], extra []"),
    ({**PUT, "extra": 1}, "put message: missing [], extra ['extra']"),
    ({**PUT, "req": 1 << 63}, "put message: argument out of range"),
    ({**PUT, "client": -(1 << 63) - 1}, "put message: argument out of "
                                        "range"),
    ({**PUT, "key": "\ud800"}, "put message: 'utf-8' codec can't encode"),
    ({**PUT, "key": "x" * 65536}, "put message: ushort format requires"),
    ({**PINNED["repl"][0], "value": "x" * 65535},
     "repl message: ushort format requires"),
    ({**PINNED["sync"][0], "entries": [["k", "v", 1]]},
     "sync message: 'entries' is list, not list[tuple[str, str | None, "
     "int]]"),
    ({**PINNED["sync"][0], "entries": [("k", 1)]},
     "sync message: 'entries' is list"),
    ({**PINNED["sync"][0], "entries": [("k", "v", False)]},
     "sync message: 'entries' is list"),
    ({**PINNED["resp"][0], "ok": 1}, "resp message: 'ok' is int, not bool"),
    ({**PINNED["resp"][0], "leader": "10.0.0.1"},
     "resp message: 'leader' is str, not int | None"),
]


def test_encode_refuses_unknown_kinds_and_unencodable_values():
    for m, text in UNENCODABLE:
        with pytest.raises(msg.ClusterMsgError) as info:
            msg.encode(m)
        assert str(info.value).startswith(text), (m, text)


def _hb(state: bytes) -> bytes:
    """An ``hb`` whose state is the raw bytes `state`."""
    return struct.pack("<BHqH", msg.TAGS["hb"], 5, 3, len(state)) \
        + b"node0" + state


PUT_WIRE = msg.encode(PUT)
RESP_WIRE = bytes.fromhex(PINNED["resp"][1])


#: Datagrams `decode` must refuse, and the start of its error text.
GARBAGE = {
    "empty": (b"", "empty datagram"),
    "tag-0": (b"\x00", "unknown message tag 0"),
    # Garbage of the JSON wire format, under the names these cases had
    # when JSON was refused by its parser: its opening bytes are not tags.
    # pytest prints "\xff" in an id as the four characters of its escape.
    "\xff\xfe-not a cluster message: 'utf-8' codec":
        (b"\xff\xfe", "unknown message tag 255"),
    "{-not a cluster message: Expecting property name":
        (b"{", "unknown message tag 123"),
    "\xef\xbb\xbf{}-not a cluster message: ":
        (b"\xef\xbb\xbf{}", "unknown message tag 239"),
    "[1]-message is list, not object": (b"[1]", "unknown message tag 91"),
    "wal-record-tag": (bytes([msg.TAGS["record"]]) + PUT_WIRE[1:],
                       "unknown message tag 16"),
    "json": (b'{"kind":"put"}', "unknown message tag 123"),
    "short-header": (PUT_WIRE[:5],
                     "put message: unpack_from requires a buffer"),
    "length-past-the-end": (PUT_WIRE[:-1],
                            "put message: 22 bytes disagree with its layout"),
    "trailing-byte": (PUT_WIRE + b"\n",
                      "put message: 24 bytes disagree with its layout"),
    "invalid-utf8": (_hb(b"\xff"), "hb message: 'utf-8' codec can't decode"),
    "lone-surrogate": (_hb(b"\xed\xa0\x80"),
                       "hb message: 'utf-8' codec can't decode"),
    "bool-2": (RESP_WIRE[:9] + b"\x02" + RESP_WIRE[10:],
               "resp message: 42 bytes disagree with its layout"),
    "none-flag-with-value": (RESP_WIRE[:12] + b"\x00" + RESP_WIRE[13:],
                             "resp message: 42 bytes disagree with its "
                             "layout"),
}


@pytest.mark.parametrize("data, text", GARBAGE.values(), ids=GARBAGE)
def test_decode_refuses_garbage_with_a_typed_error(data, text):
    with pytest.raises(msg.ClusterMsgError) as info:
        msg.decode(data)
    assert str(info.value).startswith(text)


def test_decode_refuses_surrounding_bytes():
    for wire in (PUT_WIRE, RESP_WIRE):
        for data in (b" " + wire, wire + b"\n", b" " + wire + b"\n"):
            with pytest.raises(msg.ClusterMsgError):
                msg.decode(data)


def test_codec_refuses_wire_kinds_and_types_its_rows():
    with pytest.raises(ValueError):
        msg.codec("put")
    pack, unpack = msg.codec("record")
    assert unpack(pack("k", None, 3)) == ("k", None, 3)
    with pytest.raises(msg.ClusterMsgError, match="'value' is int"):
        pack("k", 1, 3)


# -- the entry limit --------------------------------------------------------

def test_max_entry_is_what_every_carrier_can_hold():
    sender = "n" * msg.MAX_NODE_ID
    value = "x" * (msg.MAX_ENTRY - 1)
    carriers = [
        len(msg.encode({"kind": "repl", "from": sender, "req": 1,
                        "key": "k", "value": value, "version": 1})),
        len(msg.encode({"kind": "sync", "from": sender, "req": 0,
                        "entries": [("k", value, 1)]})),
        len(msg.encode({**PINNED["resp"][0], "err": None,
                        "value": "k" + value})),
    ]
    assert max(carriers) == msg.MAX_DATAGRAM        # the bound is tight
    pack, _ = msg.codec("record")
    assert len(pack("k", value, 1)) <= msg.MAX_RECORD
    assert msg.entry_size("k", value) == len(msg.encode(
        {"kind": "sync", "from": "", "req": 0, "entries": [("k", value, 1)]}
    )) - msg.fixed_size("sync")
