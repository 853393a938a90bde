"""The cluster wire codec: canonical JSON, byte for byte."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import messages as msg


def canonical(value) -> bytes:
    """The format's definition: sorted keys, no whitespace, ASCII-escaped."""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


json_leaf = st.one_of(
    st.none(), st.booleans(),
    st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)
message = st.builds(
    lambda kind, fields: {**fields, "kind": kind},
    st.sampled_from(msg.ALL_KINDS),
    st.dictionaries(st.text(max_size=6), json_value, max_size=5),
)


@given(message)
def test_encode_is_canonical_json(m):
    wire = msg.encode(m)
    assert wire == canonical(m)
    assert msg.decode(wire) == json.loads(wire)


def test_one_message_pinned_as_bytes():
    m = {"kind": "put", "key": "clé", "value": {"b": [1, None], "a": "x"},
         "client": 7, "req": 42}
    wire = (b'{"client":7,"key":"cl\\u00e9","kind":"put","req":42,'
            b'"value":{"a":"x","b":[1,null]}}')
    assert msg.encode(m) == wire
    assert msg.decode(wire) == m


def test_encode_refuses_unknown_kinds_and_unencodable_values():
    with pytest.raises(msg.ClusterMsgError, match="unknown message kind 'x'"):
        msg.encode({"kind": "x"})
    with pytest.raises(msg.ClusterMsgError, match="unknown message kind None"):
        msg.encode({})
    with pytest.raises(TypeError):
        msg.encode({"kind": "put", "value": b"bytes"})


@pytest.mark.parametrize("data, text", [
    (b"\xff\xfe", "not a cluster message: 'utf-8' codec"),
    (b"{", "not a cluster message: Expecting property name"),
    (b'{"kind":"put"} x', "not a cluster message: Extra data"),
    (b"\xef\xbb\xbf{}", "not a cluster message: "),   # a BOM is not JSON
    (b"[1]", "message is list, not object"),
    (b'{"kind":"nope"}', "unknown message kind 'nope'"),
    (b"{}", "unknown message kind None"),
])
def test_decode_refuses_garbage_with_a_typed_error(data, text):
    with pytest.raises(msg.ClusterMsgError) as info:
        msg.decode(data)
    assert str(info.value).startswith(text)


def test_decode_ignores_surrounding_whitespace_like_json_loads():
    assert msg.decode(b' {"kind": "hb"}\n') == {"kind": "hb"}
