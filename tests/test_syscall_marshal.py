"""Marshalling tests including hypothesis roundtrips (the marshalling
obligation, checked dynamically)."""

import collections
import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nros.syscall import abi
from repro.nros.syscall.marshal import (
    U64_MAX,
    MarshalError,
    marshal,
    marshal_call,
    unmarshal,
    unmarshal_call,
)

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.binary(max_size=64),
    st.text(max_size=32),
)
value_strategy = st.recursive(
    scalar, lambda inner: st.tuples(inner, inner), max_leaves=8
)


class TestRoundtrips:
    @given(value_strategy)
    def test_roundtrip(self, value):
        assert unmarshal(marshal(value)) == value

    @given(st.integers(0, 2**64 - 1))
    def test_u64(self, value):
        assert unmarshal(marshal(value)) == value

    @given(st.integers(-(2**63), -1))
    def test_negative(self, value):
        assert unmarshal(marshal(value)) == value

    def test_bool_not_confused_with_int(self):
        assert unmarshal(marshal(True)) is True
        assert unmarshal(marshal(1)) == 1
        assert unmarshal(marshal(1)) is not True or unmarshal(marshal(1)) == 1

    @given(st.integers(1, 20), st.lists(st.integers(0, 100), max_size=4))
    def test_call_roundtrip(self, number, args):
        encoded = marshal_call(number, tuple(args))
        got_number, got_args = unmarshal_call(encoded)
        assert got_number == number
        assert got_args == tuple(args)

    def test_unicode_string(self):
        assert unmarshal(marshal("héllo wörld ☃")) == "héllo wörld ☃"

    def test_empty_containers(self):
        assert unmarshal(marshal(())) == ()
        assert unmarshal(marshal(b"")) == b""
        assert unmarshal(marshal("")) == ""


class TestScaling:
    """The tuple encoder joins element encodings once (no repeated
    ``bytes + bytes`` accumulation), so encoding cost is linear in the
    payload.  The ring leans on this: a 64-entry batch marshals 64
    argument tuples per enter."""

    def test_large_flat_tuple_roundtrip(self):
        value = tuple(range(2000)) + tuple(
            bytes([i % 256]) * (i % 7) for i in range(500)
        )
        assert unmarshal(marshal(value)) == value

    def test_encoding_scales_linearly(self):
        import time

        def cost(n):
            value = tuple(b"x" * 16 for _ in range(n))
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                marshal(value)
                best = min(best, time.perf_counter() - t0)
            return best

        small, large = cost(500), cost(5000)
        # 10x the elements: quadratic accumulation would be ~100x the
        # time; allow a generous 30x for noise on a loaded machine.
        assert large < small * 30, (
            f"marshal scaled superlinearly: 500 elems {small:.6f}s, "
            f"5000 elems {large:.6f}s"
        )


class TestErrors:
    def test_oversized_int(self):
        with pytest.raises(MarshalError):
            marshal(1 << 64)
        with pytest.raises(MarshalError):
            marshal(-(1 << 63) - 1)

    def test_unsupported_type(self):
        with pytest.raises(MarshalError):
            marshal([1, 2, 3])
        with pytest.raises(MarshalError):
            marshal(3.14)

    def test_empty_buffer(self):
        with pytest.raises(MarshalError):
            unmarshal(b"")

    def test_unknown_tag(self):
        with pytest.raises(MarshalError):
            unmarshal(b"\xff")

    def test_truncations_all_detected(self):
        encoded = marshal((1, b"abc", "def", (2, None)))
        for cut in range(len(encoded)):
            with pytest.raises(MarshalError):
                unmarshal(encoded[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(MarshalError):
            unmarshal(marshal(5) + b"\x00")

    def test_bad_bool_payload(self):
        with pytest.raises(MarshalError):
            unmarshal(bytes([0x02, 7]))

    def test_bad_utf8(self):
        buf = bytes([0x04]) + (2).to_bytes(8, "little") + b"\xff\xfe"
        with pytest.raises(MarshalError):
            unmarshal(buf)

    def test_call_must_be_tuple(self):
        with pytest.raises(MarshalError):
            unmarshal_call(marshal(5))
        with pytest.raises(MarshalError):
            unmarshal_call(marshal(()))
        with pytest.raises(MarshalError):
            unmarshal_call(marshal(("not-a-number", 1)))


# -- the wire format, pinned ------------------------------------------------
#
# `reference_marshal` / `reference_unmarshal` are the recursive,
# concatenate-per-word codec the module shipped before its encoder became
# one `struct.Struct` per tagged word.  They stay here as the oracle: the
# module under test must produce the same bytes, the same values and the
# same `MarshalError` texts.

def _ref_pack_u64(value: int) -> bytes:
    return value.to_bytes(8, "little")


def _ref_unpack_u64(buf: bytes, offset: int) -> tuple[int, int]:
    if offset + 8 > len(buf):
        raise MarshalError(f"truncated u64 at offset {offset}")
    return int.from_bytes(buf[offset : offset + 8], "little"), offset + 8


def reference_marshal(value) -> bytes:
    if value is None:
        return bytes([0x06])
    if isinstance(value, bool):
        return bytes([0x02, 1 if value else 0])
    if isinstance(value, int):
        if 0 <= value <= U64_MAX:
            return bytes([0x01]) + _ref_pack_u64(value)
        if -(1 << 63) <= value < (1 << 63):
            return bytes([0x07]) + _ref_pack_u64(value & U64_MAX)
        raise MarshalError(f"integer {value} does not fit in 64 bits")
    if isinstance(value, bytes):
        return bytes([0x03]) + _ref_pack_u64(len(value)) + value
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return bytes([0x04]) + _ref_pack_u64(len(payload)) + payload
    if isinstance(value, tuple):
        parts = [bytes([0x05]), _ref_pack_u64(len(value))]
        parts.extend(reference_marshal(item) for item in value)
        return b"".join(parts)
    raise MarshalError(f"cannot marshal {type(value).__name__}")


def reference_unmarshal(buf: bytes) -> object:
    value, offset = _ref_unmarshal_at(buf, 0)
    if offset != len(buf):
        raise MarshalError(f"{len(buf) - offset} trailing bytes after value")
    return value


def _ref_unmarshal_at(buf: bytes, offset: int) -> tuple[object, int]:
    if offset >= len(buf):
        raise MarshalError("empty buffer")
    tag = buf[offset]
    offset += 1
    if tag == 0x06:
        return None, offset
    if tag == 0x02:
        if offset >= len(buf):
            raise MarshalError("truncated bool")
        flag = buf[offset]
        if flag not in (0, 1):
            raise MarshalError(f"bad bool payload {flag}")
        return bool(flag), offset + 1
    if tag == 0x01:
        return _ref_unpack_u64(buf, offset)
    if tag == 0x07:
        raw, offset = _ref_unpack_u64(buf, offset)
        if raw >= 1 << 63:
            raw -= 1 << 64
        return raw, offset
    if tag == 0x03:
        length, offset = _ref_unpack_u64(buf, offset)
        if offset + length > len(buf):
            raise MarshalError("truncated bytes payload")
        return bytes(buf[offset : offset + length]), offset + length
    if tag == 0x04:
        length, offset = _ref_unpack_u64(buf, offset)
        if offset + length > len(buf):
            raise MarshalError("truncated string payload")
        try:
            return buf[offset : offset + length].decode("utf-8"), offset + length
        except UnicodeDecodeError as exc:
            raise MarshalError(f"bad UTF-8: {exc}") from exc
    if tag == 0x05:
        count, offset = _ref_unpack_u64(buf, offset)
        if count > len(buf):
            raise MarshalError(f"implausible tuple arity {count}")
        items = []
        for _ in range(count):
            item, offset = _ref_unmarshal_at(buf, offset)
            items.append(item)
        return tuple(items), offset
    raise MarshalError(f"unknown tag {tag:#x} at offset {offset - 1}")


def outcome(fn, arg):
    """What a codec call did: its value *and type*, or its error text."""
    try:
        value = fn(arg)
    except MarshalError as exc:
        return ("error", str(exc))
    return ("ok", type(value), value)


class Errno(enum.IntEnum):
    EPERM = 1
    NEGATIVE = -5


class Pair(collections.namedtuple("Pair", "vaddr length")):
    pass


class Blob(bytes):
    pass


class Name(str):
    pass


GOLDEN = [
    (None, "06"),
    (True, "0201"),
    (False, "0200"),
    (0, "010000000000000000"),
    (U64_MAX, "01ffffffffffffffff"),
    (-1, "07ffffffffffffffff"),
    (-(1 << 63), "070000000000000080"),
    (b"", "030000000000000000"),
    (b"ab", "0302000000000000006162"),
    ("é", "040200000000000000c3a9"),
    ((), "050000000000000000"),
    ((1, (b"x", None), "s"),
     "050300000000000000" "010100000000000000"
     "050200000000000000" "03010000000000000078" "06"
     "04010000000000000073"),
]

wire_scalar = st.one_of(
    scalar,
    st.sampled_from(list(Errno)),
    st.binary(max_size=8).map(Blob),
    st.text(max_size=8).map(Name),
    st.tuples(st.integers(0, U64_MAX), st.integers(0, 4096)).map(
        lambda t: Pair(*t)),
    # unsupported or out of range: the error text is part of the format
    st.floats(allow_nan=False),
    st.integers(min_value=1 << 64, max_value=1 << 70),
    st.integers(min_value=-(1 << 70), max_value=-(1 << 63) - 1),
    st.lists(st.integers(0, 3), max_size=2),
)
wire_value = st.recursive(
    wire_scalar,
    lambda inner: st.lists(inner, max_size=5).map(tuple),
    max_leaves=12,
)


class TestWireFormatPinned:
    @pytest.mark.parametrize("value, hexbytes", GOLDEN,
                             ids=[repr(v) for v, _ in GOLDEN])
    def test_golden_bytes(self, value, hexbytes):
        wire = bytes.fromhex(hexbytes)
        assert marshal(value) == wire
        assert outcome(unmarshal, wire) == ("ok", type(value), value)

    def test_golden_syscall_request(self):
        number = abi.SYSCALLS["write"]
        wire = bytes.fromhex(
            "050300000000000000" "010d00000000000000"
            "010300000000000000" "0302000000000000006869")
        assert number == 13
        assert marshal_call(number, (3, b"hi")) == wire
        assert unmarshal_call(wire) == (13, (3, b"hi"))

    @given(wire_value)
    def test_encoder_matches_reference(self, value):
        assert outcome(marshal, value) == outcome(reference_marshal, value)

    def test_subclasses_encode_as_their_base_type(self):
        assert marshal(Errno.EPERM) == marshal(1)
        assert marshal(Errno.NEGATIVE) == marshal(-5)
        assert marshal(Pair(7, 8)) == marshal((7, 8))
        assert marshal(Blob(b"ab")) == marshal(b"ab")
        assert type(marshal(Blob(b""))) is bytes
        assert marshal(Name("é")) == marshal("é")
        assert marshal((True, 1)) == bytes.fromhex("050200000000000000"
                                                   "0201" "010100000000000000")

    @given(wire_value)
    def test_decoder_matches_reference_on_valid_buffers(self, value):
        try:
            wire = reference_marshal(value)
        except MarshalError:
            return
        assert outcome(unmarshal, wire) == outcome(reference_unmarshal, wire)

    @given(st.binary(max_size=48))
    def test_decoder_matches_reference_on_garbage(self, buf):
        assert outcome(unmarshal, buf) == outcome(reference_unmarshal, buf)

    @given(wire_value, st.data())
    def test_decoder_matches_reference_on_damaged_buffers(self, value, data):
        try:
            wire = bytearray(reference_marshal(value))
        except MarshalError:
            return
        index = data.draw(st.integers(0, len(wire) - 1))
        wire[index] = data.draw(st.integers(0, 255))
        buf = bytes(wire)
        assert outcome(unmarshal, buf) == outcome(reference_unmarshal, buf)

    @pytest.mark.parametrize("value", [
        (1, b"abc", "def", (2, None)),
        (13, 3, b"hi", True, -7),
        ("é", (), ((1, 2), (False,)), b""),
    ], ids=["mixed", "call", "nested"])
    def test_every_strict_prefix_fails_with_the_reference_text(self, value):
        wire = marshal(value)
        for cut in range(len(wire)):
            expected = outcome(reference_unmarshal, wire[:cut])
            assert expected[0] == "error"
            assert outcome(unmarshal, wire[:cut]) == expected, cut

    def test_truncation_texts(self):
        """The texts a user of the kernel's EBADMSG path sees, by offset."""
        wire = marshal((1, b"abc", "def"))
        texts = {cut: outcome(unmarshal, wire[:cut])[1]
                 for cut in (0, 1, 9, 10, 18, 19, 27, 30, 31, 39)}
        assert texts == {
            0: "empty buffer",
            1: "truncated u64 at offset 1",
            9: "empty buffer",
            10: "truncated u64 at offset 10",
            18: "empty buffer",
            19: "truncated u64 at offset 19",
            27: "truncated bytes payload",
            30: "empty buffer",
            31: "truncated u64 at offset 31",
            39: "truncated string payload",
        }
        assert outcome(unmarshal, b"\x02") == ("error", "truncated bool")
        assert outcome(unmarshal, b"\x02\x07") == ("error",
                                                   "bad bool payload 7")
        assert outcome(unmarshal, b"\x06\x00") == (
            "error", "1 trailing bytes after value")
        assert outcome(unmarshal, b"\x05" + (99).to_bytes(8, "little")) == (
            "error", "implausible tuple arity 99")
        assert outcome(unmarshal, b"\x05" + (1).to_bytes(8, "little")
                       + b"\x09") == ("error", "unknown tag 0x9 at offset 9")

    def test_decodes_a_bytearray_slot(self):
        wire = bytearray(marshal((b"ab", "cd", 5)))
        assert outcome(unmarshal, wire) == ("ok", tuple, (b"ab", "cd", 5))
        assert type(unmarshal(wire)[0]) is bytes
