"""Syscall argument marshalling (the paper's *marshalling obligation*).

"We can prove that values correctly round-trip through serialization and
deserialization so that syscall arguments are consistent between user-space
and kernel-space."  This module is that serialization library: a small,
self-describing binary format for the types syscalls exchange (unsigned
words, booleans, byte strings, UTF-8 strings, and flat tuples thereof).

Layout: every value is a 1-byte tag followed by its payload; integers are
little-endian u64, byte strings are length-prefixed (u64).  The roundtrip
property is checked three ways: hypothesis tests, SMT lemmas over the word
encoding (`marshal-lemmas`), and the contract VCs that marshal real syscall
argument tuples.
"""

from __future__ import annotations

import struct

TAG_U64 = 0x01
TAG_BOOL = 0x02
TAG_BYTES = 0x03
TAG_STR = 0x04
TAG_TUPLE = 0x05
TAG_NONE = 0x06
TAG_I64 = 0x07

U64_MAX = (1 << 64) - 1


class MarshalError(Exception):
    """Unsupported value or malformed buffer."""


# Every tag but NONE and BOOL is followed by one u64 (the value, or the
# length / arity of what follows): one tagged word, packed and unpacked
# in a single call.
_WORD = struct.Struct("<BQ")
_pack_word = _WORD.pack
_unpack_word = _WORD.unpack_from

_NONE = bytes([TAG_NONE])
_FALSE, _TRUE = bytes([TAG_BOOL, 0]), bytes([TAG_BOOL, 1])
_WIRE_TYPES = (bool, int, bytes, str, tuple)  # bool first: it is an int subtype
_WORD_TAGS = frozenset((TAG_U64, TAG_I64, TAG_BYTES, TAG_STR, TAG_TUPLE))


def marshal(value) -> bytes:
    """Serialize a supported value to bytes."""
    # Every word and payload is appended to one list and joined once, so
    # marshalling an N-item tuple stays linear in the payload however
    # deeply it nests (test_syscall_marshal pins the scaling).
    parts: list[bytes] = []
    _marshal_into(parts.append, value)
    return b"".join(parts)


def _marshal_into(emit, value) -> None:
    kind = type(value)
    if kind not in _WIRE_TYPES and value is not None:
        # a subclass (IntEnum, namedtuple, ...) encodes as its base type
        for kind in _WIRE_TYPES:
            if isinstance(value, kind):
                break
        else:
            raise MarshalError(f"cannot marshal {type(value).__name__}")
    if kind is int:
        if 0 <= value <= U64_MAX:
            emit(_pack_word(TAG_U64, value))
        elif -(1 << 63) <= value < 0:
            emit(_pack_word(TAG_I64, value & U64_MAX))
        else:
            raise MarshalError(f"integer {value} does not fit in 64 bits")
    elif kind is tuple:
        emit(_pack_word(TAG_TUPLE, len(value)))
        for item in value:
            _marshal_into(emit, item)
    elif kind is bytes:
        emit(_pack_word(TAG_BYTES, len(value)))
        emit(value)
    elif kind is str:
        payload = value.encode("utf-8")
        emit(_pack_word(TAG_STR, len(payload)))
        emit(payload)
    elif kind is bool:
        emit(_TRUE if value else _FALSE)
    else:  # None: the one value the type test above lets through
        emit(_NONE)


def unmarshal(buf: bytes) -> object:
    """Deserialize one value; the whole buffer must be consumed."""
    value, offset = _unmarshal_at(buf, 0)
    if offset != len(buf):
        raise MarshalError(
            f"{len(buf) - offset} trailing bytes after value"
        )
    return value


def _unmarshal_at(buf: bytes, offset: int) -> tuple[object, int]:
    end = len(buf)
    if offset >= end:
        raise MarshalError("empty buffer")
    tag = buf[offset]
    if tag == TAG_NONE:
        return None, offset + 1
    if tag == TAG_BOOL:
        if offset + 1 >= end:
            raise MarshalError("truncated bool")
        flag = buf[offset + 1]
        if flag not in (0, 1):
            raise MarshalError(f"bad bool payload {flag}")
        return bool(flag), offset + 2
    if tag not in _WORD_TAGS:
        raise MarshalError(f"unknown tag {tag:#x} at offset {offset}")
    if offset + _WORD.size > end:
        raise MarshalError(f"truncated u64 at offset {offset + 1}")
    _, word = _unpack_word(buf, offset)
    offset += _WORD.size
    if tag == TAG_U64:
        return word, offset
    if tag == TAG_I64:
        return (word - (1 << 64) if word >= 1 << 63 else word), offset
    if tag == TAG_TUPLE:
        if word > end:  # cheap sanity bound
            raise MarshalError(f"implausible tuple arity {word}")
        items = []
        for _ in range(word):
            # the item syscalls carry most — a whole u64 word — is
            # decoded here; anything else (and every error) recurses
            if offset + _WORD.size <= end and buf[offset] == TAG_U64:
                items.append(_unpack_word(buf, offset)[1])
                offset += _WORD.size
            else:
                item, offset = _unmarshal_at(buf, offset)
                items.append(item)
        return tuple(items), offset
    if offset + word > end:
        raise MarshalError("truncated bytes payload" if tag == TAG_BYTES
                           else "truncated string payload")
    payload = buf[offset : offset + word]
    if tag == TAG_BYTES:
        return bytes(payload), offset + word
    try:
        return payload.decode("utf-8"), offset + word
    except UnicodeDecodeError as exc:
        raise MarshalError(f"bad UTF-8: {exc}") from exc


def marshal_call(syscall_number: int, args: tuple) -> bytes:
    """Encode a complete syscall request (number + argument tuple)."""
    return marshal((syscall_number,) + args)


def unmarshal_call(buf: bytes) -> tuple[int, tuple]:
    """Decode a syscall request; returns (number, args)."""
    value = unmarshal(buf)
    if not isinstance(value, tuple) or not value:
        raise MarshalError("syscall request must be a non-empty tuple")
    number = value[0]
    if not isinstance(number, int):
        raise MarshalError("syscall number must be an integer")
    return number, value[1:]
