"""The data-storage node of a distributed block store.

"As an example of the kind of application we are interested in verifying,
consider the data-storage node in a distributed block store like GFS or S3.
In fact, Amazon even describes their use of lightweight formal methods to
verify such a storage node" (Section 1, citing the S3 ShardStore paper).

This is that application, built on the full stack: blocks live as files in
the kernel's filesystem, requests arrive over the RDP reliable protocol on
the simulated network, payloads are CRC-checked end to end, and the node is
validated against a simple functional model by property-based testing —
the same "lightweight formal methods" discipline as the S3 work.

Wire protocol (marshalled tuples over RDP messages):

    ("put", key, data, crc)   -> ("ok",)            | ("err", reason)
    ("get", key)              -> ("ok", data, crc)  | ("err", "not_found")
    ("delete", key)           -> ("ok", existed)
    ("list",)                 -> ("ok", (key, ...))
    ("bye",)                  -> ("ok",)  and the connection ends
"""

from __future__ import annotations

from zlib import crc32

from repro.nros.fs.fd import O_CREAT, O_RDWR, O_TRUNC
from repro.nros.syscall.abi import SyscallError, sys
from repro.nros.syscall.marshal import MarshalError, marshal, unmarshal

BLOCKS_DIR = "/blocks"


class BlockStoreError(Exception):
    """Client-visible failure (bad checksum, server error)."""


def _key_path(key: str) -> str:
    if not key or "/" in key or key in (".", ".."):
        raise BlockStoreError(f"invalid key {key!r}")
    return f"{BLOCKS_DIR}/{key}"


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


def storage_node(port: int, num_connections: int = 1):
    """The server program (a user program generator for a Kernel).

    Serves `num_connections` client sessions then exits, so simulations
    terminate cleanly."""
    try:
        yield sys("mkdir", BLOCKS_DIR)
    except SyscallError:
        pass  # already exists
    listener = yield sys("rdp_listen", port)
    for _ in range(num_connections):
        conn = yield sys("rdp_accept", listener)
        yield from _serve_session(conn)


def _serve_session(conn: int):
    while True:
        raw = yield sys("rdp_recv", conn)
        try:
            request = unmarshal(raw)
        except MarshalError:
            yield sys("rdp_send", conn, marshal(("err", "bad_request")))
            continue
        if not isinstance(request, tuple) or not request:
            yield sys("rdp_send", conn, marshal(("err", "bad_request")))
            continue
        verb = request[0]
        if verb == "bye":
            yield sys("rdp_send", conn, marshal(("ok",)))
            return
        response = yield from _handle(verb, request[1:])
        yield sys("rdp_send", conn, marshal(response))


def _handle(verb: str, args: tuple):
    try:
        if verb == "put":
            key, data, crc = args
            if crc32(data) != crc:
                return ("err", "checksum_mismatch")
            fd = yield sys("open", _key_path(key), O_CREAT | O_RDWR | O_TRUNC)
            yield sys("write", fd, marshal((crc, data)))
            yield sys("close", fd)
            return ("ok",)
        if verb == "get":
            (key,) = args
            try:
                fd = yield sys("open", _key_path(key), O_RDWR)
            except SyscallError:
                return ("err", "not_found")
            stored = yield from _read_all(fd)
            yield sys("close", fd)
            block = _checked_block(stored)
            if block is None:
                return ("err", "corrupt_block")  # detected, never served
            return ("ok", *block)
        if verb == "delete":
            (key,) = args
            try:
                yield sys("unlink", _key_path(key))
                return ("ok", True)
            except SyscallError:
                return ("ok", False)
        if verb == "list":
            names = yield sys("readdir", BLOCKS_DIR)
            return ("ok", tuple(names))
        return ("err", f"unknown_verb:{verb}")
    except BlockStoreError as exc:
        return ("err", str(exc))
    except SyscallError as exc:
        return ("err", f"io_error:{exc.errno}")


def _checked_block(stored: bytes) -> tuple | None:
    """``(data, crc)`` from a stored block, or None when its framing or
    its checksum is damaged."""
    try:
        block = unmarshal(stored)
    except MarshalError:
        return None
    if not (isinstance(block, tuple) and len(block) == 2):
        return None
    crc, data = block
    if isinstance(data, bytes) and crc32(data) == crc:
        return (data, crc)
    return None


def _read_all(fd: int):
    out = bytearray()
    while True:
        chunk = yield sys("read", fd, 4096)
        if not chunk:
            return bytes(out)
        out += chunk


# ---------------------------------------------------------------------------
# Client library
# ---------------------------------------------------------------------------


class BlockClient:
    """Client-side library: ``yield from`` each method from user code."""

    def __init__(self, server_ip: int, port: int) -> None:
        self.server_ip = server_ip
        self.port = port
        self._conn: int | None = None

    def connect(self):
        self._conn = yield sys("rdp_connect", self.server_ip, self.port)

    def _call(self, request: tuple):
        if self._conn is None:
            raise BlockStoreError("not connected")
        yield sys("rdp_send", self._conn, marshal(request))
        raw = yield sys("rdp_recv", self._conn)
        response = unmarshal(raw)
        if response[0] == "err":
            return ("err", response[1])
        return response

    def put(self, key: str, data: bytes):
        response = yield from self._call(("put", key, data, crc32(data)))
        if response[0] == "err":
            raise BlockStoreError(f"put failed: {response[1]}")

    def get(self, key: str):
        """Returns the block data, or None when absent."""
        response = yield from self._call(("get", key))
        if response[0] == "err":
            if response[1] == "not_found":
                return None
            raise BlockStoreError(f"get failed: {response[1]}")
        _, data, crc = response
        if crc32(data) != crc:
            raise BlockStoreError("checksum mismatch on the wire")
        return data

    def delete(self, key: str):
        response = yield from self._call(("delete", key))
        if response[0] == "err":
            raise BlockStoreError(f"delete failed: {response[1]}")
        return response[1]

    def list_keys(self):
        response = yield from self._call(("list",))
        if response[0] == "err":
            raise BlockStoreError(f"list failed: {response[1]}")
        return response[1]

    def close(self):
        if self._conn is not None:
            yield from self._call(("bye",))
            yield sys("rdp_close", self._conn)
            self._conn = None


class BlockStoreModel:
    """The functional model the node is checked against — the 'reference
    model' of S3's lightweight formal methods."""

    def __init__(self) -> None:
        self.blocks: dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        self.blocks[key] = data

    def get(self, key: str) -> bytes | None:
        return self.blocks.get(key)

    def delete(self, key: str) -> bool:
        return self.blocks.pop(key, None) is not None

    def list_keys(self) -> tuple:
        return tuple(sorted(self.blocks))
