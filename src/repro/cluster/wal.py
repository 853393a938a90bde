"""Per-node durable write-ahead log on the node's own verified FS.

Every applied write/delete of a cluster node becomes one versioned,
checksummed record here.  The node logs an inbox pass's records with
one :meth:`NodeWal.append` — one file write, which returns only once
every frame is on the platter — and nothing the pass sends leaves
before it returns.  The writes go through the normal file API
(:class:`~repro.nros.fs.fd.FdTable` over :class:`~repro.nros.fs.fs
.FileSystem` over the block driver and simulated disk), so durability
rests on exactly the stack the PR 2 crash matrix hardened.

Layout (one generation live at a time, all files in the volume root)::

    /snap.<g>   committed snapshot: the full KV state when /wal.<g>
                started, ending in a checksummed commit marker
    /wal.<g>    appended records since that snapshot
    /snap.tmp   an in-progress compaction (invisible until renamed)

Compaction rotates generation ``g`` to ``g+1`` in crash-safe order:

1. write the current state, finished by a commit marker carrying the
   record count, into ``/snap.tmp`` — as one sequential write, so the
   cost is per sector, not per record;
2. create the empty ``/wal.<g+1>``;
3. ``rename("/snap.tmp", "/snap.<g+1>")`` — the **commit point**: a
   rename inside one directory is a single atomic slot write (the
   property the PR 2 matrix forced the directory format to have);
4. unlink ``/wal.<g>`` and ``/snap.<g>``.

A crash anywhere in that sequence leaves either generation ``g`` or
``g+1`` fully recoverable (plus at worst resource leaks fsck classes as
recoverable).  Recovery picks the newest snapshot whose commit marker
verifies, replays every surviving WAL generation at or above it in
ascending order (records are version-guarded and idempotent, so replay
order across duplicate keys cannot matter), ignores a torn tail — a
record half-written when power died was never acknowledged — and then
rewrites a single clean generation so stale files from the crash are
swept in one pass.

Record framing: ``MAGIC | payload-length (u32 LE) | blake2b-8 of the
payload | payload``, where the payload is one row of
:data:`~repro.cluster.messages.LAYOUTS` in its binary layout: a
``record`` ``(key, value, version)`` — a deleted key is a tombstone
(value None) — or, ending a snapshot, a ``commit`` marker ``(record
count, generation)``.  :func:`decode_records` returns a marker as the
triple ``(None, record_count, generation)``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.cluster import messages as msg
from repro.nros.fs import fd as fdmod
from repro.nros.fs.alloc import NoSpace
from repro.nros.fs.fs import FileTooBig

#: Frame prefix of every record.
MAGIC = b"WALR"
#: Bytes of the blake2b digest guarding each payload.
CHECKSUM_BYTES = 8
#: MAGIC + u32 payload length + checksum.
HEADER_BYTES = len(MAGIC) + 4 + CHECKSUM_BYTES
#: Default appends per WAL generation before compaction rotates it.
COMPACT_EVERY = 256

#: The key :func:`decode_records` gives a snapshot's commit marker.
_COMMIT_KEY = None

_pack_record, _unpack_record = msg.codec("record")
_pack_commit, _unpack_commit = msg.codec("commit")
_COMMIT_TAG_BYTE = bytes([msg.TAGS["commit"]])

#: What a write raises when the volume (or one file) has no room left.
VOLUME_FULL = (NoSpace, FileTooBig)


class WalCorrupt(Exception):
    """A WAL/snapshot file whose framing or checksum does not verify
    (recovery treats this as end-of-valid-data, not as fatal)."""


def _checksum(payload: bytes) -> bytes:
    return blake2b(payload, digest_size=CHECKSUM_BYTES).digest()


def _frame(payload: bytes) -> bytes:
    return (MAGIC + struct.pack("<I", len(payload))
            + _checksum(payload) + payload)


def encode_record(key: str, value: str | None, version: int) -> bytes:
    """One framed, checksummed record."""
    return _frame(_pack_record(key, value, version))


def encode_commit(records: int, gen: int) -> bytes:
    """The framed commit marker ending a snapshot of `records` records."""
    return _frame(_pack_commit(records, gen))


def decode_records(data: bytes) -> tuple[list[tuple], bool]:
    """Parse a record stream; returns ``(records, clean_tail)``.

    Stops at the first frame that fails to verify: a torn tail (power
    died mid-append) yields every record before it and ``False``."""
    records: list[tuple] = []
    offset = 0
    while offset < len(data):
        header = data[offset:offset + HEADER_BYTES]
        if len(header) < HEADER_BYTES or header[:len(MAGIC)] != MAGIC:
            return records, False
        (length,) = struct.unpack_from("<I", header, len(MAGIC))
        if length > msg.MAX_RECORD:
            return records, False
        payload = data[offset + HEADER_BYTES:offset + HEADER_BYTES + length]
        if len(payload) < length:
            return records, False
        if _checksum(payload) != header[len(MAGIC) + 4:HEADER_BYTES]:
            return records, False
        try:
            if payload[:1] == _COMMIT_TAG_BYTE:
                records.append((_COMMIT_KEY, *_unpack_commit(payload)))
            else:
                records.append(_unpack_record(payload))
        except msg.ClusterMsgError:
            return records, False
        offset += HEADER_BYTES + length
    return records, True


@dataclass
class WalRecovery:
    """What one restart found on the platter."""

    snapshot_gen: int | None = None
    entries: dict = field(default_factory=dict)  # key -> (value, version)
    replayed_records: int = 0
    torn_tails: int = 0
    cleaned_files: list[str] = field(default_factory=list)


class NodeWal:
    """The durable log of one node's shard, plus its compaction."""

    def __init__(self, fdtable: fdmod.FdTable, gen: int, wal_fd: int,
                 compact_every: int = COMPACT_EVERY) -> None:
        self.fdtable = fdtable
        self.gen = gen
        self.compact_every = compact_every
        self._wal_fd = wal_fd
        self.appended = 0        # records in the live WAL generation
        self._compact_at = compact_every  # `appended` that triggers one
        self.total_appends = 0
        self.compactions = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def open(cls, fdtable: fdmod.FdTable,
             compact_every: int = COMPACT_EVERY
             ) -> tuple["NodeWal", WalRecovery]:
        """Mount-time entry point: recover whatever generations survived
        (none, on a fresh volume), then leave exactly one clean
        ``(snap, wal)`` generation pair on disk."""
        fs = fdtable.fs
        snaps, wals, stray = cls._scan(fs)
        recovery = WalRecovery()
        if not snaps and not wals and not stray:
            wal = cls(fdtable, gen=0,
                      wal_fd=cls._create(fdtable, "/wal.0"),
                      compact_every=compact_every)
            return wal, recovery

        # newest snapshot whose commit marker verifies wins
        for gen in sorted(snaps, reverse=True):
            entries = cls._read_snapshot(fdtable, gen)
            if entries is not None:
                recovery.snapshot_gen = gen
                recovery.entries = entries
                break
        base = recovery.snapshot_gen if recovery.snapshot_gen is not None \
            else 0
        for gen in sorted(g for g in wals if g >= base):
            records, clean = cls._read_records(fdtable, f"/wal.{gen}")
            if not clean:
                recovery.torn_tails += 1
            for key, value, version in records:
                if key is _COMMIT_KEY:
                    continue
                current = recovery.entries.get(key)
                if current is None or current[1] < version:
                    recovery.entries[key] = (value, version)
                recovery.replayed_records += 1

        # sweep crash leftovers first (an interrupted compaction's
        # /snap.tmp), then rewrite one clean generation above everything
        for name in stray:
            fs.unlink(name)
            recovery.cleaned_files.append(name)
        new_gen = max(list(snaps) + list(wals) + [0]) + 1
        wal = cls(fdtable, gen=new_gen, wal_fd=-1,
                  compact_every=compact_every)
        wal._write_snapshot("/snap.tmp", recovery.entries, new_gen)
        wal._wal_fd = cls._create(fdtable, f"/wal.{new_gen}")
        fs.rename("/snap.tmp", f"/snap.{new_gen}")
        for gen in sorted(wals):
            fs.unlink(f"/wal.{gen}")
            recovery.cleaned_files.append(f"/wal.{gen}")
        for gen in sorted(snaps):
            fs.unlink(f"/snap.{gen}")
            recovery.cleaned_files.append(f"/snap.{gen}")
        return wal, recovery

    @staticmethod
    def _scan(fs) -> tuple[set[int], set[int], list[str]]:
        """Generations (and strays like ``/snap.tmp``) on the volume."""
        snaps: set[int] = set()
        wals: set[int] = set()
        stray: list[str] = []
        for name in fs.readdir("/"):
            kind, _, suffix = name.partition(".")
            if kind == "snap" and suffix.isdigit():
                snaps.add(int(suffix))
            elif kind == "wal" and suffix.isdigit():
                wals.add(int(suffix))
            elif kind in ("snap", "wal"):
                stray.append(f"/{name}")
        return snaps, wals, stray

    @staticmethod
    def _create(fdtable: fdmod.FdTable, path: str) -> int:
        return fdtable.open(path, fdmod.O_CREAT | fdmod.O_WRONLY
                            | fdmod.O_APPEND)

    @classmethod
    def _read_records(cls, fdtable: fdmod.FdTable,
                      path: str) -> tuple[list[tuple], bool]:
        fd = fdtable.open(path, fdmod.O_RDONLY)
        try:
            chunks = []
            while True:
                chunk = fdtable.read(fd, 64 * 1024)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            fdtable.close(fd)
        return decode_records(b"".join(chunks))

    @classmethod
    def _read_snapshot(cls, fdtable: fdmod.FdTable,
                       gen: int) -> dict | None:
        """The snapshot's entries, or None if its commit marker is
        missing/ wrong (a compaction that never reached its rename)."""
        records, clean = cls._read_records(fdtable, f"/snap.{gen}")
        if not clean or not records:
            return None
        marker = records[-1]
        if marker[0] is not _COMMIT_KEY or marker[1] != len(records) - 1:
            return None
        entries = {}
        for key, value, version in records[:-1]:
            if key is _COMMIT_KEY:
                return None
            entries[key] = (value, version)
        return entries

    # -- the hot path -------------------------------------------------------

    def append(self, records) -> None:
        """Durably log a batch of ``(key, value, version)`` records with
        one write; it returns once all of them are on the platter.  A
        :class:`~repro.hw.devices.disk.DiskCrash` escaping here leaves
        at most a prefix of the batch readable — replay ignores a torn
        frame, and none of the batch was acknowledged."""
        self.fdtable.write(self._wal_fd, b"".join(
            [encode_record(key, value, version)
             for key, value, version in records]))
        self.appended += len(records)
        self.total_appends += len(records)

    def should_compact(self) -> bool:
        return self.appended >= self._compact_at

    def compact(self, state: dict) -> int:
        """Fold `state` (key -> (value, version)) into the next
        generation's snapshot; crash-safe per the module docstring.
        Returns the snapshot's size in bytes.

        A volume too full for the snapshot (:data:`VOLUME_FULL`) costs
        nothing but the attempt: the partial ``/snap.tmp`` is removed,
        generation ``g`` stays live, the error propagates, and the next
        attempt waits for another `compact_every` appends."""
        fs = self.fdtable.fs
        old_gen, old_fd = self.gen, self._wal_fd
        new_gen = self.gen + 1
        try:
            written = self._write_snapshot("/snap.tmp", state, new_gen)
            new_fd = self._create(self.fdtable, f"/wal.{new_gen}")
        except VOLUME_FULL:
            self._compact_at = self.appended + self.compact_every
            if fs.exists("/snap.tmp"):
                fs.unlink("/snap.tmp")
            raise
        fs.rename("/snap.tmp", f"/snap.{new_gen}")
        # the rename committed generation new_gen; everything below is
        # cleanup a crash may skip and the next recovery will redo
        self.gen, self._wal_fd, self.appended = new_gen, new_fd, 0
        self._compact_at = self.compact_every
        self.compactions += 1
        self.fdtable.close(old_fd)
        fs.unlink(f"/wal.{old_gen}")
        if fs.exists(f"/snap.{old_gen}"):
            fs.unlink(f"/snap.{old_gen}")
        return written

    def _write_snapshot(self, path: str, state: dict, gen: int) -> int:
        """Stream `state` plus its commit marker into `path` as one
        sequential write (the filesystem pays per sector, not per
        record); returns the bytes written.  Nothing of it is visible
        before the inode's new size lands (after the last data sector),
        and nothing of it counts before the trailing commit marker
        verifies."""
        if self.fdtable.fs.exists(path):
            self.fdtable.fs.unlink(path)  # a stray from a crashed run
        frames = [encode_record(key, *state[key]) for key in sorted(state)]
        frames.append(encode_commit(len(frames), gen))
        fd = self.fdtable.open(path, fdmod.O_CREAT | fdmod.O_WRONLY)
        try:
            return self.fdtable.write(fd, b"".join(frames))
        finally:
            self.fdtable.close(fd)

    # -- introspection ------------------------------------------------------

    def files(self) -> list[str]:
        """The WAL-owned files currently on the volume (for tests)."""
        return sorted(f"/{name}" for name in self.fdtable.fs.readdir("/")
                      if name.partition(".")[0] in ("snap", "wal"))
