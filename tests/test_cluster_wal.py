"""The per-node WAL: framing, recovery, compaction, and its crash
matrix on the verified filesystem."""

import json
import struct
from hashlib import blake2b

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.wal import (
    HEADER_BYTES,
    VOLUME_FULL,
    NodeWal,
    decode_records,
    encode_record,
)
from repro.faults.crash import is_recoverable, run_crash_matrix
from repro.faults.plan import FaultPlan, FaultRule
from repro.hw.devices.disk import Disk, DiskCrash
from repro.nros.drivers.block import BlockDriver
from repro.nros.fs import fd as fdmod
from repro.nros.fs.fs import FileSystem
from repro.nros.fs.fsck import fsck
from tests.test_cluster_messages import json_value


def _fresh_fs(num_sectors=128):
    disk = Disk(num_sectors)
    fs = FileSystem.mkfs(BlockDriver(disk), num_inodes=64)
    return disk, fs


# -- record framing ---------------------------------------------------------


def test_codec_roundtrip():
    stream = (encode_record("a", "v1", 1)
              + encode_record("b", None, 2)        # tombstone
              + encode_record(None, 2, 7))          # commit marker
    records, clean = decode_records(stream)
    assert clean
    assert records == [("a", "v1", 1), ("b", None, 2), (None, 2, 7)]


@given(st.one_of(st.none(), st.text(max_size=12)), json_value,
       st.integers(0, 1 << 62))
def test_record_payload_is_canonical_json(key, value, version):
    payload = json.dumps([key, value, version], sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    assert encode_record(key, value, version) == (
        b"WALR" + struct.pack("<I", len(payload))
        + blake2b(payload, digest_size=8).digest() + payload)


def test_one_record_pinned_as_bytes():
    assert encode_record("clé", {"b": 1, "a": None}, 3).hex() == (
        "57414c52" "1f000000" "23dd8d48ba0277f7"
        + b'["cl\\u00e9",{"a":null,"b":1},3]'.hex())


def test_torn_tail_is_ignored_not_fatal():
    stream = encode_record("a", "v1", 1) + encode_record("b", "v2", 2)
    torn = stream[:len(stream) - 5]                  # power died mid-append
    records, clean = decode_records(torn)
    assert not clean
    assert records == [("a", "v1", 1)]


def test_corrupt_payload_fails_checksum():
    stream = bytearray(encode_record("a", "v1", 1))
    stream[HEADER_BYTES + 2] ^= 0xFF                 # flip a payload byte
    records, clean = decode_records(bytes(stream))
    assert not clean
    assert records == []


def test_garbage_prefix_stops_decode():
    records, clean = decode_records(b"not a wal record at all")
    assert not clean and records == []


# -- NodeWal lifecycle ------------------------------------------------------


def test_fresh_volume_starts_generation_zero():
    _, fs = _fresh_fs()
    wal, recovery = NodeWal.open(fdmod.FdTable(fs))
    assert wal.gen == 0
    assert recovery.entries == {}
    assert recovery.cleaned_files == []
    assert wal.files() == ["/wal.0"]


def test_reopen_recovers_appends_and_rewrites_clean_generation():
    _, fs = _fresh_fs()
    wal, _ = NodeWal.open(fdmod.FdTable(fs))
    wal.append([("k1", "a", 1), ("k2", "b", 2)])
    wal.append([("k1", "c", 4)])                     # newer version wins
    assert (wal.appended, wal.total_appends) == (3, 3)   # counts records

    wal2, recovery = NodeWal.open(fdmod.FdTable(fs))
    assert recovery.entries == {"k1": ("c", 4), "k2": ("b", 2)}
    assert recovery.replayed_records == 3
    # recovery leaves exactly one clean generation behind
    assert wal2.gen > wal.gen
    assert wal2.files() == [f"/snap.{wal2.gen}", f"/wal.{wal2.gen}"]
    # ...which a further reopen replays identically (idempotent recovery)
    _, again = NodeWal.open(fdmod.FdTable(fs))
    assert again.entries == recovery.entries


def test_compaction_rotates_generation_and_prunes_old_files():
    _, fs = _fresh_fs()
    wal, _ = NodeWal.open(fdmod.FdTable(fs), compact_every=2)
    state = {}
    for i in range(2):
        state[f"k{i}"] = (f"v{i}", i + 1)
        wal.append([(f"k{i}", f"v{i}", i + 1)])
    assert wal.should_compact()
    wal.compact(dict(state))
    assert wal.gen == 1
    assert wal.compactions == 1
    assert wal.appended == 0
    assert wal.files() == ["/snap.1", "/wal.1"]
    # the snapshot alone reproduces the state
    _, recovery = NodeWal.open(fdmod.FdTable(fs))
    assert recovery.entries == state
    assert recovery.snapshot_gen == 1


def test_stray_snapshot_tmp_is_swept_on_open():
    _, fs = _fresh_fs()
    wal, _ = NodeWal.open(fdmod.FdTable(fs))
    wal.append([("k", "v", 1)])
    # a compaction that died before its rename leaves /snap.tmp behind
    inum = fs.create("/snap.tmp")
    fs.write_at(inum, 0, b"half-written snapshot garbage")
    wal2, recovery = NodeWal.open(fdmod.FdTable(fs))
    assert "/snap.tmp" in recovery.cleaned_files
    assert recovery.entries == {"k": ("v", 1)}
    assert wal2.files() == [f"/snap.{wal2.gen}", f"/wal.{wal2.gen}"]


def test_invalid_snapshot_falls_back_to_wal_replay():
    _, fs = _fresh_fs()
    wal, _ = NodeWal.open(fdmod.FdTable(fs), compact_every=2)
    wal.append([("k0", "v0", 1), ("k1", "v1", 2)])
    wal.compact({"k0": ("v0", 1), "k1": ("v1", 2)})
    wal.append([("k2", "v2", 3)])
    # corrupt the committed snapshot: its commit marker no longer parses
    inum = fs.lookup(f"/snap.{wal.gen}")
    fs.write_at(inum, 0, b"X")
    _, recovery = NodeWal.open(fdmod.FdTable(fs))
    # snapshot rejected; the live WAL generation still yields k2
    assert recovery.snapshot_gen is None
    assert recovery.entries.get("k2") == ("v2", 3)


# -- the WAL's own crash matrix (unit level, no cluster) -------------------


def _batches(sizes) -> list[list[tuple]]:
    """Consecutive batches of the given sizes over three keys; record
    ``n`` is ``(f"k{n % 3}", f"v{n}", n + 1)``, so versions ascend."""
    batches, n = [], 0
    for size in sizes:
        batches.append([(f"k{i % 3}", f"v{i}", i + 1)
                        for i in range(n, n + size)])
        n += size
    return batches


#: The unit matrix's appends: 19 records in batches of 1-5.
_BATCHES = _batches((1, 2, 3, 4, 5, 3, 1))


def _replay(records) -> dict:
    """The state `records` leave (versions ascend, so the last wins)."""
    return {key: (value, version) for key, value, version in records}


def _wal_scenario(fs: FileSystem, journal: dict | None = None) -> None:
    """`_BATCHES` appended with compaction every four records — the
    write pattern whose every boundary the matrix crashes at.  The
    `journal` maps each batch index to ``"torn"`` while its append is
    in flight and to ``"done"`` once it returned."""
    fdtable = fdmod.FdTable(fs)
    wal, _ = NodeWal.open(fdtable, compact_every=4)
    state = {}
    for index, batch in enumerate(_BATCHES):
        if journal is not None:
            journal[index] = "torn"
        wal.append(batch)
        if journal is not None:
            journal[index] = "done"
        state.update(_replay(batch))
        if wal.should_compact():
            wal.compact(dict(state))


def _lost(completed: dict, entries: dict) -> list[str]:
    """The completed appends (key -> version) recovery does not surface."""
    return [f"{key}@{version} (recovered {entries.get(key)})"
            for key, version in completed.items()
            if entries.get(key, (None, -1))[1] < version]


def _crash_sweep(scenario, setup=None):
    """Kill the disk at every write boundary of `scenario(fs,
    journal)` and recover from the surviving image; yields ``(n,
    issues, mid_stream, entries, journal)``: the non-recoverable fsck
    issues, whether power died inside a snapshot stream (``/snap.tmp``
    holds data sectors but not yet its size), what recovery surfaced,
    and what the scenario noted before power died (starting from
    `setup(fs)`'s returned dict)."""
    disk, fs = _fresh_fs()
    baseline = setup(fs) if setup is not None else {}
    pristine = disk.snapshot()
    writes_before = disk.writes
    scenario(fs, dict(baseline))
    total = disk.writes - writes_before

    for n in range(1, total + 1):
        plan = FaultPlan(seed=n, rules=[
            FaultRule(site="disk.write", kind="crash", at=n),
        ])
        crash_disk = Disk(128, fault_plan=plan)
        crash_disk.restore(pristine)
        completed = dict(baseline)
        try:
            scenario(FileSystem(BlockDriver(crash_disk)), completed)
        except DiskCrash:
            pass
        else:
            raise AssertionError(f"crash at write {n} never fired")

        survivor = Disk(128)
        survivor.restore(crash_disk.snapshot())
        survivor_fs = FileSystem(BlockDriver(survivor))
        issues = [issue for issue in fsck(survivor_fs)
                  if not is_recoverable(issue)]
        mid_stream = survivor_fs.exists("/snap.tmp") \
            and survivor_fs.stat("/snap.tmp").size == 0
        _, recovery = NodeWal.open(fdmod.FdTable(survivor_fs))
        yield n, issues, mid_stream, recovery.entries, completed


def test_wal_crash_matrix_is_fsck_recoverable_at_every_boundary():
    report = run_crash_matrix(_wal_scenario, name="cluster-wal",
                              num_sectors=128)
    assert report.crash_points > 0
    assert report.ok, report.violations


def test_every_crash_point_recovers_all_completed_appends():
    """The durability contract itself, per batch: whichever write
    boundary power died at, recovery returns every record of every
    batch whose append *returned*, at most a prefix of the batch in
    flight, and nothing of any later batch — i.e. exactly the state
    after the completed batches plus some prefix of the torn one."""
    points = list(_crash_sweep(_wal_scenario))
    assert points
    in_batches = 0
    for n, _, _, entries, journal in points:
        done = [record for index, state in sorted(journal.items())
                if state == "done" for record in _BATCHES[index]]
        torn = [_BATCHES[index] for index, state in journal.items()
                if state == "torn"]
        torn = torn[0] if torn else []
        in_batches += len(torn) >= 2
        allowed = [_replay(done + torn[:cut]) for cut in range(len(torn) + 1)]
        assert entries in allowed, (
            f"crash at write {n}: recovered {entries}, completed "
            f"{_replay(done)}, torn batch {torn}")
    # the matrix does crash into multi-record batch writes
    assert in_batches >= 2 * 4, in_batches


# -- multi-sector snapshots: the stream itself is crashed into -------------

#: 200 keys x 64-byte values: a ~19 KiB snapshot, five 4 KiB sectors.
_BIG_KEYS = 200


def _big_value(i: int, version: int) -> str:
    return f"{i}@{version}:".ljust(64, "x")


def _big_setup(fs: FileSystem) -> dict[str, int]:
    """Pre-crash history (not crash points): generation 1 with a
    multi-sector ``/snap.1`` and a non-empty ``/wal.1``; returns the
    version every completed append left per key."""
    wal, _ = NodeWal.open(fdmod.FdTable(fs), compact_every=_BIG_KEYS)
    wal.append([(f"k{i:03d}", _big_value(i, 1), 1)
                for i in range(_BIG_KEYS)])
    completed = {f"k{i:03d}": 1 for i in range(_BIG_KEYS)}
    wal.compact({key: (_big_value(int(key[1:]), 1), 1)
                 for key in completed})
    assert fs.stat("/snap.1").size > 3 * Disk.SECTOR_SIZE
    wal.append([(f"k{i:03d}", _big_value(i, 2), 2) for i in range(5)])
    completed.update({f"k{i:03d}": 2 for i in range(5)})
    return completed


def _big_scenario(fs: FileSystem, completed: dict[str, int],
                  compact=NodeWal.compact) -> None:
    """Remount (``open`` rewrites one clean generation: a multi-sector
    snapshot), append, compact (another one), append."""
    wal, recovery = NodeWal.open(fdmod.FdTable(fs), compact_every=8)
    state = dict(recovery.entries)
    for i in range(5, 13):
        key = f"k{i:03d}"
        state[key] = (_big_value(i, 3), 3)
        wal.append([(key, *state[key])])
        completed[key] = 3
    assert wal.should_compact()
    compact(wal, dict(state))
    wal.append([("k000", _big_value(0, 4), 4)])
    completed["k000"] = 4


def test_multi_sector_snapshot_crash_matrix_recovers_g_or_g_plus_1():
    points = list(_crash_sweep(_big_scenario, _big_setup))
    for n, issues, _, entries, completed in points:
        assert not issues, f"crash at write {n}: fsck: {issues}"
        lost = _lost(completed, entries)
        assert not lost, f"crash at write {n}: completed append lost: {lost}"
    # both snapshots (open's rewrite, compact's) are crashed mid-stream:
    # every sector of each costs a bitmap, a zeroing and a data write
    mid_stream = sum(1 for _, _, mid_stream, _, _ in points if mid_stream)
    assert mid_stream >= 2 * 3 * 3, (len(points), mid_stream)


def _compact_unlinking_old_wal_first(wal: NodeWal, state: dict) -> None:
    """The seeded mutant: ``/wal.<g>`` goes *before* the rename commits
    generation g+1, so a crash in between has neither."""
    fs = wal.fdtable.fs
    old_gen, old_fd = wal.gen, wal._wal_fd
    new_gen = wal.gen + 1
    wal._write_snapshot("/snap.tmp", state, new_gen)
    new_fd = wal._create(wal.fdtable, f"/wal.{new_gen}")
    wal.fdtable.close(old_fd)
    fs.unlink(f"/wal.{old_gen}")                       # too early
    fs.rename("/snap.tmp", f"/snap.{new_gen}")
    wal.gen, wal._wal_fd, wal.appended = new_gen, new_fd, 0
    fs.unlink(f"/snap.{old_gen}")


def test_multi_sector_matrix_flags_the_unlink_before_rename_mutant():
    def scenario(fs, completed):
        _big_scenario(fs, completed, _compact_unlinking_old_wal_first)

    assert any(_lost(completed, entries) for _, _, _, entries, completed
               in _crash_sweep(scenario, _big_setup))


# -- device-op budget: pay per sector, not per record ----------------------


class _LoggingDisk(Disk):
    """Also remembers *which* sector every read and write touched."""

    def __init__(self, num_sectors: int) -> None:
        super().__init__(num_sectors)
        self.log: list[tuple[str, int]] = []

    def read_sector(self, index: int) -> bytes:
        self.log.append(("r", index))
        return super().read_sector(index)

    def write_sector(self, index: int, data: bytes) -> None:
        self.log.append(("w", index))
        super().write_sector(index, data)


def _file_blocks(fs: FileSystem, path: str) -> list[int]:
    inode = fs._read_inode(fs.lookup(path))
    count = -(-inode.size // Disk.SECTOR_SIZE)
    return [fs._block_of(inode, i, allocate=False) for i in range(count)]


def test_compaction_device_ops_are_per_sector_not_per_record():
    disk = _LoggingDisk(128)
    fs = FileSystem.mkfs(BlockDriver(disk), num_inodes=64)
    wal, _ = NodeWal.open(fdmod.FdTable(fs))
    state = {}
    for i in range(700):                     # ~64 KiB: direct + indirect
        state[f"k{i:03d}"] = (_big_value(i, 1), 1)
    wal.append([(key, *state[key]) for key in list(state)[:20]])
    old_blocks = len(_file_blocks(fs, "/wal.0"))

    disk.log.clear()
    reads, writes = disk.reads, disk.writes
    size = wal.compact(dict(state))
    log = list(disk.log)
    assert (disk.reads - reads, disk.writes - writes) == (
        sum(1 for op, _ in log if op == "r"),
        sum(1 for op, _ in log if op == "w"))

    assert size == fs.stat("/snap.1").size
    blocks = _file_blocks(fs, "/snap.1")
    sectors = -(-size // Disk.SECTOR_SIZE)
    assert len(blocks) == sectors > 10 and len(set(blocks)) == sectors
    # every data sector: the allocator's zeroing plus the payload, once
    for block in blocks:
        assert log.count(("w", block)) == 2
    # ... and none it fully overwrites is read back first (the last,
    # partial one is merged into its zeroed block: one read)
    assert size % Disk.SECTOR_SIZE
    assert [log.count(("r", block)) for block in blocks] \
        == [0] * (sectors - 1) + [1]
    # closed form for the whole rotation.  Per snapshot sector: its
    # bitmap bit, the zeroing, the payload; per indirect-mapped sector
    # its pointer; the indirect block's own bit + zeroing.  Freeing
    # /wal.0 clears one bit per block.  Fixed metadata, 11 writes: two
    # creates (inode, directory slot, the directory's grown size), the
    # snapshot's size, the rename, and /wal.0's unlink (slot, truncated
    # inode, freed inode) — /snap.0 never existed on a fresh volume.
    indirect = sectors - 10
    assert disk.writes - writes \
        == 3 * sectors + indirect + 2 + old_blocks + 11
    # the regression this guards: one write per record was ~2 per record
    assert disk.writes - writes < len(state)


def test_append_device_ops_are_unchanged():
    """A batch costs what one record used to: one write, whatever its
    size — data sector then inode, plus bitmap + zeroing when the
    batch opens a new block."""
    disk = _LoggingDisk(128)
    fs = FileSystem.mkfs(BlockDriver(disk), num_inodes=64)
    wal, _ = NodeWal.open(fdmod.FdTable(fs))
    wal.append([("warm", "up", 1)])          # allocates /wal.0's block 0
    inside, opening = set(), []
    n = 0
    while len(opening) < 2:
        for size in range(1, 6):
            batch = [(f"k{i:03d}", _big_value(i, 1), 1)
                     for i in range(n, n + size)]
            n += size
            before = fs.stat("/wal.0").size
            assert before % Disk.SECTOR_SIZE   # no batch starts a block
            reads, writes = disk.reads, disk.writes
            wal.append(batch)
            cost = (disk.reads - reads, disk.writes - writes)
            after = fs.stat("/wal.0").size
            assert after - before == sum(len(encode_record(*record))
                                         for record in batch)
            if (after - 1) // Disk.SECTOR_SIZE == before // Disk.SECTOR_SIZE:
                inside.add((size, cost))
            else:
                opening.append(cost)
    # within a block, batches of every size 1-5 pay the same: read the
    # inode, read-modify-write the data sector, read-modify-write the
    # inode-table sector
    assert inside == {(size, (3, 2)) for size in range(1, 6)}
    # a batch that straddles into a fresh block also pays the second
    # sector's bitmap bit, zeroing, read and write
    assert opening == [(4, 5), (4, 5)]


# -- a full volume: compaction gives up cleanly, generation g stays live ---


def test_compaction_on_a_full_volume_keeps_generation_g_and_retries_later():
    disk, fs = _fresh_fs(num_sectors=32)
    fs.write_at(fs.create("/ballast"), 0, bytes(16 * Disk.SECTOR_SIZE))
    wal, _ = NodeWal.open(fdmod.FdTable(fs), compact_every=8)
    state = {}
    failed_at = None
    for i in range(400):
        key = f"k{i:03d}"
        state[key] = (_big_value(i, 1), 1)
        wal.append([(key, *state[key])])
        if not wal.should_compact():
            continue
        free, gen, files = fs.bitmap.count_free(), wal.gen, wal.files()
        try:
            wal.compact(dict(state))
        except VOLUME_FULL:
            failed_at = i
            # the attempt cost nothing: no /snap.tmp, no leaked block,
            # same live generation, and no retry until 8 more appends
            assert wal.gen == gen and wal.files() == files
            assert fs.bitmap.count_free() == free
            assert fsck(fs) == []
            break
    assert failed_at is not None, "volume never filled"
    for i in range(failed_at + 1, failed_at + 9):
        assert not wal.should_compact()
        key = f"k{i:03d}"
        state[key] = (_big_value(i, 1), 1)
        wal.append([(key, *state[key])])
    assert wal.should_compact()
    # with room again the retry rotates the generation as usual
    fs.unlink("/ballast")
    wal.compact(dict(state))
    assert wal.gen == gen + 1 and wal.appended == 0
    _, recovery = NodeWal.open(fdmod.FdTable(FileSystem(BlockDriver(disk))))
    assert recovery.entries == state
