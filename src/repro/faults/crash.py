"""Crash-recovery harness: kill the disk at every write boundary.

The crash-consistency model is the classic one: sector writes are atomic,
power can be lost *between* any two of them.  For a filesystem scenario
(a callable driving a mounted :class:`~repro.nros.fs.fs.FileSystem`), the
harness

1. runs the scenario once against a pristine volume to count its write
   boundaries W;
2. for each crash point n in 1..W: restores the pristine image, arms a
   ``crash``-at-write-n :class:`~repro.faults.plan.FaultPlan` rule on the
   disk, re-runs the scenario until :class:`DiskCrash` fires, then
   *remounts* the surviving image and audits it with
   :func:`repro.nros.fs.fsck.fsck`.

A crash point passes when the volume remounts and every fsck issue is in
the *recoverable* class — resource leaks a collector can reclaim (leaked
blocks, orphan inodes, stale link counts).  Structural damage (cross-linked
blocks, corrupt directories, entries naming freed inodes) fails the point:
those are exactly the states the filesystem's write ordering exists to
make unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan, FaultRule
from repro.hw.devices.disk import Disk, DiskCrash
from repro.nros.drivers.block import BlockDriver
from repro.nros.fs.fs import FileSystem
from repro.nros.fs.fsck import fsck

#: fsck issue prefixes a crash may legitimately leave behind: resources
#: that leaked (and a repair pass could reclaim), never dangling structure.
RECOVERABLE_MARKERS = (
    "leaked block",
    "orphan inode",
    "nlink",
)


def is_recoverable(issue: str) -> bool:
    return any(marker in issue for marker in RECOVERABLE_MARKERS)


@dataclass
class CrashPointResult:
    write_number: int
    issues: list[str]

    @property
    def clean(self) -> bool:
        return not self.issues

    @property
    def ok(self) -> bool:
        return all(is_recoverable(issue) for issue in self.issues)


@dataclass
class CrashMatrixReport:
    scenario: str
    total_writes: int = 0
    points: list[CrashPointResult] = field(default_factory=list)

    @property
    def crash_points(self) -> int:
        return len(self.points)

    @property
    def clean(self) -> int:
        return sum(1 for p in self.points if p.clean)

    @property
    def degraded(self) -> int:
        return sum(1 for p in self.points if p.ok and not p.clean)

    @property
    def violations(self) -> list[str]:
        out = []
        for point in self.points:
            for issue in point.issues:
                if not is_recoverable(issue):
                    out.append(f"{self.scenario} @ write "
                               f"{point.write_number}: {issue}")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (f"{self.scenario}: {self.crash_points} crash points "
                f"({self.total_writes} writes), {self.clean} clean, "
                f"{self.degraded} recoverable, "
                f"{len(self.violations)} violations")


def _fresh_volume(num_sectors: int) -> tuple[Disk, FileSystem]:
    disk = Disk(num_sectors)
    driver = BlockDriver(disk)
    fs = FileSystem.mkfs(driver, num_inodes=64)
    return disk, fs


def crash_each_write(scenario: str, count_writes,
                     crash_at) -> CrashMatrixReport:
    """The two passes of every crash matrix.  Pass 1: ``count_writes()``
    runs the scenario undisturbed and returns how many ``disk.write``s
    it made.  Pass 2: ``crash_at(n, plan)`` re-runs it once per boundary
    n, with ``plan`` crashing the disk at exactly that write, and
    returns the crash point's issues."""
    report = CrashMatrixReport(scenario=scenario)
    report.total_writes = count_writes()
    for n in range(1, report.total_writes + 1):
        plan = FaultPlan(seed=n, rules=[
            FaultRule(site="disk.write", kind="crash", at=n),
        ])
        report.points.append(CrashPointResult(write_number=n,
                                              issues=crash_at(n, plan)))
    return report


def run_crash_matrix(scenario, name: str = "scenario",
                     num_sectors: int = 64,
                     setup=None) -> CrashMatrixReport:
    """Crash `scenario` at every write boundary and audit recovery.

    `scenario(fs)` drives a mounted filesystem; the optional `setup(fs)`
    runs before the pristine image is taken (its writes are not crash
    points — they model pre-existing state)."""
    disk, fs = _fresh_volume(num_sectors)
    if setup is not None:
        setup(fs)
    pristine = disk.snapshot()

    def count_writes() -> int:
        before = disk.writes
        scenario(fs)
        return disk.writes - before

    def crash_at(n: int, plan: FaultPlan) -> list[str]:
        crashed = Disk(num_sectors, fault_plan=plan)
        crashed.restore(pristine)
        try:
            scenario(FileSystem(BlockDriver(crashed)))
        except DiskCrash:
            pass
        else:
            raise AssertionError(
                f"{name}: crash at write {n} never fired "
                f"(non-deterministic scenario?)")
        # power is gone; remount whatever reached the platter
        survivor = Disk(num_sectors)
        survivor.restore(crashed.snapshot())
        return fsck(FileSystem(BlockDriver(survivor)))

    return crash_each_write(name, count_writes, crash_at)


# -- canonical scenarios (shared by tests and the disk campaign) -----------


def scenario_create(fs: FileSystem) -> None:
    fs.create("/a.txt")
    fs.mkdir("/d")
    fs.create("/d/b.txt")


def scenario_write(fs: FileSystem) -> None:
    inum = fs.create("/data")
    fs.write_at(inum, 0, b"x" * 5000)          # direct blocks
    fs.write_at(inum, 5000, b"y" * 3000)


def scenario_rename(fs: FileSystem) -> None:
    fs.rename("/old.txt", "/new.txt")
    fs.rename("/d1/f.txt", "/d2/f.txt")


def scenario_rename_setup(fs: FileSystem) -> None:
    inum = fs.create("/old.txt")
    fs.write_at(inum, 0, b"payload")
    fs.mkdir("/d1")
    fs.mkdir("/d2")
    inum = fs.create("/d1/f.txt")
    fs.write_at(inum, 0, b"moved")


def scenario_unlink(fs: FileSystem) -> None:
    fs.unlink("/f1.txt")
    fs.unlink("/d/f2.txt")
    fs.unlink("/d")


def scenario_unlink_setup(fs: FileSystem) -> None:
    inum = fs.create("/f1.txt")
    fs.write_at(inum, 0, b"z" * 9000)          # spills into a second block
    fs.mkdir("/d")
    inum = fs.create("/d/f2.txt")
    fs.write_at(inum, 0, b"w" * 100)


def scenario_link(fs: FileSystem) -> None:
    fs.link("/orig", "/alias")
    fs.unlink("/orig")


def scenario_link_setup(fs: FileSystem) -> None:
    inum = fs.create("/orig")
    fs.write_at(inum, 0, b"shared")


#: name -> (scenario, setup | None); the matrix the tests parametrize over.
CRASH_SCENARIOS = {
    "create": (scenario_create, None),
    "write": (scenario_write, None),
    "rename": (scenario_rename, scenario_rename_setup),
    "unlink": (scenario_unlink, scenario_unlink_setup),
    "link": (scenario_link, scenario_link_setup),
}
