"""Seeded fault-injection campaigns: disk, net, mem, prover, cluster, ring.

Each campaign wires a :class:`~repro.faults.plan.FaultPlan` into the real
layers (no mocks) and drives a deterministic workload through them.  A
scenario reports one :class:`SiteReport` for its site — what its fault
source injected, how many of those injections reached the caller as a
*typed, recoverable* error (``DiskIOError`` after retries, ``QueueFull``,
``OutOfMemory``, ``AllocFailed``, ``RdpGiveUp``, an ERROR verdict from a
crashed prover worker), its notes and its invariant violations — and
:meth:`CampaignReport.credit` turns that into the site's counters:

* **injected** — what the scenario's fault source logged;
* **degraded** — the injections the caller observed as a typed error;
* **survived** — ``injected − degraded``: absorbed with no caller-visible
  effect (a retry healed a torn write, RDP retransmitted through loss, a
  poisoned cache entry was re-proved);
* **failed** — one per violation: data loss, corruption fsck can't
  classify as a leak, wrong delivery order, a lost proof run.  A scenario
  with a violation is credited ``injected`` and ``failed`` only, and any
  violation makes the CLI exit nonzero.

So ``injected == survived + degraded`` holds by construction at every site
of a violation-free campaign.

Determinism contract: a campaign's :meth:`CampaignReport.summary_lines`
depend only on ``(campaign, seed)`` — no wall-clock, no paths, no
iteration over unordered containers — so two runs with the same seed must
produce byte-identical summaries (the CLI's ``--check-determinism`` and
the CI gate verify exactly that).
"""

from __future__ import annotations

import functools
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro import obs
from repro.obs.registry import Registry
from repro.faults import cluster
from repro.faults.crash import CRASH_SCENARIOS, run_crash_matrix
from repro.faults.plan import FaultPlan, FaultRule

#: The four outcome classes a fault-injection site tallies.
OUTCOMES = ("injected", "survived", "degraded", "failed")


@dataclass
class SiteReport:
    """What one scenario reports for its site; only
    :meth:`CampaignReport.credit` turns it into counters."""

    injected: int = 0
    degraded: int = 0
    notes: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def add_matrix(self, matrix, prefix: str = "") -> None:
        """Report a crash matrix: every crash point is an injection, a
        point fsck reports only recoverable leaks for is degraded, and a
        structural issue is a violation."""
        self.injected += matrix.crash_points
        self.degraded += matrix.degraded
        self.violations += matrix.violations
        self.notes.append(prefix + matrix.summary())


@dataclass
class CampaignReport:
    name: str
    seed: int
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Every per-site counter of this run lives here; summaries read the
    #: counters back, so the campaign has no private tallies left.
    registry: Registry = field(default_factory=Registry)

    def credit(self, site: str, report: SiteReport) -> None:
        """The one writer of the ``faults.{outcome}{site=…}`` counters.

        A scenario with violations is credited ``injected`` and one
        ``failed`` per violation, and its notes are dropped; otherwise it
        is credited ``degraded`` as reported and
        ``survived = injected − degraded``."""
        failed = len(report.violations)
        degraded = 0 if failed else report.degraded
        survived = 0 if failed else report.injected - report.degraded
        if survived < 0:
            raise ValueError(f"{site}: {report.degraded} degraded of "
                             f"{report.injected} injected")
        for outcome, n in zip(OUTCOMES,
                              (report.injected, survived, degraded, failed)):
            self.registry.counter(f"faults.{outcome}", site=site).inc(n)
        if not failed:
            self.notes += report.notes
        shared = obs.bus()
        for message in report.violations:
            self.violations.append(f"[{self.name}] {site}: {message}")
            if shared.active:
                shared.emit("faults.violation", campaign=self.name,
                            site=site, message=message)

    @property
    def sites(self) -> dict[str, dict[str, int]]:
        """Each site's row, read back from its ``faults.*`` counters."""
        rows: dict[str, dict[str, int]] = {}
        for counter in self.registry.counters():
            site = dict(counter.labels)["site"]
            rows.setdefault(site, {})[counter.name[len("faults."):]] = \
                counter.value
        return rows

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def injections(self) -> int:
        return sum(row["injected"] for row in self.sites.values())

    def summary_lines(self) -> list[str]:
        lines = [f"campaign {self.name} (seed {self.seed}): "
                 f"{self.injections} injections, "
                 f"{len(self.violations)} violations"]
        for name, row in sorted(self.sites.items()):
            lines.append(f"  {name:<16} " + "  ".join(
                f"{outcome} {row[outcome]:>4}" for outcome in OUTCOMES))
        for note in self.notes:
            lines.append(f"  note: {note}")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return lines


# ---------------------------------------------------------------------------
# disk
# ---------------------------------------------------------------------------


def _resync_shadow(fs, shadow, path: str) -> None:
    """After a failed operation, re-learn the on-disk truth for `path`
    (small retry loop: the re-read itself may hit a transient fault)."""
    from repro.hw.devices.disk import DiskIOError
    from repro.nros.drivers.block import QueueFull

    for _ in range(4):
        try:
            if not fs.exists(path):
                shadow.pop(path, None)
                return
            inum = fs.lookup(path)
            size = fs.stat_inum(inum).size
            shadow[path] = fs.read_at(inum, 0, size)
            return
        except (DiskIOError, QueueFull):
            continue
    shadow.pop(path, None)  # unknowable right now; stop verifying it


def _disk_transient_workload(seed: int, site: SiteReport) -> None:
    """File operations under transient write errors, torn writes, sparse
    read errors, and injected device-busy rejections.  An operation that
    raises a typed error degrades every injection it drew, including
    those of re-reading the paths it touched."""
    from repro.hw.devices.disk import Disk, DiskIOError
    from repro.nros.drivers.block import BlockDriver, QueueFull
    from repro.nros.fs.fs import FileSystem, FsError
    from repro.nros.fs.fsck import fsck
    from repro.faults.crash import is_recoverable

    plan = FaultPlan(seed, rules=[
        FaultRule(site="disk.write", kind="io-error", probability=0.05),
        FaultRule(site="disk.write", kind="torn", probability=0.03),
        FaultRule(site="disk.read", kind="io-error", probability=0.01),
        FaultRule(site="block.submit", kind="queue-full", every=97,
                  max_triggers=4),
    ])
    disk = Disk(256)
    driver = BlockDriver(disk, fault_plan=plan)
    fs = FileSystem.mkfs(driver, num_inodes=128)
    disk.fault_plan = plan  # armed only after the volume is formatted

    rng = random.Random(f"{seed}/disk-workload")
    shadow: dict[str, bytes] = {}
    next_file = 0

    for _ in range(150):
        before = plan.injections
        paths = sorted(shadow)
        op = rng.choice(["create", "write", "read", "rename", "unlink"])
        path = rng.choice(paths) if paths else None
        if op == "create" or path is None:
            op, path = "create", None
        new = None
        if op in ("create", "rename"):
            new = f"/f{next_file}"
            next_file += 1
        try:
            if op == "create":
                fs.create(new)
                shadow[new] = b""
            elif op == "write":
                payload = bytes([rng.randrange(256)]) * rng.randrange(1, 6000)
                offset = rng.randrange(0, len(shadow[path]) + 1)
                inum = fs.lookup(path)
                fs.write_at(inum, offset, payload)
                data = bytearray(shadow[path])
                if offset + len(payload) > len(data):
                    data.extend(bytes(offset + len(payload) - len(data)))
                data[offset:offset + len(payload)] = payload
                shadow[path] = bytes(data)
            elif op == "read":
                inum = fs.lookup(path)
                data = fs.read_at(inum, 0, len(shadow[path]))
                if data != shadow[path]:
                    # one transient bus fault may damage a buffer; a
                    # re-read must see the intact medium
                    data = fs.read_at(inum, 0, len(shadow[path]))
                    if data != shadow[path]:
                        site.violations.append(
                            f"persistent mismatch reading {path}")
            elif op == "rename":
                fs.rename(path, new)
                shadow[new] = shadow.pop(path)
            elif op == "unlink":
                fs.unlink(path)
                del shadow[path]
        except (DiskIOError, QueueFull):
            for touched in (path, new):
                if touched is not None:
                    _resync_shadow(fs, shadow, touched)
            site.degraded += plan.injections - before
        except FsError as exc:
            site.violations.append(f"{op} raised {exc}")
    site.injected = plan.injections

    # The volume must still audit clean up to recoverable leaks from the
    # operations that failed mid-flight.
    disk.fault_plan = None
    for issue in fsck(fs):
        if not is_recoverable(issue):
            site.violations.append(f"fsck: {issue}")

    # Power-cycle: remount the image on a pristine device and verify every
    # surviving file byte-for-byte.
    survivor = Disk(256)
    survivor.restore(disk.snapshot())
    remounted = FileSystem(BlockDriver(survivor))
    for issue in fsck(remounted):
        if not is_recoverable(issue):
            site.violations.append(f"fsck after remount: {issue}")
    for path in sorted(shadow):
        inum = remounted.lookup(path)
        data = remounted.read_at(inum, 0, len(shadow[path]))
        if data != shadow[path]:
            site.violations.append(f"{path} lost data across remount")
    site.notes.append(
        f"disk.io: {len(shadow)} files verified byte-for-byte after "
        f"remount; driver retried {driver.io_retries} transient errors "
        f"({disk.torn_writes} torn)")


def _disk_read_corruption(seed: int, site: SiteReport) -> None:
    """Bus-level read corruption is detected by comparison and shown
    transient: the medium is intact, a re-read heals."""
    from repro.hw.devices.disk import Disk

    disk = Disk(16)
    expected = []
    for sector in range(disk.num_sectors):
        pattern = bytes([sector * 17 % 256]) * Disk.SECTOR_SIZE
        disk.write_sector(sector, pattern)
        expected.append(pattern)
    plan = FaultPlan(seed, rules=[
        FaultRule(site="disk.read", kind="corrupt", probability=0.3),
    ])
    disk.fault_plan = plan
    rng = random.Random(f"{seed}/corrupt-reads")
    for _ in range(120):
        sector = rng.randrange(disk.num_sectors)
        before = plan.injections
        data = disk.read_sector(sector)
        if plan.injections == before:
            if data != expected[sector]:
                site.violations.append(
                    f"uninjected mismatch at sector {sector}")
        elif data == expected[sector]:
            site.violations.append(
                f"injected corruption invisible at {sector}")
        else:
            while True:   # re-reads heal; each may itself be corrupted again
                prev = plan.injections
                if disk.read_sector(sector) == expected[sector]:
                    break
                if plan.injections == prev:  # clean read, still wrong
                    site.violations.append(
                        f"corruption persisted at sector {sector}")
                    break
    site.injected = plan.injections


def _disk_queue_backpressure(seed: int, site: SiteReport) -> None:
    """A stalled device fills the bounded queue; QueueFull is typed
    backpressure the caller rides out with service() + retry, and no
    accepted request is ever lost."""
    from repro.hw.devices.disk import Disk
    from repro.nros.drivers.block import BlockDriver, BlockRequest, QueueFull

    plan = FaultPlan(seed, rules=[
        FaultRule(site="block.submit", kind="stall", every=1,
                  max_triggers=40),
    ])
    disk = Disk(64)
    driver = BlockDriver(disk, fault_plan=plan)
    total = 45
    rejections = 0
    for sector in range(total):
        payload = bytes([sector]) * Disk.SECTOR_SIZE
        for attempt in range(3):
            try:
                driver.submit(BlockRequest("write", sector, data=payload))
                break
            except QueueFull:
                rejections += 1
                driver.service()
        else:
            site.violations.append(f"write {sector} rejected after retries")
    driver.service()
    site.injected = plan.injections
    site.degraded = rejections
    if rejections == 0:
        site.violations.append("stalled queue never exerted backpressure")
    for sector in range(total):
        if disk.read_sector(sector) != bytes([sector]) * Disk.SECTOR_SIZE:
            site.violations.append(f"accepted write {sector} was lost")
    site.notes.append(
        f"block.submit: {rejections} QueueFull rejections ridden out; "
        f"all {total} writes landed")


def _disk_crash_matrix(_seed: int, site: SiteReport) -> None:
    for name in sorted(CRASH_SCENARIOS):
        scenario, setup = CRASH_SCENARIOS[name]
        site.add_matrix(run_crash_matrix(scenario, name=name, setup=setup))


# ---------------------------------------------------------------------------
# net
# ---------------------------------------------------------------------------


class _RdpPair:
    """Host 1 with an RDP connection to port 9000 on host 2, one cable
    between them.  :meth:`run` is the one tick/pump/poll loop of the net
    scenarios and collects what host 2 delivered."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        from repro.hw.devices.nic import Nic
        from repro.nros.net.link import Link
        from repro.nros.net.stack import NetStack

        nic_a = Nic(b"\xaa" * 6)
        nic_b = Nic(b"\xbb" * 6)
        self.a = NetStack(1, nic_a)
        self.b = NetStack(2, nic_b)
        self.a.add_neighbour(2, nic_b.mac)
        self.b.add_neighbour(1, nic_a.mac)
        self.link = Link(nic_a, nic_b, fault_plan=plan)
        self.listener = self.b.rdp_listen(9000)
        self.conn = self.a.rdp_connect(2, 9000)
        self.accepted: list = []
        self.delivered: list[bytes] = []

    def run(self, ticks: range, done) -> bool:
        """Tick both hosts through `ticks` until `done()`; whether it was."""
        for now in ticks:
            self.a.tick(now)
            self.link.pump()
            self.b.poll()
            self.b.tick(now)
            self.link.pump()
            self.a.poll()
            while self.listener.pending:
                self.accepted.append(self.listener.pending.popleft())
            for sconn in self.accepted:
                while sconn.recv_queue:
                    self.delivered.append(sconn.recv_queue.popleft())
            if done():
                return True
        return False

    def gives_up(self, ticks: range, site: SiteReport, what: str) -> None:
        """Run into a blackout: host 1 must give up and surface a typed
        RdpGiveUp at its next recv, which the caller sees (degraded)."""
        from repro.nros.net.rdp import RdpGiveUp

        if not self.run(ticks, lambda: self.a.stats_gave_up):
            site.violations.append(f"{what} never gave up")
            return
        try:
            self.a.rdp_recv(self.conn)
        except RdpGiveUp:
            site.degraded += 1
            return
        site.violations.append(f"{what} error not surfaced to recv")


def _net_adversarial(seed: int, site: SiteReport) -> None:
    """Exactly-once, in-order delivery through a fabric that drops,
    duplicates, reorders, and corrupts (checksums turn corruption into
    detectable loss; retransmission covers the rest)."""
    plan = FaultPlan(seed, rules=[
        FaultRule(site="link.tx", kind="drop", probability=0.15),
        FaultRule(site="link.tx", kind="dup", probability=0.10),
        FaultRule(site="link.tx", kind="corrupt", probability=0.08),
        FaultRule(site="link.tx", kind="reorder", probability=0.12),
    ])
    net = _RdpPair(plan)
    conn, link = net.conn, net.link
    messages = [f"msg-{i:03d}".encode() for i in range(30)]
    for message in messages:
        net.a.rdp_send(conn, message)
    completed = net.run(range(1, 6000), lambda: (
        len(net.delivered) >= len(messages) and conn.unacked is None
        and not conn.send_queue))
    site.injected = plan.injections
    if not completed:
        site.violations.append(
            f"session hung: {len(net.delivered)}/{len(messages)} "
            f"messages after 6000 rounds")
    elif net.delivered != messages:
        site.violations.append("delivery violated exactly-once-in-order")
    site.notes.append(
        f"link.tx: {len(messages)} messages exactly-once in-order "
        f"through {link.dropped} drops, {link.duplicated} dups, "
        f"{link.corrupted} corruptions, {link.reordered} reorders "
        f"({conn.retransmissions} retransmissions)")


def _net_blackout(seed: int, site: SiteReport) -> None:
    """Total loss: the handshake must give up with a typed RdpGiveUp
    surfaced to the caller, not stall forever."""
    plan = FaultPlan(seed, rules=[
        FaultRule(site="link.tx", kind="drop", probability=1.0),
    ])
    net = _RdpPair(plan)
    net.gives_up(range(1, 400), site, "SYN blackout")
    site.injected = plan.injections
    site.notes.append(
        f"net.rdp: SYN blackout surfaced RdpGiveUp after "
        f"{net.conn.retries - 1} retransmissions")


def _net_data_blackout(seed: int, site: SiteReport) -> None:
    """An established connection whose path dies mid-stream: delivered
    data stays delivered, the next message surfaces RdpGiveUp."""
    net = _RdpPair()
    net.a.rdp_send(net.conn, b"before-blackout")
    net.run(range(1, 200),
            lambda: net.delivered and net.conn.unacked is None)
    if net.delivered != [b"before-blackout"]:
        site.violations.append("pre-blackout message not delivered")
        return
    plan = FaultPlan(seed, rules=[
        FaultRule(site="link.tx", kind="drop", probability=1.0),
    ])
    net.link.fault_plan = plan
    net.a.rdp_send(net.conn, b"into-the-void")
    net.gives_up(range(200, 800), site, "data blackout")
    site.injected = plan.injections
    site.notes.append(
        "net.rdp: data blackout kept delivered data and surfaced "
        "RdpGiveUp for the in-flight message")


# ---------------------------------------------------------------------------
# mem
# ---------------------------------------------------------------------------


def _mem_pmem(seed: int, site: SiteReport) -> None:
    from repro.hw.mem import PhysicalMemory
    from repro.nros.pmem import BuddyAllocator, OutOfMemory

    plan = FaultPlan(seed, rules=[
        FaultRule(site="pmem.alloc", kind="alloc-fail", probability=0.08),
    ])
    memory = PhysicalMemory(4 * 1024 * 1024)
    allocator = BuddyAllocator(memory, fault_plan=plan)
    rng = random.Random(f"{seed}/pmem")
    live: list[int] = []
    for step in range(400):
        if live and rng.random() < 0.45:
            allocator.free_block(live.pop(rng.randrange(len(live))))
        else:
            order = rng.randrange(0, 4)
            before = plan.injections
            try:
                live.append(allocator.alloc_block(order))
            except OutOfMemory:
                if plan.injections == before:
                    site.violations.append(
                        "genuine OOM in a fitted workload")
                else:
                    site.degraded += 1
        if step % 80 == 0:
            problem = allocator.check_integrity()
            if problem is not None:
                site.violations.append(f"integrity: {problem}")
    site.injected = plan.injections
    for block in live:
        allocator.free_block(block)
    problem = allocator.check_integrity()
    if problem is not None:
        site.violations.append(f"final integrity: {problem}")
    if allocator.stats.free_frames != allocator.stats.total_frames:
        site.violations.append(
            f"{allocator.stats.total_frames - allocator.stats.free_frames} "
            f"frames lost after freeing everything")
    site.notes.append(
        f"pmem.alloc: {allocator.stats.allocations} allocations, "
        f"{allocator.injected_failures} injected failures, allocator "
        f"integrity held")


def _drive(gen, next_base: list):
    """Drive a ulib generator, answering vm_map with growing bases."""
    from repro.nros.syscall.abi import Syscall

    try:
        request = next(gen)
        while True:
            value = None
            if isinstance(request, Syscall) and request.name == "vm_map":
                value = next_base[0]
                next_base[0] += request.args[0] * 4096
            request = gen.send(value)
    except StopIteration as stop:
        return stop.value


def _mem_heap(seed: int, site: SiteReport) -> None:
    from repro.ulib.alloc import AllocFailed, Heap

    plan = FaultPlan(seed, rules=[
        FaultRule(site="heap.alloc", kind="alloc-fail", probability=0.15),
    ])
    heap = Heap(fault_plan=plan)
    rng = random.Random(f"{seed}/heap")
    next_base = [0x100000]
    live: list[tuple[int, int]] = []
    for _ in range(200):
        if live and rng.random() < 0.4:
            vaddr, size = live.pop(rng.randrange(len(live)))
            _drive(heap.free(vaddr, size), next_base)
        else:
            size = rng.randrange(8, 2000)
            try:
                vaddr = _drive(heap.alloc(size), next_base)
            except AllocFailed:
                site.degraded += 1
                continue
            if any(vaddr < v + s and v < vaddr + ((size + 7) & ~7)
                   for v, s in live):
                site.violations.append(
                    f"allocation at {vaddr:#x} overlaps a live block")
            live.append((vaddr, (size + 7) & ~7))
    site.injected = plan.injections
    # after every injected failure the heap must still serve requests
    vaddr = None
    for _ in range(10):
        try:
            vaddr = _drive(heap.alloc(64), next_base)
            break
        except AllocFailed:
            continue
    if vaddr is None:
        site.violations.append("heap unusable after injections")
    site.notes.append(
        f"heap.alloc: {heap.injected_failures} injected failures, heap "
        f"stayed serviceable ({heap.pages_mapped} pages mapped)")


# ---------------------------------------------------------------------------
# prover
# ---------------------------------------------------------------------------


def _prover_engine(hard: bool = False):
    """A small synthetic VC population: enough to schedule, cache, and
    crash against without paying for the full Figure 1a proof."""
    from repro.smt import ast
    from repro.verif.engine import ProofEngine
    from repro.verif.vc import forall_vc, smt_vc

    engine = ProofEngine()
    for i in range(10):
        def build(i=i):
            # (x & c) + (x | c) == x + c: valid, solver-hard enough that
            # term construction cannot fold it away, and the distinct
            # constant keeps every VC's cache fingerprint distinct
            x = ast.bv_var(f"x{i}", 8)
            c = ast.bv_const(i + 1, 8)
            return ast.eq(ast.bvadd(ast.bvand(x, c), ast.bvor(x, c)),
                          ast.bvadd(x, c))

        engine.add(smt_vc(f"faults-smt-{i}", "contract", build),
                   group="faults")
    if hard:
        def build_hard():
            x = ast.bv_var("hx", 4)
            y = ast.bv_var("hy", 4)
            s = ast.bvadd(x, y)
            lhs = ast.bvmul(s, s)
            two = ast.bv_const(2, 4)
            rhs = ast.bvadd(ast.bvadd(ast.bvmul(x, x), ast.bvmul(y, y)),
                            ast.bvmul(two, ast.bvmul(x, y)))
            return ast.eq(lhs, rhs)

        engine.add(smt_vc("faults-smt-hard", "contract", build_hard),
                   group="faults")
    for i in range(5):
        engine.add(forall_vc(f"faults-forall-{i}", "contract",
                             range(64), lambda n: n >= 0),
                   group="faults")
    return engine


def _prover_worker_crash(seed: int, site: SiteReport) -> None:
    from repro.prover import ProverConfig, prove_all
    from repro.verif.vc import VCStatus

    plan = FaultPlan(seed, rules=[
        FaultRule(site="prover.worker", kind="worker-crash", every=4),
    ])
    engine = _prover_engine()
    config = ProverConfig(use_cache=False, fault_plan=plan)
    try:
        result = prove_all(engine, jobs=1, config=config)
    except Exception as exc:
        site.violations.append(f"run died: {exc}")
        return
    site.injected = plan.injections
    errors = sum(1 for r in result.results
                 if r.status is VCStatus.ERROR)
    proved = sum(1 for r in result.results if r.ok)
    if len(result.results) != engine.vc_count:
        site.violations.append(f"lost results: {len(result.results)} of "
                               f"{engine.vc_count}")
    if errors != plan.injections:
        site.violations.append(f"{plan.injections} crashes but {errors} "
                               f"ERROR verdicts")
    site.degraded = errors
    site.notes.append(
        f"prover.worker: {plan.injections} worker crashes absorbed as "
        f"ERROR verdicts; {proved} VCs still proved")


def _prover_poisoned_cache(seed: int, site: SiteReport) -> None:
    from repro.prover import ProofCache, ProverConfig, prove_all

    cache_dir = tempfile.mkdtemp(prefix="repro-faults-cache-")
    try:
        engine = _prover_engine()
        config = ProverConfig(cache_dir=cache_dir)
        prove_all(engine, jobs=1, config=config,
                  cache=ProofCache(cache_dir))

        entries = []
        for root, _, files in os.walk(cache_dir):
            for name in files:
                if name.endswith(".json") and name != "timings.json":
                    entries.append(os.path.join(root, name))
        entries.sort()
        poisoned = entries[::max(1, len(entries) // 3)][:3]
        for path in poisoned:
            with open(path, "wb") as fh:
                fh.write(b"{ this is not a cached verdict")
        with open(os.path.join(cache_dir, "timings.json"), "wb") as fh:
            fh.write(b"\x00garbage")
        site.injected = len(poisoned) + 1

        cache = ProofCache(cache_dir)
        engine = _prover_engine()
        try:
            result = prove_all(engine, jobs=1,
                               config=ProverConfig(cache_dir=cache_dir),
                               cache=cache)
        except Exception as exc:
            site.violations.append(f"poisoned cache killed the run: {exc}")
            return
        if not result.all_proved:
            site.violations.append("poisoned entries broke re-verification")
        if cache.stats.invalid < len(poisoned):
            site.violations.append(f"only {cache.stats.invalid} of "
                                   f"{len(poisoned)} poisoned entries "
                                   f"detected")
        site.notes.append(
            f"prover.cache: {len(poisoned)} poisoned entries + corrupt "
            f"timings treated as cold misses and re-proved")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _prover_budget_exhaustion(seed: int, site: SiteReport) -> None:
    from repro.prover import ProverConfig, prove_all
    from repro.verif.vc import VCStatus

    engine = _prover_engine(hard=True)
    config = ProverConfig(use_cache=False, budgets=(1, 4))
    try:
        result = prove_all(engine, jobs=1, config=config)
    except Exception as exc:
        site.violations.append(f"run died: {exc}")
        return
    timeouts = sum(1 for r in result.results
                   if r.status is VCStatus.TIMEOUT)
    bad = sum(1 for r in result.results
              if r.status in (VCStatus.FAILED, VCStatus.ERROR))
    site.injected = site.degraded = timeouts
    if len(result.results) != engine.vc_count:
        site.violations.append("budget exhaustion lost results")
    if bad:
        site.violations.append(f"{bad} VCs mis-verdicted under a tiny "
                               f"budget (TIMEOUT is the only honest "
                               f"answer)")
    if timeouts == 0:
        site.violations.append("hard 1-conflict budget never exhausted")
    site.notes.append(
        f"prover.budget: {timeouts} VCs surfaced TIMEOUT under a hard "
        f"1-conflict budget ladder; none mis-verdicted")


# ---------------------------------------------------------------------------
# ring
# ---------------------------------------------------------------------------


def _ring_workload(plan, payloads, sq_depth: int = 16):
    """Drive a real kernel whose user program appends `payloads` to one
    file through a syscall ring, re-entering until every submitted entry
    has completed.  Returns (kernel, completions, pid)."""
    from repro.nros.fs.fd import O_CREAT, O_RDWR
    from repro.nros.kernel import Kernel
    from repro.nros.syscall import ring as ringmod
    from repro.nros.syscall.abi import SYSCALLS, sys

    results: list[tuple] = []

    def prog():
        rid, _sq, _cq, _sqd, _cqd = yield sys("ring_setup",
                                              sq_depth, sq_depth)
        fd = yield sys("open", "/ring.dat", O_CREAT | O_RDWR)
        for start in range(0, len(payloads), sq_depth):
            chunk = payloads[start:start + sq_depth]
            blob = b"".join(
                ringmod.encode_sqe(start + i + 1, SYSCALLS["write"],
                                   (fd, chunk[i]))
                for i in range(len(chunk)))
            cqes = list((yield sys("ring_enter", rid, blob, True)))
            # backpressure / crash-mid-batch leaves SQEs pending; an
            # empty enter re-drives the dispatch pass
            stalls = 0
            while len(cqes) < len(chunk) and stalls < 64:
                more = yield sys("ring_enter", rid, b"", True)
                cqes.extend(more)
                stalls += 1
            results.extend(cqes)

    kernel = Kernel(num_cores=2)
    kernel.fault_plan = plan
    kernel.register_program("ring-workload", prog)
    pid = kernel.spawn("ring-workload")
    kernel.run()
    return kernel, results, pid


def _ring_verify(site: SiteReport, kernel, pid: int, payloads,
                 results) -> int:
    """The invariants every ring scenario must uphold: the process
    finished, every entry completed exactly once in submission order,
    the file holds exactly the successful writes, the ring indices
    audit clean, and the volume fscks clean.  Returns the number of
    EBADMSG (torn-entry) completions."""
    from repro.faults.crash import is_recoverable
    from repro.nros.fs.fsck import fsck
    from repro.nros.syscall import abi

    process = kernel.processes[pid]
    if process.exit_code != 0:
        site.violations.append(f"workload exited {process.exit_code}")
        return 0
    if len(results) != len(payloads):
        site.violations.append(
            f"{len(results)} completions for {len(payloads)} "
            f"submissions (lost or duplicated entries)")
        return 0
    # Completion order is submission order, so position identifies the
    # entry — which matters for torn slots, whose user_data field is
    # itself part of the corrupted bytes and cannot be trusted.
    torn = 0
    expected = bytearray()
    for index, (ud, status, _value) in enumerate(results):
        if status == 0:
            if ud != index + 1:
                site.violations.append(
                    f"completion {index} carries user_data {ud}, "
                    f"expected {index + 1} (out of order)")
                return torn
            expected.extend(payloads[index])
        elif status == abi.EBADMSG:
            torn += 1
        else:
            site.violations.append(
                f"entry {index + 1} completed with unexpected errno "
                f"{abi.ERRNO_NAMES.get(status, status)}")
            return torn
    inum = kernel.fs.lookup("/ring.dat")
    size = kernel.fs.stat_inum(inum).size
    content = kernel.fs.read_at(inum, 0, size)
    if content != bytes(expected):
        site.violations.append(
            f"file holds {len(content)} bytes, expected "
            f"{len(expected)} (writes lost, duplicated, or misordered)")
    for ring in process.rings.values():
        for problem in ring.audit():
            site.violations.append(f"ring audit: {problem}")
    for issue in fsck(kernel.fs):
        if not is_recoverable(issue):
            site.violations.append(f"fsck: {issue}")
    return torn


#: The three ring scenarios run one workload under one fault rule each:
#: ``(site, kind, every, max_triggers, payload tag, payload count, note)``.
#: A torn entry's EBADMSG completion is what the caller sees (degraded);
#: every other injection must leave no trace (survived).
#:
#: * torn SQEs in user memory: every corrupted slot must surface as a
#:   typed EBADMSG completion for that entry alone — never a silently
#:   different syscall, never a kernel crash;
#: * forced completion-queue-full: the dispatch pass stops early, the
#:   undrained SQEs stay pending, and re-entering completes them with no
#:   entry lost or duplicated;
#: * the dispatch pass dies partway through a batch: completed entries
#:   keep their CQEs, the rest stay submitted, and the next enter resumes
#:   where the pass stopped — exactly-once dispatch across the crash.
_RING_SCENARIOS = (
    ("ring.sqe", "torn", 5, 9, "torn", 60,
     "{n} torn slots all caught by the SQE checksum as EBADMSG; the other "
     "{rest} entries executed exactly once"),
    ("ring.cq", "full", 11, 6, "bp", 48,
     "{n} forced CQ-full stalls ridden out; every entry completed exactly "
     "once after re-entry"),
    ("ring.dispatch", "crash", 13, 5, "crash", 52,
     "{n} mid-batch crashes; dispatch resumed with exactly-once completion "
     "and intact file contents"),
)


def _ring_scenario(row: tuple, seed: int, site: SiteReport) -> None:
    """One row of :data:`_RING_SCENARIOS`: run the workload under the
    row's rule and hold it to :func:`_ring_verify`."""
    name, kind, every, max_triggers, tag, count, note = row
    plan = FaultPlan(seed, rules=[
        FaultRule(site=name, kind=kind, every=every,
                  max_triggers=max_triggers),
    ])
    payloads = [f"{tag}-{i:03d};".encode() for i in range(count)]
    kernel, results, pid = _ring_workload(plan, payloads)
    site.injected = plan.injections
    site.degraded = torn = _ring_verify(site, kernel, pid, payloads,
                                        results)
    expected_torn = plan.injections if kind == "torn" else 0
    if torn != expected_torn:
        site.violations.append(f"{expected_torn} slots torn but {torn} "
                               f"EBADMSG completions")
    if plan.injections == 0:
        site.violations.append(f"{kind} rule never fired")
    site.notes.append(
        f"{name}: " + note.format(n=plan.injections, rest=count - torn))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

#: Every campaign, in ``all`` order: name -> its ``(site, scenario)``
#: pairs; each scenario is called as ``scenario(seed, SiteReport())`` and
#: its report credited to its site.  The CLI's ``--campaign`` choices are
#: these names and ``all``.
CAMPAIGNS = {
    "disk": (("disk.io", _disk_transient_workload),
             ("disk.read", _disk_read_corruption),
             ("block.submit", _disk_queue_backpressure),
             ("disk.crash", _disk_crash_matrix)),
    "net": (("link.tx", _net_adversarial),
            ("net.rdp", _net_blackout),
            ("net.rdp", _net_data_blackout)),
    "mem": (("pmem.alloc", _mem_pmem), ("heap.alloc", _mem_heap)),
    "prover": (("prover.worker", _prover_worker_crash),
               ("prover.cache", _prover_poisoned_cache),
               ("prover.budget", _prover_budget_exhaustion)),
    "cluster": cluster.SCENARIOS,
    "ring": tuple((row[0], functools.partial(_ring_scenario, row))
                  for row in _RING_SCENARIOS),
}


def run_campaign(name: str, seed: int = 1) -> list[CampaignReport]:
    """Run one campaign (or ``"all"``); returns the reports."""
    if name != "all" and name not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {name!r}; "
                         f"choose from {sorted(CAMPAIGNS)} or 'all'")
    reports = []
    for campaign in CAMPAIGNS if name == "all" else (name,):
        report = CampaignReport(campaign, seed)
        for site, scenario in CAMPAIGNS[campaign]:
            found = SiteReport()
            scenario(seed, found)
            report.credit(site, found)
        reports.append(report)
    return reports


def summary_text(reports: list[CampaignReport]) -> str:
    """The deterministic, comparable text of a run."""
    lines: list[str] = []
    for report in reports:
        lines.extend(report.summary_lines())
    total_injected = sum(r.injections for r in reports)
    total_violations = sum(len(r.violations) for r in reports)
    lines.append(f"total: {total_injected} injections, "
                 f"{total_violations} violations")
    return "\n".join(lines)
