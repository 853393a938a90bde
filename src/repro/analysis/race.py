"""The NR step-protocol race detector: lockset + vector clocks.

Zhao & Sanán's rely-guarantee work shows concurrent memory-management
bugs are exactly what slips past layer-local reasoning, and the NR
protocol (:mod:`repro.nr.core`) is where this reproduction relies on
fine-grained interleaving being safe.  This detector *replays* the
protocol's step generators under the same seeded adversarial scheduler
the linearizability checker uses, but instruments every shared-memory
access:

* each protocol step (the code between two ``yield``\\ s) runs with a
  *current thread*, a vector clock, and the set of locks that thread
  holds (with read/write mode);
* the per-replica :class:`~repro.nr.rwlock.RwLock` carries release
  clocks (writer, and accumulated readers) that acquirers join — the
  classic vector-clock lock rule;
* locations the real algorithm protects with atomics — the combiner
  flag, ``ltail``, the per-thread operation/result slots, and the
  shared log (happens-before edges from log appends) — are modelled as
  acquire/release cells: a write releases the writer's clock into the
  cell, a read joins it;
* everything else (the replicated data structure, the combiner's batch
  counters) is *data*: for every pair of conflicting accesses (same
  location, different threads, at least one write) the detector demands
  a happens-before edge or a common lock held in a sufficient mode —
  Eraser's lockset refined by the happens-before relation.

On the real protocol the report is empty; eliding the reader lock
(:mod:`repro.analysis.mutants`) makes the reader's ``READ`` step race
with a concurrent combiner's ``APPLY`` writes, which the detector
reports deterministically at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.kvstore import workload_scripts
from repro.nr.core import NodeReplicated, Replica
from repro.nr.datastructures import KvStore
from repro.nr.interleave import run_interleaved
from repro.nr.log import Log
from repro.nr.rwlock import RwLock

# -- vector clocks ------------------------------------------------------------------


def _join(clock: dict, other: dict) -> None:
    for thread, tick in other.items():
        if tick > clock.get(thread, 0):
            clock[thread] = tick


@dataclass
class Access:
    """One recorded data access (the last one per thread/kind/location)."""

    thread: int
    kind: str                     # "read" | "write"
    clock: dict
    locks: frozenset              # {(lock_name, mode)}
    label: str | None             # protocol step label, filled at step end
    seq: int                      # global step counter


@dataclass
class Race:
    """Two conflicting, unordered, unguarded accesses."""

    location: str
    first: Access
    second: Access

    def render(self) -> str:
        a, b = self.first, self.second
        return (f"{self.location}: {a.kind} by thread {a.thread} at step "
                f"{a.seq} ({a.label or '?'}, locks={sorted(a.locks)}) is "
                f"unordered with {b.kind} by thread {b.thread} at step "
                f"{b.seq} ({b.label or '?'}, locks={sorted(b.locks)})")


class RaceMonitor:
    """Collects accesses and checks the lockset + happens-before rule."""

    def __init__(self) -> None:
        self.clocks: dict[int, dict] = {}
        self.lock_write_release: dict[str, dict] = {}
        self.lock_read_release: dict[str, dict] = {}
        self.held: dict[int, dict[str, str]] = {}   # thread -> lock -> mode
        self.cells: dict[str, dict] = {}            # atomic release clocks
        self.last_write: dict[str, dict[int, Access]] = {}
        self.last_read: dict[str, dict[int, Access]] = {}
        self.races: list[Race] = []
        self._race_keys: set = set()
        self.current: int | None = None
        self.seq = 0
        self.accesses = 0
        self._pending: list[Access] = []

    # -- driver hooks ---------------------------------------------------------------

    def step_begin(self, thread: int) -> None:
        self.current = thread
        self.clocks.setdefault(thread, {thread: 1})
        self._pending = []

    def step_end(self, label: str | None) -> None:
        for access in self._pending:
            access.label = label
        self._pending = []
        thread = self.current
        if thread is not None:
            clock = self.clocks[thread]
            clock[thread] = clock.get(thread, 0) + 1
        self.current = None
        self.seq += 1

    @property
    def active(self) -> bool:
        return self.current is not None

    def _clock(self) -> dict:
        return self.clocks[self.current]

    def _lockset(self) -> frozenset:
        held = self.held.get(self.current, {})
        return frozenset(held.items())

    # -- locks ----------------------------------------------------------------------

    def acquire(self, lock: str, mode: str) -> None:
        if not self.active:
            return
        clock = self._clock()
        _join(clock, self.lock_write_release.get(lock, {}))
        if mode == "write":
            _join(clock, self.lock_read_release.get(lock, {}))
        self.held.setdefault(self.current, {})[lock] = mode

    def release(self, lock: str, mode: str) -> None:
        if not self.active:
            return
        clock = self._clock()
        if mode == "write":
            self.lock_write_release[lock] = dict(clock)
        else:
            _join(self.lock_read_release.setdefault(lock, {}), clock)
        self.held.get(self.current, {}).pop(lock, None)

    # -- atomic cells -----------------------------------------------------------------

    def atomic_read(self, cell: str) -> None:
        if not self.active:
            return
        _join(self._clock(), self.cells.get(cell, {}))

    def atomic_write(self, cell: str) -> None:
        if not self.active:
            return
        _join(self.cells.setdefault(cell, {}), self._clock())

    # -- data accesses ----------------------------------------------------------------

    def data_read(self, location: str) -> None:
        self._data_access(location, "read")

    def data_write(self, location: str) -> None:
        self._data_access(location, "write")

    def _data_access(self, location: str, kind: str) -> None:
        if not self.active:
            return
        self.accesses += 1
        access = Access(thread=self.current, kind=kind,
                        clock=dict(self._clock()), locks=self._lockset(),
                        label=None, seq=self.seq)
        self._pending.append(access)
        writes = self.last_write.setdefault(location, {})
        reads = self.last_read.setdefault(location, {})
        # A write conflicts with previous reads and writes; a read only
        # with previous writes.
        against = [writes] if kind == "read" else [writes, reads]
        for table in against:
            for other_thread, prior in table.items():
                if other_thread == access.thread:
                    continue
                if self._ordered(prior, access):
                    continue
                if self._guarded(prior, access):
                    continue
                key = (location, prior.label, prior.kind, access.kind,
                       frozenset((prior.thread, access.thread)))
                if key in self._race_keys:
                    continue
                self._race_keys.add(key)
                self.races.append(Race(location=location, first=prior,
                                       second=access))
        (reads if kind == "read" else writes)[access.thread] = access

    @staticmethod
    def _ordered(prior: Access, current: Access) -> bool:
        """prior happens-before current (epoch test on the owner's
        component)."""
        return prior.clock.get(prior.thread, 0) <= \
            current.clock.get(prior.thread, 0)

    @staticmethod
    def _guarded(a: Access, b: Access) -> bool:
        """Some common lock is held in a mode that excludes the pair."""
        locks_a = dict(a.locks)
        locks_b = dict(b.locks)
        for lock, mode_a in locks_a.items():
            mode_b = locks_b.get(lock)
            if mode_b is None:
                continue
            if mode_a == "write" or mode_b == "write":
                return True
        return False


# -- instrumented shared state ------------------------------------------------------


class TracedRwLock(RwLock):
    """RwLock that reports acquisitions to the monitor.  The lock's own
    fields are synchronization state, exempt from data-race tracking."""

    def __init__(self, monitor: RaceMonitor, name: str) -> None:
        super().__init__()
        self._mon = monitor
        self._name = name

    def try_acquire_read(self) -> bool:
        ok = super().try_acquire_read()
        if ok:
            self._mon.acquire(self._name, "read")
        return ok

    def release_read(self) -> None:
        super().release_read()
        self._mon.release(self._name, "read")

    def try_acquire_write(self) -> bool:
        ok = super().try_acquire_write()
        if ok:
            self._mon.acquire(self._name, "write")
        return ok

    def release_write(self) -> None:
        super().release_write()
        self._mon.release(self._name, "write")


class TracedDict(dict):
    """Per-key acquire/release cells — the model of NR's per-thread
    operation and result slots, which the real algorithm makes atomic."""

    def __init__(self, monitor: RaceMonitor, prefix: str) -> None:
        super().__init__()
        self._mon = monitor
        self._prefix = prefix

    def _cell(self, key) -> str:
        return f"{self._prefix}[{key}]"

    def __setitem__(self, key, value) -> None:
        self._mon.atomic_write(self._cell(key))
        super().__setitem__(key, value)

    def __getitem__(self, key):
        self._mon.atomic_read(self._cell(key))
        return super().__getitem__(key)

    def __contains__(self, key) -> bool:
        self._mon.atomic_read(self._cell(key))
        return super().__contains__(key)

    def pop(self, key, *default):
        self._mon.atomic_read(self._cell(key))
        self._mon.atomic_write(self._cell(key))
        return super().pop(key, *default)

    def items(self):
        for key in super().keys():
            self._mon.atomic_read(self._cell(key))
        return super().items()

    def clear(self) -> None:
        for key in super().keys():
            self._mon.atomic_write(self._cell(key))
        super().clear()


class TracedDS:
    """Wraps the replicated sequential data structure: the coarse data
    location the reader lock is supposed to protect."""

    def __init__(self, inner, monitor: RaceMonitor, location: str) -> None:
        self._inner = inner
        self._mon = monitor
        self._loc = location

    def apply(self, op):
        self._mon.data_write(self._loc)
        return self._inner.apply(op)

    def query(self, op):
        self._mon.data_read(self._loc)
        return self._inner.query(op)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedLog(Log):
    """The shared log as an acquire/release channel: appends release the
    combiner's clock, tail reads and slices join it — the happens-before
    edges Section 4.1's argument rests on."""

    CELL = "log"

    def __init__(self, monitor: RaceMonitor) -> None:
        super().__init__()
        self._mon = monitor

    def append_batch(self, entries):
        self._mon.atomic_write(self.CELL)
        return super().append_batch(entries)

    @property
    def tail(self) -> int:
        self._mon.atomic_read(self.CELL)
        return Log.tail.fget(self)

    def slice_from(self, start, end=None):
        self._mon.atomic_read(self.CELL)
        return super().slice_from(start, end)

    def entry(self, index):
        self._mon.atomic_read(self.CELL)
        return super().entry(index)

    def gc(self, completed_tail):
        self._mon.atomic_write(self.CELL)
        return super().gc(completed_tail)

    def __len__(self) -> int:
        self._mon.atomic_read(self.CELL)
        return super().__len__()


#: Replica attributes the real algorithm reads/writes with atomics.
_ATOMIC_ATTRS = frozenset({"combiner", "ltail"})
#: Replica attributes that are plain data (combiner-only counters).
_DATA_ATTRS = frozenset({"batches", "max_batch"})


class TracedReplica(Replica):
    """A Replica whose attribute traffic is reported to the monitor."""

    def __init__(self, ds, monitor: RaceMonitor, index: int) -> None:
        object.__setattr__(self, "_mon", None)   # mute during base init
        prefix = f"replica{index}"
        super().__init__(ds=TracedDS(ds, monitor, f"{prefix}.ds"))
        self.slots = TracedDict(monitor, f"{prefix}.slots")
        self.results = TracedDict(monitor, f"{prefix}.results")
        self.lock = TracedRwLock(monitor, f"{prefix}.lock")
        object.__setattr__(self, "_prefix", prefix)
        object.__setattr__(self, "_mon", monitor)

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name.startswith("_"):
            return value
        monitor = object.__getattribute__(self, "_mon")
        if monitor is not None:
            prefix = object.__getattribute__(self, "_prefix")
            if name in _ATOMIC_ATTRS:
                monitor.atomic_read(f"{prefix}.{name}")
            elif name in _DATA_ATTRS:
                monitor.data_read(f"{prefix}.{name}")
        return value

    def __setattr__(self, name, value):
        monitor = object.__getattribute__(self, "_mon")
        if monitor is not None and not name.startswith("_"):
            prefix = object.__getattribute__(self, "_prefix")
            if name in _ATOMIC_ATTRS:
                monitor.atomic_write(f"{prefix}.{name}")
            elif name in _DATA_ATTRS:
                monitor.data_write(f"{prefix}.{name}")
        object.__setattr__(self, name, value)


def instrument(nr: NodeReplicated, monitor: RaceMonitor) -> NodeReplicated:
    """Replace a fresh NodeReplicated's shared state with traced
    versions (must be called before any operation runs)."""
    if len(nr.log) or nr.log.tail:
        raise ValueError("instrument() needs a fresh NodeReplicated")
    nr.log = TracedLog(monitor)
    nr.replicas = [TracedReplica(replica.ds, monitor, i)
                   for i, replica in enumerate(nr.replicas)]
    return nr


# -- the replay driver --------------------------------------------------------------


@dataclass
class RaceReport:
    """What one replay campaign observed."""

    races: list[Race] = field(default_factory=list)
    steps: int = 0
    accesses: int = 0
    seeds: list[int] = field(default_factory=list)
    schedules: int = 0

    @property
    def clean(self) -> bool:
        return not self.races


def replay(scripts, seed: int, nr_factory=None, monitor: RaceMonitor = None,
           max_steps: int = 200_000) -> RaceMonitor:
    """Interleave the scripts' protocol steps under `seed`, reporting
    every access to `monitor`; returns the monitor."""
    if nr_factory is None:
        nr_factory = lambda: NodeReplicated(KvStore, num_nodes=2)  # noqa: E731
    if monitor is None:
        monitor = RaceMonitor()
    run_interleaved(instrument(nr_factory(), monitor), scripts, seed,
                    max_steps=max_steps, monitor=monitor)
    return monitor


def detect_races(seeds, nr_factory=None, scripts=None,
                 max_steps: int = 200_000) -> RaceReport:
    """Replay the protocol once per seed (fresh instance each time, so
    every schedule starts from the same state) and merge the reports."""
    report = RaceReport(seeds=list(seeds))
    for seed in report.seeds:
        monitor = replay(scripts or workload_scripts(), seed=seed,
                         nr_factory=nr_factory, max_steps=max_steps)
        report.races.extend(monitor.races)
        report.steps += monitor.seq
        report.accesses += monitor.accesses
        report.schedules += 1
    return report
