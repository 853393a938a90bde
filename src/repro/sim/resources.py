"""Simulated shared resources: FIFO locks and coherence-tracked cache lines.

A :class:`SimLock` is the mutual-exclusion primitive simulated processes
acquire via ``yield Acquire(lock)``.  A :class:`CacheLine` is not a blocking
resource — it is a cost oracle: each access returns the latency implied by
MESI-style ownership movement, which the accessing process then pays with a
``Delay``.  Contended lines (the NR log tail, the combiner lock word) are
what make latency grow with core count in Figures 1b/1c.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.sim.kernel import SimulationError, Simulator, _Process
from repro.sim.topology import Topology


class SimLock:
    """FIFO mutual exclusion for simulated processes."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._holder: _Process | None = None
        self._waiters: deque[_Process] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def held(self) -> bool:
        return self._holder is not None

    def _acquire(self, sim: Simulator, process: _Process) -> None:
        if self._holder is None:
            self._holder = process
            self.acquisitions += 1
            sim._schedule(sim.now, process, True)
        else:
            self.contended_acquisitions += 1
            self._waiters.append(process)

    def _release(self, sim: Simulator, process: _Process) -> None:
        if self._holder is not process:
            raise SimulationError(
                f"process {process.name} released lock {self.name!r} it "
                f"does not hold"
            )
        if self._waiters:
            self._holder = self._waiters.popleft()
            self.acquisitions += 1
            sim._schedule(sim.now, self._holder, True)
        else:
            self._holder = None
        sim._schedule(sim.now, process, None)


@dataclass
class CacheLine:
    """One cache line with MESI-flavoured ownership tracking.

    `read(core)` / `write(core)` return the access cost in ns and update
    ownership: a write makes `core` the exclusive owner; a read adds `core`
    to the sharers (paying a transfer if it was not one already).  Every
    access that is not a hit checks `core` against the topology, so a hit
    can only come from a core that was already accepted.

    An access reads its price from `core`'s row of
    :attr:`Topology.transfer`: no access calls into the topology or
    allocates a set.
    """

    topology: Topology
    owner: int | None = None       # last writer (exclusive owner), if any
    sharers: set[int] = field(default_factory=set)
    transfers: int = 0

    def __post_init__(self) -> None:
        costs = self.topology.costs
        self._transfer = self.topology.transfer
        self._num_cores = self.topology.num_cores
        self._l1_hit = costs.l1_hit
        self._local_dram = costs.local_dram
        self._atomic_op = costs.atomic_op

    def read(self, core: int) -> int:
        owner = self.owner
        if core in self.sharers or core == owner:
            return self._l1_hit
        if not 0 <= core < self._num_cores:
            raise ValueError(f"core {core} out of range")
        self.transfers += 1
        self.sharers.add(core)
        if owner is None:
            return self._local_dram
        return self._transfer[core][owner]

    def write(self, core: int) -> int:
        owner, sharers = self.owner, self.sharers
        # `core in sharers` is 0 or 1, so this counts the sharers other
        # than `core` without building `sharers - {core}`
        if owner == core and len(sharers) == (core in sharers):
            return self._l1_hit
        if not 0 <= core < self._num_cores:
            raise ValueError(f"core {core} out of range")
        self.transfers += 1
        if owner is not None and owner != core:
            cost = self._transfer[core][owner]
        elif len(sharers) > (core in sharers):
            # invalidate the other sharers; pay the farthest one
            row = self._transfer[core]
            cost = max(row[s] for s in sharers if s != core)
        else:
            cost = self._local_dram
        self.owner = core
        sharers.clear()
        sharers.add(core)
        return cost

    def atomic_rmw(self, core: int) -> int:
        """A LOCK-prefixed read-modify-write: a write plus atomic overhead."""
        return self.write(core) + self._atomic_op
