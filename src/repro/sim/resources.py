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
    to the sharers (paying a transfer if it was not one already).
    """

    topology: Topology
    owner: int | None = None       # last writer (exclusive owner), if any
    sharers: set[int] = field(default_factory=set)
    transfers: int = 0

    def read(self, core: int) -> int:
        if core in self.sharers or core == self.owner:
            return self.topology.costs.l1_hit
        self.transfers += 1
        source = self.owner if self.owner is not None else core
        cost = (
            self.topology.transfer_cost(source, core)
            if source != core
            else self.topology.costs.local_dram
        )
        self.sharers.add(core)
        return cost

    def write(self, core: int) -> int:
        if self.owner == core and not (self.sharers - {core}):
            return self.topology.costs.l1_hit
        self.transfers += 1
        if self.owner is not None and self.owner != core:
            cost = self.topology.transfer_cost(self.owner, core)
        elif self.sharers - {core}:
            # invalidate the other sharers; pay the farthest one
            cost = max(
                self.topology.transfer_cost(s, core)
                for s in self.sharers
                if s != core
            )
        else:
            cost = self.topology.costs.local_dram
        self.owner = core
        self.sharers = {core}
        return cost

    def atomic_rmw(self, core: int) -> int:
        """A LOCK-prefixed read-modify-write: a write plus atomic overhead."""
        return self.write(core) + self.topology.costs.atomic_op
