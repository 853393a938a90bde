"""NUMA topology and the cache-coherence cost model.

Costs are in nanoseconds and calibrated to the usual orders of magnitude for
a two-socket x86 server (the class of machine NrOS was evaluated on): L1
hits a few ns, on-socket cache-line transfers tens of ns, cross-socket
transfers 100+ ns, DRAM ~100 ns local / ~150 ns remote.

The absolute values do not matter for reproducing the *shape* of Figures
1b/1c — what matters is that remote transfers cost several times local ones
and that contended lines bounce between writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Latency constants (ns) used by the simulated machine."""

    l1_hit: int = 2
    local_transfer: int = 40      # cache line from a core on the same node
    remote_transfer: int = 130    # cache line from a core on another node
    local_dram: int = 90
    remote_dram: int = 150
    atomic_op: int = 20           # uncontended LOCK-prefixed RMW overhead
    syscall_entry: int = 500      # user->kernel crossing
    syscall_exit: int = 300
    ipi: int = 1200               # inter-processor interrupt round trip
    tlb_invlpg: int = 150


@dataclass(frozen=True)
class Topology:
    """A machine with `num_cores` cores spread over NUMA nodes."""

    num_cores: int
    cores_per_node: int = 14  # two 14-core sockets at 28 cores, like the paper
    costs: CostModel = CostModel()
    #: `transfer[to][from]`: what `to` pays for a cache line last owned by
    #: `from` (see :meth:`transfer_cost`).  Every input is fixed at
    #: construction, so it is computed once and the coherence model
    #: prices an access with one row read.
    transfer: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_cores <= 0 or self.cores_per_node <= 0:
            raise ValueError("cores and cores_per_node must be positive")
        costs, per_node = self.costs, self.cores_per_node
        cores = range(self.num_cores)
        object.__setattr__(self, "transfer", tuple(
            tuple(costs.l1_hit if src == dst
                  else costs.local_transfer
                  if src // per_node == dst // per_node
                  else costs.remote_transfer
                  for src in cores)
            for dst in cores))

    @property
    def num_nodes(self) -> int:
        return (self.num_cores + self.cores_per_node - 1) // self.cores_per_node

    def node_of(self, core: int) -> int:
        self._check_core(core)
        return core // self.cores_per_node

    def cores_on_node(self, node: int) -> list[int]:
        return [
            core
            for core in range(self.num_cores)
            if self.node_of(core) == node
        ]

    def transfer_cost(self, from_core: int, to_core: int) -> int:
        """Cost for `to_core` to obtain a cache line last owned by
        `from_core`: an L1 hit for the same core, a local transfer within
        a node, a remote one across nodes."""
        self._check_core(to_core)
        self._check_core(from_core)
        return self.transfer[to_core][from_core]

    def dram_cost(self, core: int, home_node: int) -> int:
        if self.node_of(core) == home_node:
            return self.costs.local_dram
        return self.costs.remote_dram

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range")
