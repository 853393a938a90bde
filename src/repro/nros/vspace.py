"""NR-replicated address spaces with TLB shootdown.

NrOS replicates kernel state — including address-space structures — per
NUMA node through node replication.  A :class:`VSpace` therefore owns one
page table *per node* (the NR replicas), all kept consistent through the
operation log; each core's MMU walks its own node's tree, and unmap performs
a TLB shootdown across every registered core.  :meth:`VSpace.translate` is
the only way the kernel turns a user address into a physical one.

Interference model (see :mod:`repro.verif.rgspec`): the page-table trees
are mutated only inside ``_PtDs.apply``, which NR runs while holding the
replica writer lock — that lock is the guard the rely-guarantee spec
names for every vspace action.  The per-space bookkeeping counters
(``mapped_pages``, ``shootdowns``, the walker's ``mmu.walks``) and the
obs instruments are declared *benign* shared state: the rely admits
concurrent monitoring updates and no invariant depends on their exact
values, so the static checker does not require a lock around them.  TLB registration (``attach_core`` /
``detach_core``) is core-local configuration serialized by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.pt.defs import Flags, PageSize
from repro.core.pt.impl import (
    AlreadyMapped,
    BadRequest,
    Mapping,
    NotMapped,
    OutOfFrames,
    PageTable,
)
from repro.hw.mem import PhysicalMemory
from repro.hw.mmu import AccessType, Mmu, TranslationFault, check_access
from repro.hw.tlb import Tlb
from repro.nr.core import NodeReplicated
from repro.nros.pmem import OutOfMemory


class VSpaceError(Exception):
    """An address-space operation failed (wraps the page-table error).

    ``kind`` is the replica's typed error class (``not_mapped``,
    ``already_mapped``, ``bad_request``, ``no_memory``) when known, so
    callers can map it to an errno without parsing the message."""

    def __init__(self, message: str, kind: str | None = None) -> None:
        super().__init__(message)
        self.kind = kind


class _Grant(list):
    """One replica's table frames for one logged map (`VSpace._grant`):
    the page table's allocator while it applies that entry."""

    def alloc_frame(self) -> int:
        if not self:
            raise OutOfMemory("the replica's granted table frames ran out")
        return self.pop()

    free_frame = list.append


@dataclass
class _PtDs:
    """The sequential data structure NR replicates: one page-table tree.

    Results are ("ok", payload) / ("err", kind) tuples because NR transports
    results through the log rather than exceptions."""

    pt: object

    def apply(self, op):
        kind = op[0]
        try:
            if kind == "map":
                _, vaddr, frame, size, flags, grants = op
                self._drawing(grants, self.pt.map_frame,
                              vaddr, frame, size, flags)
                return ("ok", None)
            if kind == "unmap":
                _, vaddr = op
                return ("ok", self.pt.unmap(vaddr))
            if kind == "map_batch":
                return self._apply_map_batch(op[1], op[2])
            if kind == "unmap_batch":
                return self._apply_unmap_batch(op[1])
        except AlreadyMapped as exc:
            return ("err", "already_mapped", str(exc))
        except NotMapped as exc:
            return ("err", "not_mapped", str(exc))
        except BadRequest as exc:
            return ("err", "bad_request", str(exc))
        except (OutOfFrames, OutOfMemory) as exc:
            # no table frame: the page table rolled the op back; a typed
            # result lets every replica consume the log entry
            return ("err", "no_memory", str(exc))
        raise ValueError(f"unknown vspace op {op!r}")

    def _apply_map_batch(self, entries, grants):
        """N maps as ONE log operation — a single append + combine pays
        for the whole batch.  All-or-nothing inside the replica (the
        page table unwinds a failing batch itself), so no replica ever
        exposes a partially-mapped batch."""
        return ("ok", self._drawing(grants, self.pt.map_batch, entries))

    def _drawing(self, grants, map_op, *args):
        """Run `map_op`; with `grants`, on this replica's frames only, so
        every replica applies the entry alike.  Leftovers go back."""
        if grants is None:
            return map_op(*args)
        shared = self.pt.allocator
        self.pt.allocator = grant = _Grant(grants[self.pt.root_paddr])
        try:
            return map_op(*args)
        finally:
            self.pt.allocator = shared
            for frame in grant:
                shared.free_frame(frame)

    def _apply_unmap_batch(self, vaddrs):
        """N unmaps as ONE log operation.  The page table validates the
        whole batch before any mapping changes, so the batch is atomic
        without rollback state."""
        return ("ok", tuple(self.pt.unmap_batch(vaddrs)))

    def query(self, op):
        kind, vaddr = op
        if kind != "resolve":
            raise ValueError(f"unknown vspace query {op!r}")
        try:
            return ("ok", self.pt.resolve(vaddr))
        except BadRequest as exc:
            return ("err", "bad_request", str(exc))


class VSpace:
    """One process address space, replicated across NUMA nodes."""

    def __init__(
        self,
        memory: PhysicalMemory,
        allocator,
        num_nodes: int = 1,
        pt_factory=PageTable,
    ) -> None:
        self.memory = memory
        self.allocator = allocator
        self.mmu = Mmu(memory)  # the walker of every miss; `walks` counts them
        self.nr = NodeReplicated(
            lambda: _PtDs(pt_factory(memory, allocator)), num_nodes=num_nodes
        )
        self._tlbs: dict[int, Tlb] = {}       # core -> TLB
        self._core_node: dict[int, int] = {}  # core -> NUMA node
        #: TLB shootdown *rounds* issued (a batched unmap counts one).
        self.shootdowns = 0
        self.mapped_pages = 0
        # Aggregate (cross-VSpace) instruments in the process-wide
        # registry, so benchmarks and the trace export report the same
        # numbers the attributes above hold per address space.
        self._obs_rounds = obs.counter("vspace.shootdown_rounds")
        self._obs_shot_pages = obs.counter("vspace.shootdown_pages")
        self._obs_mapped = obs.gauge("vspace.mapped_pages")
        self._obs_batch = obs.histogram("vspace.batch_pages")

    # -- core registration ------------------------------------------------------

    def attach_core(self, core: int, node: int, tlb: Tlb | None = None) -> None:
        """Register a core (and its TLB) as using this address space."""
        if node >= self.nr.num_nodes:
            raise ValueError(f"node {node} out of range")
        self._core_node[core] = node
        self._tlbs[core] = tlb if tlb is not None else Tlb()

    def detach_core(self, core: int) -> None:
        self._core_node.pop(core, None)
        tlb = self._tlbs.pop(core, None)
        if tlb is not None:
            tlb.flush()

    def root_for(self, core: int) -> int:
        """The page-table root the given core's CR3 points at."""
        node = self._core_node.get(core, 0)
        return self.nr.replicas[node].ds.pt.root_paddr

    # -- operations -----------------------------------------------------------------

    def _run(self, driver, op, core: int):
        """Run `op` from `core` through NR; an err result raises
        :class:`VSpaceError` carrying the replica's typed kind."""
        result = driver(op, node=self._core_node.get(core, 0), thread=core)
        if result[0] != "ok":
            raise VSpaceError(result[2], kind=result[1])
        return result[1]

    def map(self, vaddr: int, frame: int, size: PageSize, flags: Flags,
            core: int = 0) -> None:
        grants = (self._grant(((vaddr, frame, size, flags),), core)
                  if self.nr.num_nodes > 1 else None)
        self._run(self.nr.execute,
                  ("map", vaddr, frame, size, flags, grants), core)
        self.mapped_pages += 1
        self._obs_mapped.inc()

    def unmap(self, vaddr: int, core: int = 0) -> Mapping:
        removed = self._run(self.nr.execute, ("unmap", vaddr), core)
        self.mapped_pages -= 1
        self._obs_mapped.dec()
        # The unmap is only safe once *every* replica has applied it (no
        # core may keep translating through its stale tree) and every TLB
        # entry is gone — this full sync + shootdown is what makes unmap
        # more expensive than map (Figure 1c vs 1b).
        self.nr.sync_all()
        self._shootdown([removed.vaddr])
        return removed

    def map_batch(self, entries, core: int = 0) -> None:
        """Apply N ``(vaddr, frame, size, flags)`` map operations as
        **one** NR log operation.

        One log append + one flat-combining round pays for the whole
        batch (per-op, the amortization Figure 1b prices), and the
        replica applies the batch all-or-nothing: a failing entry
        unwinds the ones already mapped before the error surfaces, so
        no partially-mapped batch is ever visible.
        """
        entries = tuple(entries)
        if not entries:
            return
        grants = (self._grant(entries, core)
                  if self.nr.num_nodes > 1 else None)
        self._run(self.nr.execute, ("map_batch", entries, grants), core)
        self.mapped_pages += len(entries)
        self._obs_mapped.inc(len(entries))
        self._obs_batch.record(len(entries))

    def _grant(self, entries, core: int) -> dict[int, tuple[int, ...]]:
        """Take now, keyed by replica root, the table frames each replica
        needs to map `entries` — a lagging one applies the entry later,
        when the allocator may be dry — or refuse before logging.  The
        caller's replica, caught up, has every replica's tree there."""
        self._sync_node(self._core_node.get(core, 0), core)
        need = PageTable(self.memory, self.allocator,
                         self.root_for(core)).tables_needed(entries)
        frames: list[int] = []
        try:
            while len(frames) < need * self.nr.num_nodes:
                frames.append(self.allocator.alloc_frame())
        except (OutOfFrames, OutOfMemory) as exc:
            for frame in reversed(frames):
                self.allocator.free_frame(frame)
            raise VSpaceError(str(exc), kind="no_memory") from exc
        return {replica.ds.pt.root_paddr: tuple(frames[i * need:][:need])
                for i, replica in enumerate(self.nr.replicas)}

    def unmap_batch(self, vaddrs, core: int = 0) -> list[Mapping]:
        """Remove N pages with **one** log operation and **one** TLB
        shootdown round.

        The batch goes through the NR log as a single validate-then-
        apply operation (atomic: a missing page fails the batch before
        any mapping changes); then one ``sync_all`` quiesces every
        replica and one shootdown round delivers each core its whole
        invalidation set.  The paper's unmap-synchronization obligation
        is preserved — no stale translation survives past return (and
        the kernel posts no completion for any entry of the batch
        before this returns) — but the log-append + sync + IPI
        round-trip is paid once per batch instead of once per page.
        """
        vaddrs = tuple(vaddrs)
        if not vaddrs:
            return []
        removed = list(self._run(self.nr.execute, ("unmap_batch", vaddrs),
                                 core))
        self.mapped_pages -= len(removed)
        self._obs_mapped.dec(len(removed))
        self._obs_batch.record(len(removed))
        self.nr.sync_all()
        self._shootdown([m.vaddr for m in removed])
        return removed

    def resolve(self, vaddr: int, core: int = 0) -> Mapping | None:
        return self._run(self.nr.execute_ro, ("resolve", vaddr), core)

    def _shootdown(self, vaddrs: list[int]) -> None:
        """One shootdown round: deliver every registered core its
        invalidation set for the whole batch (the mandatory protocol
        established by the `tlb` VCs, amortized over N pages)."""
        self.shootdowns += 1
        self._obs_rounds.inc()
        self._obs_shot_pages.inc(len(vaddrs))
        for tlb in self._tlbs.values():
            tlb.invalidate_pages(vaddrs)

    # -- translation: the one door from a user address to a physical one -------------

    def translate(self, core: int, vaddr: int,
                  access: AccessType = AccessType.READ) -> int:
        """The physical address a user-mode `access` at `vaddr` reaches
        from `core`, or :class:`TranslationFault`.

        TLB first; a miss walks the core's own replica, and a walk that
        faults syncs that replica and retries once (the tree may simply
        lag the log; NrOS handles that page fault the same way).  The
        permission rule is applied once, to cached and walked alike.  A
        hit is never stale: unmap syncs every replica and shoots down
        every core before it returns."""
        if core not in self._core_node:
            raise ValueError(f"core {core} not attached")
        tlb = self._tlbs[core]
        translation = tlb.lookup(vaddr)
        if translation is None:
            root = self.root_for(core)
            try:
                translation = self.mmu.walk(root, vaddr)
            except TranslationFault:
                self._sync_node(self._core_node[core], core)
                translation = self.mmu.walk(root, vaddr)
            tlb.insert(translation)
        check_access(vaddr, translation.flags, access, user_mode=True)
        return translation.frame_paddr + vaddr - translation.page_base_vaddr

    def _sync_node(self, node: int, core: int) -> None:
        """Apply any outstanding log entries to this node's replica."""
        steps = self.nr.sync_steps(node, thread=core)
        for _ in steps:
            pass

    def sync(self) -> None:
        """Quiesce: apply the log everywhere (used before teardown)."""
        self.nr.sync_all()
