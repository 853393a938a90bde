"""Rely-guarantee specifications for the concurrent memory-management
layer.

Zhao & Sanán verify a concurrent buddy allocator by giving every
operation an *interference spec*: a **guarantee** (the atomic state
changes this thread may perform) and a **rely** (the union of every
other thread's guarantees, which this thread's invariants must survive).
This module is the reproduction's version of that discipline, in two
halves:

* **Interference declarations** — :class:`Component` records, one per
  shared structure (`pmem` buddy allocator, `physmem`, the NR-replicated
  page tables, `vspace`), naming each atomic action, the guard that
  makes it atomic (a lock bracket, the NR combiner, or an ambient
  ownership discipline), and its shared read/write footprint.  The
  static checker in :mod:`repro.analysis.rg` extracts the real
  footprints from the AST and diffs them against these declarations —
  an unguarded or undeclared shared mutation is a finding, so the
  "actions are atomic" hypothesis the proofs lean on is mechanically
  tied to the code.

* **Finite interference models** — small pure state machines whose
  transitions *are* the declared guarantees.  Because every thread's
  guarantee is drawn from the same action set, "invariant I is stable
  under the rely" reduces to "I is inductive under every action fired
  by an arbitrary other thread", which bounded exploration plus
  per-action induction can discharge (:mod:`repro.verif.rgproof`, one
  VC per invariant × action pair behind ``prove --layers rg``).

This module is spec-layer: pure functions over frozen dataclasses
(checked by ``python -m repro analyze``'s purity lint).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.verif.statemachine import SpecStateMachine, Transition

# ---------------------------------------------------------------------------
# Interference declarations (consumed by repro.analysis.rg)
# ---------------------------------------------------------------------------

#: Guard kinds.  ``lock`` demands a lexical ``with self.<attr>:`` bracket
#: around every shared access of the action; ``nr`` marks actions made
#: atomic by the NR combiner (the replica writer lock is held while the
#: log applies them); ``ambient`` marks ownership/caller disciplines
#: that hold without a bracket (frame ownership, core registration).
LOCK = "lock"
NR = "nr"
AMBIENT = "ambient"

#: Method names that never mutate their receiver — calls on a shared
#: root that resolve to one of these count as *reads* of the root.
#: Components extend this set via ``readonly_methods``.
READONLY_METHODS = (
    "get", "keys", "values", "items", "count", "index", "copy",
)


@dataclass(frozen=True)
class Guard:
    """What makes an action atomic with respect to other threads."""

    name: str
    kind: str                 # LOCK | NR | AMBIENT
    attr: str | None = None   # the lock attribute on self, for LOCK
    why: str = ""


@dataclass(frozen=True)
class Action:
    """One atomic action: a method, its guard, and its footprint.

    ``writes``/``reads`` are *upper bounds* (the guarantee promises "at
    most this"); the static checker flags real accesses outside them.
    """

    name: str
    guard: str
    writes: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()


@dataclass(frozen=True)
class Component:
    """Rely-guarantee declaration for one shared structure."""

    name: str
    module: str                              # repo-relative source path
    cls: str
    guards: tuple[Guard, ...]
    shared: tuple[tuple[str, str], ...]      # (attr, guard name) pairs
    actions: tuple[Action, ...]
    #: Shared attributes whose unguarded mutation the rely explicitly
    #: admits (monitoring counters no invariant depends on).
    benign: tuple[str, ...] = ()
    #: Pre-publication methods: the object is thread-local until the
    #: constructor returns, so no guard is required.
    init_methods: tuple[str, ...] = ("__init__",)
    #: Extra non-mutating method names for this component's roots.
    readonly_methods: tuple[str, ...] = ()
    #: Methods sanctioned to reach through ``.replicas`` (NR bypass).
    replica_access: tuple[str, ...] = ()

    def guard_by_name(self, name: str) -> Guard:
        for guard in self.guards:
            if guard.name == name:
                return guard
        raise KeyError(f"{self.name} has no guard {name!r}")

    def action_by_name(self, name: str) -> Action | None:
        for action in self.actions:
            if action.name == name:
                return action
        return None

    def shared_map(self) -> dict:
        return dict(self.shared)


PMEM = Component(
    name="pmem",
    module="src/repro/nros/pmem.py",
    cls="BuddyAllocator",
    guards=(
        Guard("pmem.alloc", LOCK, attr="_lock",
              why="free lists, the allocated map, and the stats move "
                  "together; the lock bracket is the atomic action"),
    ),
    shared=(
        ("_free", "pmem.alloc"),
        ("_allocated", "pmem.alloc"),
        ("stats", "pmem.alloc"),
        ("injected_failures", "pmem.alloc"),
    ),
    actions=(
        Action("alloc_block", "pmem.alloc",
               writes=("_free", "_allocated", "stats",
                       "injected_failures")),
        Action("free_block", "pmem.alloc",
               writes=("_free", "_allocated", "stats")),
        Action("free_blocks", "pmem.alloc", reads=("_free",)),
        Action("check_integrity", "pmem.alloc",
               reads=("_free", "_allocated")),
    ),
    init_methods=("__init__", "_seed_free_lists"),
)

PHYSMEM = Component(
    name="physmem",
    module="src/repro/hw/mem.py",
    cls="PhysicalMemory",
    guards=(
        Guard("physmem.frame-ownership", AMBIENT,
              why="a thread only touches frames it owns; ownership is "
                  "handed out exclusively under pmem.alloc"),
    ),
    shared=(("_bytes", "physmem.frame-ownership"),),
    actions=(
        Action("load_u64", "physmem.frame-ownership", reads=("_bytes",)),
        Action("store_u64", "physmem.frame-ownership",
               writes=("_bytes",)),
        Action("load_u8", "physmem.frame-ownership", reads=("_bytes",)),
        Action("store_u8", "physmem.frame-ownership",
               writes=("_bytes",)),
        Action("read", "physmem.frame-ownership", reads=("_bytes",)),
        Action("write", "physmem.frame-ownership", writes=("_bytes",)),
        Action("zero_frame", "physmem.frame-ownership",
               writes=("_bytes",)),
        Action("is_zero_range", "physmem.frame-ownership",
               reads=("_bytes",)),
        Action("frame_words", "physmem.frame-ownership",
               reads=("_bytes",)),
    ),
)

VSPACE_DS = Component(
    name="vspace-ds",
    module="src/repro/nros/vspace.py",
    cls="_PtDs",
    guards=(
        Guard("nr.replica", NR,
              why="the NR combiner holds the replica writer lock across "
                  "ds.apply, so log application is the atomic action"),
    ),
    shared=(("pt", "nr.replica"),),
    actions=(
        Action("apply", "nr.replica", writes=("pt",)),
        Action("_apply_map_batch", "nr.replica", writes=("pt",)),
        Action("_apply_unmap_batch", "nr.replica", writes=("pt",)),
        Action("_drawing", "nr.replica", writes=("pt",)),
        Action("query", "nr.replica", reads=("pt",)),
    ),
    readonly_methods=("resolve",),
)

VSPACE = Component(
    name="vspace",
    module="src/repro/nros/vspace.py",
    cls="VSpace",
    guards=(
        Guard("nr.log", NR,
              why="mutations are linearized by the NR log append; the "
                  "combiner provides the atomicity"),
        Guard("vspace.cores", AMBIENT,
              why="core registration and per-core TLBs are serialized "
                  "by the caller (one kernel entry per core)"),
    ),
    shared=(
        ("nr", "nr.log"),
        ("_tlbs", "vspace.cores"),
        ("_core_node", "vspace.cores"),
    ),
    actions=(
        Action("attach_core", "vspace.cores",
               writes=("_tlbs", "_core_node"), reads=("nr",)),
        Action("detach_core", "vspace.cores",
               writes=("_tlbs", "_core_node")),
        Action("root_for", "nr.log", reads=("nr", "_core_node")),
        Action("map", "nr.log", writes=("nr",), reads=("_core_node",)),
        Action("unmap", "nr.log", writes=("nr",),
               reads=("_core_node",)),
        Action("map_batch", "nr.log", writes=("nr",),
               reads=("_core_node",)),
        Action("unmap_batch", "nr.log", writes=("nr",),
               reads=("_core_node",)),
        Action("resolve", "nr.log", reads=("nr", "_core_node")),
        Action("_shootdown", "vspace.cores", writes=("_tlbs",)),
        Action("translate", "vspace.cores", writes=("_tlbs",),
               reads=("_core_node",)),
        Action("_sync_node", "nr.log", writes=("nr",)),
        Action("sync", "nr.log", writes=("nr",)),
    ),
    # ``mmu`` is the walker ``translate`` uses: stateless but for its
    # ``walks`` counter
    benign=("mapped_pages", "shootdowns", "mmu", "_obs_rounds",
            "_obs_shot_pages", "_obs_mapped", "_obs_batch"),
    readonly_methods=("execute_ro", "lookup"),
    # both read only each replica's root, which is fixed at construction
    replica_access=("root_for", "_grant"),
)

#: Every declared component, in checking order.
COMPONENTS = (PMEM, PHYSMEM, VSPACE_DS, VSPACE)


# ---------------------------------------------------------------------------
# Finite interference model: the buddy allocator
# ---------------------------------------------------------------------------

#: Model bounds: 8 frames, block orders 0..3 (1, 2, 4, 8 frames).
PMEM_FRAMES = 8
PMEM_MAX_ORDER = 3


@dataclass(frozen=True)
class PmemState:
    """Free lists + allocated map + the redundant counter the
    implementation's ``stats.free_frames`` mirrors."""

    free: tuple[tuple[int, ...], ...]        # per order, sorted bases
    allocated: tuple[tuple[int, int], ...]   # sorted (base, order)
    free_frames: int


def pmem_init() -> PmemState:
    free = tuple(() if k < PMEM_MAX_ORDER else (0,)
                 for k in range(PMEM_MAX_ORDER + 1))
    return PmemState(free=free, allocated=(), free_frames=PMEM_FRAMES)


def _pmem_alloc_enabled(state: PmemState, args) -> bool:
    (order,) = args
    return any(state.free[k] for k in range(order, PMEM_MAX_ORDER + 1))


def _pmem_alloc(state: PmemState, args) -> PmemState:
    """The allocator's *guarantee* for alloc: take the lowest suitable
    block, split greedily, move the result to the allocated map — all
    as one atomic step (the lock bracket)."""
    (order,) = args
    free = [list(blocks) for blocks in state.free]
    found = next(k for k in range(order, PMEM_MAX_ORDER + 1) if free[k])
    base = min(free[found])
    free[found].remove(base)
    while found > order:
        found -= 1
        free[found].append(base + (1 << found))
    allocated = tuple(sorted(state.allocated + ((base, order),)))
    return PmemState(
        free=tuple(tuple(sorted(blocks)) for blocks in free),
        allocated=allocated,
        free_frames=state.free_frames - (1 << order),
    )


def _pmem_free_enabled(state: PmemState, args) -> bool:
    (base,) = args
    return any(b == base for b, _order in state.allocated)


def _pmem_free(state: PmemState, args) -> PmemState:
    """The guarantee for free: return the block and coalesce with free
    buddies eagerly, atomically."""
    (base,) = args
    order = next(o for b, o in state.allocated if b == base)
    allocated = tuple(entry for entry in state.allocated
                      if entry[0] != base)
    free = [list(blocks) for blocks in state.free]
    block, k = base, order
    while k < PMEM_MAX_ORDER:
        buddy = block ^ (1 << k)
        if buddy not in free[k]:
            break
        free[k].remove(buddy)
        block = min(block, buddy)
        k += 1
    free[k].append(block)
    return PmemState(
        free=tuple(tuple(sorted(blocks)) for blocks in free),
        allocated=allocated,
        free_frames=state.free_frames + (1 << order),
    )


def _pmem_blocks(state: PmemState):
    """Every (base, order, is_free) block in the state."""
    blocks = []
    for order, bases in enumerate(state.free):
        for base in bases:
            blocks.append((base, order, True))
    for base, order in state.allocated:
        blocks.append((base, order, False))
    return blocks


def pmem_coverage(state: PmemState) -> bool:
    """Free and allocated blocks partition the frame range exactly —
    no frame leaked, none doubly owned."""
    seen = []
    for base, order, _is_free in _pmem_blocks(state):
        seen.extend(range(base, base + (1 << order)))
    return sorted(seen) == list(range(PMEM_FRAMES))


def pmem_aligned(state: PmemState) -> bool:
    """Every block is naturally aligned to its order."""
    return all(base % (1 << order) == 0
               for base, order, _is_free in _pmem_blocks(state))


def pmem_coalesced(state: PmemState) -> bool:
    """Eager coalescing: no two buddies are ever both free at the same
    order (free would have merged them)."""
    for order in range(PMEM_MAX_ORDER):
        bases = set(state.free[order])
        if any((base ^ (1 << order)) in bases for base in bases):
            return False
    return True


def pmem_free_count(state: PmemState) -> bool:
    """The redundant counter matches the free lists (the invariant
    behind ``stats.free_frames``)."""
    total = sum((1 << order) * len(bases)
                for order, bases in enumerate(state.free))
    return state.free_frames == total


PMEM_INVARIANTS = {
    "pmem_coverage": pmem_coverage,
    "pmem_aligned": pmem_aligned,
    "pmem_coalesced": pmem_coalesced,
    "pmem_free_count": pmem_free_count,
}


def _pmem_free_args(state: PmemState):
    return tuple((base,) for base, _order in state.allocated)


def pmem_machine(init_states=None) -> SpecStateMachine:
    """The buddy-allocator interference model.  Each transition is one
    declared guarantee; stability of the invariants under the rely is
    induction under these transitions fired by any other thread."""
    return SpecStateMachine(
        name="rg-pmem",
        init_states=list(init_states) if init_states is not None
        else [pmem_init()],
        transitions=[
            Transition("alloc", _pmem_alloc_enabled, _pmem_alloc,
                       args=tuple((order,) for order in
                                  range(PMEM_MAX_ORDER + 1))),
            Transition("free", _pmem_free_enabled, _pmem_free,
                       args=_pmem_free_args),
        ],
        invariants=dict(PMEM_INVARIANTS),
    )


# ---------------------------------------------------------------------------
# Finite interference model: NR-replicated vspace + TLBs
# ---------------------------------------------------------------------------

#: Model bounds: 2 virtual pages, 2 frames, 2 replicas (one core each),
#: and at most MAX_LAG outstanding un-applied log operations (NR's
#: bounded log: laggards must catch up before more appends).
VS_VAS = (0, 1)
VS_FRAMES = (0, 1)
VS_REPLICAS = 2
VS_MAX_LAG = 2


@dataclass(frozen=True)
class VsState:
    """A garbage-collected NR log over per-replica page-table views.

    ``base`` is the mapping after the fully-applied log prefix (the
    canonical truncation that keeps the space finite); ``log`` is the
    outstanding suffix; ``applied[r]`` counts how much of the suffix
    replica r has applied; ``tlbs[c]`` holds core c's cached
    (va, frame) translations."""

    base: tuple[tuple[int, int], ...]        # sorted (va, frame)
    log: tuple[tuple, ...]                   # ("map", va, f) | ("unmap", va)
    applied: tuple[int, ...]
    tlbs: tuple[tuple[tuple[int, int], ...], ...]


def vs_replay(base, ops) -> tuple[tuple[int, int], ...]:
    """Apply a log suffix to a mapping (pure)."""
    view = dict(base)
    for op in ops:
        if op[0] == "map":
            view[op[1]] = op[2]
        else:
            view = {va: f for va, f in view.items() if va != op[1]}
    return tuple(sorted(view.items()))


def vs_view(state: VsState, replica: int) -> tuple[tuple[int, int], ...]:
    return vs_replay(state.base, state.log[:state.applied[replica]])


def vs_final(state: VsState) -> tuple[tuple[int, int], ...]:
    return vs_replay(state.base, state.log)


def vs_canonical(state: VsState) -> VsState:
    """Fold the prefix every replica has applied into ``base`` so the
    reachable space stays finite (NR log garbage collection)."""
    done = min(state.applied)
    if done == 0:
        return state
    return replace(
        state,
        base=vs_replay(state.base, state.log[:done]),
        log=state.log[done:],
        applied=tuple(k - done for k in state.applied),
    )


def vs_init() -> VsState:
    return VsState(base=(), log=(), applied=(0,) * VS_REPLICAS,
                   tlbs=((),) * VS_REPLICAS)


def _vs_map_enabled(state: VsState, args) -> bool:
    _core, va, frame = args
    final = dict(vs_final(state))
    return (len(state.log) < VS_MAX_LAG and va not in final
            and frame not in final.values())


def _vs_map(state: VsState, args) -> VsState:
    """Guarantee of map: one linearized log append (no sync, no TLB
    traffic — lazily applied by replicas)."""
    _core, va, frame = args
    return vs_canonical(replace(
        state, log=state.log + (("map", va, frame),)))


def _vs_unmap_enabled(state: VsState, args) -> bool:
    _core, va = args
    return va in dict(vs_final(state))


def _vs_unmap(state: VsState, args) -> VsState:
    """Guarantee of unmap: append + sync_all + shootdown as ONE atomic
    action — the implementation posts no completion before the
    shootdown round returns, and the combiner serializes the whole
    protocol, which is exactly the atomicity the declaration in
    ``VSPACE`` records."""
    _core, va = args
    log = state.log + (("unmap", va),)
    tlbs = tuple(tuple(entry for entry in tlb if entry[0] != va)
                 for tlb in state.tlbs)
    return vs_canonical(replace(
        state, log=log, applied=(len(log),) * VS_REPLICAS, tlbs=tlbs))


def _vs_sync_enabled(state: VsState, args) -> bool:
    (replica,) = args
    return state.applied[replica] < len(state.log)


def _vs_sync(state: VsState, args) -> VsState:
    """Guarantee of replica sync: apply the outstanding suffix."""
    (replica,) = args
    applied = tuple(len(state.log) if r == replica else k
                    for r, k in enumerate(state.applied))
    return vs_canonical(replace(state, applied=applied))


def _vs_fill_enabled(state: VsState, args) -> bool:
    core, va = args
    view = dict(vs_view(state, core))
    return va in view and (va, view[va]) not in state.tlbs[core]


def _vs_fill(state: VsState, args) -> VsState:
    """Guarantee of translate: cache the core's replica translation."""
    core, va = args
    frame = dict(vs_view(state, core))[va]
    tlbs = tuple(tuple(sorted(tlb + ((va, frame),))) if c == core
                 else tlb for c, tlb in enumerate(state.tlbs))
    return replace(state, tlbs=tlbs)


def _vs_evict_enabled(state: VsState, args) -> bool:
    core, va = args
    return any(entry[0] == va for entry in state.tlbs[core])


def _vs_evict(state: VsState, args) -> VsState:
    """Guarantee of a capacity eviction: dropping a TLB entry is always
    interference-safe."""
    core, va = args
    tlbs = tuple(tuple(entry for entry in tlb if entry[0] != va)
                 if c == core else tlb
                 for c, tlb in enumerate(state.tlbs))
    return replace(state, tlbs=tlbs)


def vs_tlb_current(state: VsState) -> bool:
    """No stale translation: every cached (va, frame) is the live
    mapping of the final log view (the paper's unmap-synchronization
    obligation, as a state invariant)."""
    final = dict(vs_final(state))
    return all(final.get(va) == frame
               for tlb in state.tlbs for va, frame in tlb)


def vs_replica_monotone(state: VsState) -> bool:
    """Every replica view is a subset of the final view: a lagging
    replica may be missing new maps but never holds a mapping the log
    has since removed (unmap syncs everyone before returning)."""
    final = set(vs_final(state))
    return all(set(vs_view(state, r)) <= final
               for r in range(VS_REPLICAS))


def vs_frames_unique(state: VsState) -> bool:
    """The final view is injective on frames — frame ownership is
    exclusive (this is where the pmem rely meets the vspace rely)."""
    frames = [frame for _va, frame in vs_final(state)]
    return len(frames) == len(set(frames))


def vs_lag_bounded(state: VsState) -> bool:
    """Canonical form: the log suffix is bounded, fully-applied
    prefixes are folded away, applied counters never pass the head."""
    return (len(state.log) <= VS_MAX_LAG
            and min(state.applied) == 0
            and all(k <= len(state.log) for k in state.applied))


VSPACE_INVARIANTS = {
    "vs_tlb_current": vs_tlb_current,
    "vs_replica_monotone": vs_replica_monotone,
    "vs_frames_unique": vs_frames_unique,
    "vs_lag_bounded": vs_lag_bounded,
}


def _vs_pairs_core_va():
    return tuple((core, va)
                 for core in range(VS_REPLICAS) for va in VS_VAS)


def vspace_machine(init_states=None) -> SpecStateMachine:
    """The vspace interference model: NR log, lazy replicas, TLB fills
    and evictions, and the atomic unmap protocol."""
    return SpecStateMachine(
        name="rg-vspace",
        init_states=list(init_states) if init_states is not None
        else [vs_init()],
        transitions=[
            Transition("map", _vs_map_enabled, _vs_map,
                       args=tuple((core, va, frame)
                                  for core in range(VS_REPLICAS)
                                  for va in VS_VAS
                                  for frame in VS_FRAMES)),
            Transition("unmap", _vs_unmap_enabled, _vs_unmap,
                       args=_vs_pairs_core_va()),
            Transition("sync", _vs_sync_enabled, _vs_sync,
                       args=tuple((r,) for r in range(VS_REPLICAS))),
            Transition("fill", _vs_fill_enabled, _vs_fill,
                       args=_vs_pairs_core_va()),
            Transition("evict", _vs_evict_enabled, _vs_evict,
                       args=_vs_pairs_core_va()),
        ],
        invariants=dict(VSPACE_INVARIANTS),
    )


#: (component name, machine builder, invariant names) — what rgproof
#: turns into one stability VC per invariant × interfering action.
MODELS = (
    ("pmem", pmem_machine, tuple(PMEM_INVARIANTS)),
    ("vspace", vspace_machine, tuple(VSPACE_INVARIANTS)),
)
