"""The declarative layer map — the single source of truth for the
spec / proof / exec / other boundary.

The paper's argument (and Section 5's 10:1 proof-to-code ratio) depends
on Verus *erasing* ghost code at compile time: the executable kernel can
be built with the specification and proof absent.  This module declares,
per module path, which side of that boundary every file in the tree is
on; two consumers derive from it so they cannot drift apart:

* the layering / erasure checker (:mod:`repro.analysis.imports`)
  enforces the import discipline the map implies, and
* :data:`repro.metrics.loc.CLASSIFICATION` — the Section-5 ratio — is
  rederived from the same entries via :func:`loc_classification`.

Layers:

``spec``
    Mathematical specification: state machines, transition relations,
    syscall predicates.  May import the verification framework and
    universal definitions, never the implementation.
``proof``
    Everything that *relates* spec to implementation — refinement
    lemmas, interpretation functions, the verification framework, the
    SMT stack, the prover tooling.  Proof may import anything.
``exec``
    The executable system: page tables, hardware models, the kernel,
    NR, ulib, applications.  The erasure discipline: an exec module
    must be importable with every spec and proof module deleted, so
    module-level imports of spec/proof are violations, and deferred
    (function-local) ones must carry an explicit
    ``# repro: allow(ghost-import)`` marker.
``other``
    Universal definitions (word arithmetic, immutable containers,
    shared constants) and tooling outside the theorem (observability,
    fault campaign, metrics, this analysis package).

Each entry is ``(path_prefix, layer, loc_kind)`` with first match wins;
``loc_kind`` overrides the default layer→loc mapping used by the
proof-to-code ratio (``spec``/``proof`` count as proof lines, ``exec``
as code, ``other`` as other).
"""

from __future__ import annotations

LAYERS = ("spec", "proof", "exec", "other")

#: Default loc kind (proof/code/other) for each layer.
DEFAULT_LOC_KIND = {
    "spec": "proof",
    "proof": "proof",
    "exec": "code",
    "other": "other",
}

#: (path prefix relative to the repo root, layer, loc-kind override or None);
#: first match wins, so file-specific entries precede their directory.
LAYER_MAP = [
    # -- the page-table artifact ------------------------------------------------
    # hardware.py states what walker+bits must guarantee to the abstract
    # map — a refinement predicate, hence proof, not spec.
    ("src/repro/core/spec/hardware.py", "proof", None),
    ("src/repro/core/spec", "spec", None),
    ("src/repro/core/contract/proof.py", "proof", None),
    # view() abstracts the kernel's FdTable to SysState: it relates the
    # two sides, so it is proof.
    ("src/repro/core/contract/view.py", "proof", None),
    ("src/repro/core/contract", "spec", None),
    ("src/repro/core/refine", "proof", None),
    # pt/defs.py is shared bit-layout definitions quantified over by the
    # spec; universal, but its lines are implementation for the ratio.
    ("src/repro/core/pt/defs.py", "other", "code"),
    ("src/repro/core/pt", "exec", None),
    ("src/repro/core/__init__.py", "other", None),
    # -- verification framework -------------------------------------------------
    # linear.py is the *dynamic* ownership checker the kernel runs in
    # debug builds: exec-support at runtime, proof lines for the ratio.
    ("src/repro/verif/linear.py", "exec", "proof"),
    # the scheduler spec is a first-class spec module (pure state
    # machine + invariants); its proof module stays in the proof layer
    ("src/repro/verif/schedspec.py", "spec", None),
    ("src/repro/verif/schedproof.py", "proof", None),
    # the rely-guarantee interference spec (declarations + pure finite
    # models) is spec; its stability-VC module stays in the proof layer
    ("src/repro/verif/rgspec.py", "spec", None),
    ("src/repro/verif/rgproof.py", "proof", None),
    ("src/repro/verif", "proof", None),
    ("src/repro/smt", "proof", None),
    # prover is tooling around the proof (scheduler, cache): its lines
    # are neither side of the theorem.
    ("src/repro/prover", "proof", "other"),
    # -- node replication -------------------------------------------------------
    ("src/repro/nr/linearizability.py", "proof", None),
    ("src/repro/nr/proof.py", "proof", None),
    ("src/repro/nr/interleave.py", "proof", None),
    ("src/repro/nr", "exec", None),
    # -- the executable system --------------------------------------------------
    ("src/repro/hw", "exec", None),
    # the multi-class scheduler (runqueues, SMP protocol) is kernel
    # code; listed explicitly because the sched CI job audits it by name
    ("src/repro/nros/sched", "exec", None),
    # the submission/completion ring (batched syscall dispatch) is
    # kernel code; listed explicitly because the ring CI job audits it
    ("src/repro/nros/syscall/ring.py", "exec", None),
    ("src/repro/nros", "exec", None),
    ("src/repro/ulib", "exec", None),
    ("src/repro/apps", "exec", None),
    # the WAL rides the verified FS through the file API — exec layer,
    # listed explicitly because the crash matrix audits it by name
    ("src/repro/cluster/wal.py", "exec", None),
    ("src/repro/cluster", "exec", None),
    ("src/repro/sim", "exec", None),
    # -- universal definitions --------------------------------------------------
    ("src/repro/wordlib.py", "other", "code"),
    ("src/repro/immutable.py", "other", "code"),
    # -- tooling outside the theorem --------------------------------------------
    ("src/repro/obs", "other", None),
    ("src/repro/faults", "other", None),
    ("src/repro/metrics", "other", None),
    ("src/repro/related", "other", None),
    ("src/repro/analysis", "other", None),
    ("src/repro/__init__.py", "other", None),
    ("src/repro/__main__.py", "other", None),
    # -- outside src/repro (loc classification only) ----------------------------
    ("tests", "proof", None),
    ("benchmarks", "other", None),
    ("examples", "other", None),
]

#: What each layer may import at module level.  Proof and other are
#: unconstrained: proof must mention both sides to relate them, and
#: other is either universal (imports nothing upward) or tooling that
#: drives the whole stack.  The transitive erasure check in
#: :mod:`repro.analysis.imports` closes the spec→other→exec loophole.
ALLOWED_IMPORTS = {
    "spec": {"spec", "proof", "other"},
    "proof": {"spec", "proof", "exec", "other"},
    "exec": {"exec", "other"},
    "other": {"spec", "proof", "exec", "other"},
}


def _matches(relative: str, prefix: str) -> bool:
    """Path-component-aware prefix match (``src/repro/nr`` must not
    claim ``src/repro/nros``)."""
    return relative == prefix or relative.startswith(prefix + "/")


def classify_layer(relative: str, layer_map=None) -> str | None:
    """Layer of a repo-relative path, or None when unmapped."""
    for entry in layer_map if layer_map is not None else LAYER_MAP:
        if _matches(relative, entry[0]):
            return entry[1]
    return None


def loc_kind(relative: str, layer_map=None) -> str:
    """proof/code/other classification for the Section-5 ratio."""
    for entry in layer_map if layer_map is not None else LAYER_MAP:
        if _matches(relative, entry[0]):
            override = entry[2] if len(entry) > 2 else None
            return override or DEFAULT_LOC_KIND[entry[1]]
    return "other"


def loc_classification() -> list[tuple[str, str]]:
    """The ``(kind, prefix)`` list :data:`repro.metrics.loc.CLASSIFICATION`
    is derived from, preserving the map's first-match-wins order."""
    out = []
    for entry in LAYER_MAP:
        prefix, layer = entry[0], entry[1]
        override = entry[2] if len(entry) > 2 else None
        out.append((override or DEFAULT_LOC_KIND[layer], prefix))
    return out
