"""Content-addressed fingerprints for proof-cache keys.

A cache key must change exactly when the *meaning* of a discharge changes:

* the goal term — serialized canonically (a postorder DAG walk with local
  numbering, so fingerprints are stable across processes and interpreter
  runs even though :class:`repro.smt.ast.Term` interning ids are not);
* the solver configuration — the `simplify` / `preprocess` / `incremental`
  flags (including the preprocessor's bounds) plus a
  digest of the :mod:`repro.smt` source code, so any edit to the solver
  stack invalidates every cached verdict while leaving spec-side edits to
  invalidate only the goals they actually change.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache

from repro.smt.ast import Term
from repro.smt.preprocess import FINGERPRINT as PREPROCESS_FINGERPRINT


def _serialize(term: Term, values: bool) -> str:
    """Postorder DAG walk with local numbering, one line per node;
    `values` keeps each node's constant value and operator params."""
    numbering: dict[int, int] = {}
    lines: list[str] = []
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, children_done = stack.pop()
        if id(node) in numbering:
            continue
        if not children_done:
            stack.append((node, True))
            for child in reversed(node.args):
                if id(child) not in numbering:
                    stack.append((child, False))
            continue
        numbering[id(node)] = len(numbering)
        child_ids = ",".join(str(numbering[id(a)]) for a in node.args)
        content = f"{node.params} {node.value!r} " if values else ""
        lines.append(
            f"{numbering[id(node)]} {node.op} {node.sort.width} "
            f"{content}{node.name!r} [{child_ids}]"
        )
    return "\n".join(lines)


def serialize_term(term: Term) -> str:
    """A canonical, process-independent text form of the term DAG.

    Nodes are numbered in postorder of first visit; each line is
    ``<local-id> <op> <sort> <params> <value-or-name> <child ids>``.
    Structurally equal DAGs serialize identically; any change to an
    operator, constant, variable name, sort, or shape changes the output.
    """
    return _serialize(term, values=True)


def term_fingerprint(term: Term) -> str:
    return hashlib.sha256(serialize_term(term).encode()).hexdigest()


def serialize_shape(term: Term) -> str:
    """Like :func:`serialize_term` but abstracting constant *values* and
    operator params while keeping ops, sorts, variable names, and DAG shape.

    Two goals with the same shape serialization are the same lemma template
    instantiated at different constants (``index_extract_12`` vs
    ``index_extract_30``, ``no_carry_0x1000`` vs ``no_carry_0x20_0000``):
    their AIG cones overlap heavily under structural hashing, which is what
    makes discharging them through one shared incremental solver pay off.
    """
    return _serialize(term, values=False)


def family_fingerprint(term: Term) -> str:
    """Groups structurally-similar goals for shared-solver discharge."""
    return hashlib.sha256(serialize_shape(term).encode()).hexdigest()


@lru_cache(maxsize=1)
def smt_code_digest() -> str:
    """Digest of every source file in the repro.smt package.

    Editing the rewriter, bit-blaster, CNF encoder, or SAT solver changes
    this digest and therefore misses every cached entry — a cached verdict
    is only trusted for the exact solver stack that produced it.
    """
    import repro.smt

    package_dir = os.path.dirname(repro.smt.__file__)
    digest = hashlib.sha256()
    for filename in sorted(os.listdir(package_dir)):
        if not filename.endswith(".py"):
            continue
        digest.update(filename.encode())
        with open(os.path.join(package_dir, filename), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def solver_config_fingerprint(simplify: bool = True, preprocess: bool = True,
                              incremental: bool = True) -> str:
    """Digest of everything about the solver stack that can change a
    verdict's provenance: the rewriter flag, the CNF-preprocessor
    bounds, whether family discharge (incremental assumption
    solving) is enabled, and the smt source digest.  Cached entries from a
    differently-configured stack never match."""
    pre = PREPROCESS_FINGERPRINT if preprocess else "off"
    blob = (
        f"simplify={simplify};preprocess={pre}"
        f";incremental={incremental};smt={smt_code_digest()}"
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def goal_fingerprint(goal: Term, simplify: bool = True,
                     preprocess: bool = True,
                     incremental: bool = True) -> str:
    """The proof-cache key: goal content + solver configuration."""
    blob = (
        f"{term_fingerprint(goal)}:"
        f"{solver_config_fingerprint(simplify, preprocess, incremental)}"
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@lru_cache(maxsize=1)
def source_tree_digest() -> str:
    """Digest of every ``.py`` file under the installed ``repro`` package."""
    import repro

    root = os.path.dirname(repro.__file__)
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def structural_fingerprint(builder: str, kwargs: dict, vc_name: str) -> str:
    """Cache key for a non-SMT VC of a population of known provenance.

    A structural VC's verdict is an arbitrary Python computation, so the
    finest sound key is coarse: the builder identity (name + exact kwargs),
    the VC name, and a digest of the whole source tree — any source edit
    invalidates every structural entry (ccache-style), while SMT entries
    keep their fine-grained goal-term keys.  Only engines carrying a
    `rebuild_spec` (the builder's name and arguments) qualify; ad-hoc VCs
    with unknown provenance are never cached.
    """
    frozen = tuple(sorted(kwargs.items()))
    blob = f"{builder}:{frozen!r}:{vc_name}:{source_tree_digest()}"
    return hashlib.sha256(blob.encode()).hexdigest()
