"""Seeded interference mutants for the rely-guarantee checker.

Each mutant is a deterministic AST transform of the *committed*
allocator source — the same CI trick the race pass plays with its
lock-elision mutants, but at the source level: the transformed module
replaces ``nros/pmem.py`` in the analyzed source set, and
``analyze --mutant <name>`` must exit non-zero because the rg pass
flags the now-unguarded mutations.  Being pure source transforms, the
mutants are flagged identically at every seed.

* ``pmem-free-unlocked`` — ``free_block`` drops its lock bracket
  entirely: a concurrent ``alloc_block`` can observe the free lists
  mid-coalesce (the classic lost-merge / double-ownership race).
* ``buddy-split-no-merge-lock`` — ``alloc_block`` releases the lock
  after picking a block but *before* splitting it and publishing the
  allocation, so the split loop's free-list writes race with a
  concurrent free's coalescing.
"""

from __future__ import annotations

import ast

from repro.verif.rgspec import PMEM

#: The module the mutants rewrite (the rg component declaration is the
#: single source of truth for its path).
PMEM_MODULE = PMEM.module


def _method(tree, cls: str, name: str) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        item.name == name:
                    return item
    raise ValueError(f"{cls}.{name} not found in pmem source")


def _the_with(method: ast.FunctionDef) -> tuple[int, ast.With]:
    for index, node in enumerate(method.body):
        if isinstance(node, ast.With):
            return index, node
    raise ValueError(f"{method.name} has no with-block to mutate")


def free_unlocked(source: str) -> str:
    """Replace free_block's lock bracket with its bare body."""
    tree = ast.parse(source)
    method = _method(tree, PMEM.cls, "free_block")
    index, with_node = _the_with(method)
    method.body[index:index + 1] = with_node.body
    return ast.unparse(ast.fix_missing_locations(tree))


def split_no_merge_lock(source: str) -> str:
    """Hoist alloc_block's split loop (and everything after it) out of
    the lock bracket: the block is picked under the lock, but the split
    and the publication to the allocated map run unguarded."""
    tree = ast.parse(source)
    method = _method(tree, PMEM.cls, "alloc_block")
    index, with_node = _the_with(method)
    split_at = next(
        i for i, node in enumerate(with_node.body)
        if isinstance(node, ast.While))
    hoisted = with_node.body[split_at:]
    with_node.body = with_node.body[:split_at]
    method.body[index + 1:index + 1] = hoisted
    return ast.unparse(ast.fix_missing_locations(tree))
