"""The layering / erasure checker — ghost-code erasure, statically.

Verus erases ghost code at compile time: the executable kernel links
with the specification and proof absent.  The Python analog enforced
here is an import discipline over the declarative layer map
(:mod:`repro.analysis.layers`):

* ``layering.spec-imports-exec`` — a spec module imports the
  implementation (the specification must not depend on what it
  specifies);
* ``layering.exec-imports-proof`` — an exec module imports a proof or
  spec module at module level, so the runtime path cannot load with the
  proof layer deleted;
* ``ghost-import`` — an exec module imports proof/spec *inside a
  function*.  That is the Python spelling of a ghost function (the
  import is only paid when a verification entry point runs), but it
  must be explicit: the line needs ``# repro: allow(ghost-import)``;
* ``erasure.exec-reaches-proof`` / ``erasure.spec-reaches-exec`` —
  transitive versions closing the loophole of reaching a forbidden
  layer through an intermediate ``other`` module;
* ``layers.unmapped`` — a file the layer map does not classify (the
  drift that silently distorts the Section-5 ratio).

The module also reads the tree for every static pass:
:func:`discover_sources` finds the files and :func:`parse_sources`
parses each of them once.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.layers import ALLOWED_IMPORTS, classify_layer


@dataclass(frozen=True)
class ImportEdge:
    """One resolved intra-tree import."""

    src: str            # repo-relative importing file
    dst: str            # repo-relative imported file
    line: int
    module_level: bool
    name: str           # the dotted module name as written


def discover_sources(root: pathlib.Path,
                     subdir: str | None = "src/repro") -> dict[str, str]:
    """Repo-relative path -> source text for every analyzed module."""
    root = pathlib.Path(root)
    base = root / subdir if subdir else root
    sources = {}
    for path in sorted(base.rglob("*.py")):
        relative = path.relative_to(root)
        # dot-directories *inside* the tree are skipped; the checkout
        # itself may live under one
        if any(part.startswith(".") for part in relative.parts):
            continue
        sources[relative.as_posix()] = path.read_text(encoding="utf-8")
    return sources


def parse_sources(sources: dict[str, str]) -> tuple[dict[str, ast.Module],
                                                   list[Finding]]:
    """Parse every source once: path -> tree for every pass, plus one
    ``parse-error`` finding per file that does not parse (no pass sees
    that file)."""
    trees: dict[str, ast.Module] = {}
    errors: list[Finding] = []
    for relpath, text in sources.items():
        try:
            trees[relpath] = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            errors.append(Finding(rule="parse-error", path=relpath,
                                  line=exc.lineno or 1,
                                  message=f"cannot parse: {exc.msg}"))
    return trees, errors


def parent_map(node: ast.AST) -> dict[int, ast.AST]:
    """id(child) -> parent for every node below `node`."""
    return {id(child): parent for parent in ast.walk(node)
            for child in ast.iter_child_nodes(parent)}


def _module_level(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    """Does `node` run at import time (no enclosing function or lambda)?"""
    while id(node) in parents:
        node = parents[id(node)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return False
    return True


def _resolve(name: str, trees: dict) -> str | None:
    """Resolve a dotted module name to an analyzed file, trying the repo
    layouts we know about (``src/`` package roots and flat fixture
    trees)."""
    rel = name.replace(".", "/")
    for candidate in (f"src/{rel}.py", f"src/{rel}/__init__.py",
                      f"{rel}.py", f"{rel}/__init__.py"):
        if candidate in trees:
            return candidate
    return None


def _package_of(relpath: str) -> str:
    """Dotted package containing `relpath` (for relative imports)."""
    parts = relpath.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    parts = parts[:-1]  # drop the file
    return ".".join(parts)


def build_import_graph(trees: dict[str, ast.Module]) -> list[ImportEdge]:
    """Every intra-tree import edge, with source position and whether it
    executes at module import time."""
    edges = []
    for relpath, tree in trees.items():
        parents = parent_map(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg = _package_of(relpath).split(".")
                    pkg = pkg[: len(pkg) - (node.level - 1)]
                    base = ".".join(pkg + ([base] if base else []))
                # `from X import name` may import the submodule X.name
                # or an attribute of X; try the submodule first.
                names = [(f"{base}.{alias.name}" if base else alias.name,
                          base or alias.name) for alias in node.names]
            else:
                continue
            level = _module_level(node, parents)
            for submodule, fallback in names:
                dst = _resolve(submodule, trees)
                if dst is None and fallback != submodule:
                    dst = _resolve(fallback, trees)
                if dst is None or dst == relpath:
                    continue
                edges.append(ImportEdge(src=relpath, dst=dst,
                                        line=node.lineno,
                                        module_level=level,
                                        name=submodule))
    return edges


def _transitive_hits(start: str, graph: dict[str, list[ImportEdge]],
                     layers: dict[str, str], through: set[str],
                     forbidden: set[str]) -> list[list[ImportEdge]]:
    """Shortest module-level chains from `start` through layers in
    `through` ending on a layer in `forbidden` (chains of length >= 2;
    direct edges are covered by the edge rules)."""
    hits = []
    seen = {start}
    frontier: list[list[ImportEdge]] = [[edge] for edge in graph.get(start, ())]
    while frontier:
        next_frontier = []
        for chain in frontier:
            node = chain[-1].dst
            if node in seen:
                continue
            seen.add(node)
            layer = layers.get(node)
            if layer in forbidden:
                if len(chain) >= 2:
                    hits.append(chain)
                continue
            if layer in through:
                for edge in graph.get(node, ()):
                    next_frontier.append(chain + [edge])
        frontier = next_frontier
    return hits


def check_layering(trees: dict[str, ast.Module],
                   layer_map=None) -> tuple[list[Finding], dict]:
    """Run every layering/erasure rule; returns (findings, stats)."""
    findings: list[Finding] = []
    layers: dict[str, str] = {}
    for relpath in trees:
        layer = classify_layer(relpath, layer_map)
        if layer is None:
            findings.append(Finding(
                rule="layers.unmapped", path=relpath, line=1,
                message="file is not classified by the layer map "
                        "(spec/proof/exec/other); add an entry so the "
                        "proof-to-code ratio cannot silently drift"))
            layer = "other"
        layers[relpath] = layer

    edges = build_import_graph(trees)
    module_graph: dict[str, list[ImportEdge]] = {}
    for edge in edges:
        if edge.module_level:
            module_graph.setdefault(edge.src, []).append(edge)

    for edge in edges:
        src_layer, dst_layer = layers[edge.src], layers[edge.dst]
        if src_layer == "spec" and dst_layer == "exec":
            findings.append(Finding(
                rule="layering.spec-imports-exec", path=edge.src,
                line=edge.line,
                message=f"spec module imports implementation module "
                        f"{edge.name} ({edge.dst}); the specification "
                        f"must not depend on the code it specifies"))
        elif src_layer == "exec" and dst_layer in ("proof", "spec"):
            if edge.module_level:
                findings.append(Finding(
                    rule="layering.exec-imports-proof", path=edge.src,
                    line=edge.line,
                    message=f"exec module imports {dst_layer} module "
                            f"{edge.name} ({edge.dst}) at module level; "
                            f"the runtime path must be loadable with the "
                            f"proof layer erased"))
            else:
                findings.append(Finding(
                    rule="ghost-import", path=edge.src, line=edge.line,
                    message=f"deferred import of {dst_layer} module "
                            f"{edge.name} from exec code; ghost imports "
                            f"must be explicit — annotate with "
                            f"'# repro: allow(ghost-import)'"))
        elif dst_layer not in ALLOWED_IMPORTS[src_layer]:
            findings.append(Finding(
                rule="layering.forbidden-import", path=edge.src,
                line=edge.line,
                message=f"{src_layer} module may not import {dst_layer} "
                        f"module {edge.name} ({edge.dst})"))

    for start, layer in sorted(layers.items()):
        if layer == "exec":
            chains = _transitive_hits(start, module_graph, layers,
                                      through={"exec", "other"},
                                      forbidden={"proof", "spec"})
            rule = "erasure.exec-reaches-proof"
            what = "proof layer"
        elif layer == "spec":
            chains = _transitive_hits(start, module_graph, layers,
                                      through={"spec", "other"},
                                      forbidden={"exec"})
            rule = "erasure.spec-reaches-exec"
            what = "implementation"
        else:
            continue
        for chain in chains[:1]:  # one shortest chain per module is enough
            path_str = " -> ".join([chain[0].src] + [e.dst for e in chain])
            findings.append(Finding(
                rule=rule, path=start, line=chain[0].line,
                message=f"reaches the {what} transitively at module "
                        f"import time: {path_str}"))

    stats = {
        "files": len(trees),
        "edges": len(edges),
        "module_level_edges": sum(1 for e in edges if e.module_level),
    }
    return findings, stats
