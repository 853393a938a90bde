"""The rely-guarantee interference checker (the ``rg.*`` rules).

The stability proofs in :mod:`repro.verif.rgproof` assume the
implementation's shared-state mutations happen only inside the atomic
actions :mod:`repro.verif.rgspec` declares — a lock bracket, the NR
combiner, or an ambient ownership discipline.  This pass discharges
that hypothesis statically: for every declared component class it
extracts each method's *shared-state footprint* from the AST (which
declared attributes it reads and writes, and whether each access sits
inside the guard) and diffs it against the declaration.

Rules:

* ``rg.unguarded-write`` / ``rg.unguarded-read`` — a lock-guarded
  action touches shared state outside its ``with self.<lock>:``
  bracket (the seeded interference mutants trip exactly this);
* ``rg.undeclared-write`` / ``rg.undeclared-read`` — an action's real
  footprint exceeds its declared guarantee;
* ``rg.unspecified-action`` — an undeclared method mutates shared
  state (interference the rely never admitted);
* ``rg.missing-action`` — a declared action has no matching method
  (the spec rotted);
* ``rg.nr-bypass`` — code reaches through ``.replicas`` around the NR
  log outside the sanctioned accessors.

Footprint extraction is deliberately write-biased: *every* method call
on a shared root counts as a write unless the method is declared
read-only (``dict.pop`` mutates even when its result is consumed, so
the purity lint's discarded-result heuristic would be unsound here),
and aliases of shared state (``tlb = self._tlbs[core]``, loop targets
over ``self._tlbs.values()``) carry the taint.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.imports import parent_map
from repro.verif.rgspec import COMPONENTS, LOCK, NR, READONLY_METHODS


def _self_attr_base(node):
    """The bottom ``self.<attr>`` Attribute of a chain like
    ``self._free[k].discard`` or ``self.nr.replicas[n].ds``, else None."""
    while True:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def _chain_root_name(node) -> str | None:
    """Leftmost Name of an attribute/subscript/call chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _inside_lock(node, lock_attr: str, parents) -> bool:
    """Is the node lexically inside ``with self.<lock_attr>:``?"""
    current = node
    while id(current) in parents:
        current = parents[id(current)]
        if isinstance(current, ast.With):
            for item in current.items:
                expr = item.context_expr
                if (isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr == lock_attr):
                    return True
    return False


class _Footprint:
    """Shared accesses of one method: (attr, kind, node) triples plus
    the sanctioned/bypass ``.replicas`` reaches."""

    def __init__(self) -> None:
        self.accesses: list[tuple[str, str, ast.AST]] = []
        self.replica_reaches: list[ast.AST] = []


def _collect_aliases(method, shared: set[str]) -> dict[str, str]:
    """Names bound to values chaining from a shared attribute (or from
    an existing alias) — a conservative one-level taint."""
    aliases: dict[str, str] = {}
    # Two sweeps so an alias-of-alias in later code still resolves.
    for _ in range(2):
        for node in ast.walk(method):
            value = None
            targets: list = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, (ast.For, ast.comprehension)):
                value = node.iter
                targets = [node.target]
            elif isinstance(node, ast.NamedExpr):
                value, targets = node.value, [node.target]
            if value is None:
                continue
            base = _self_attr_base(value)
            attr = None
            if base is not None and base.attr in shared:
                attr = base.attr
            else:
                root = _chain_root_name(value)
                if root in aliases:
                    attr = aliases[root]
            if attr is None:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        aliases[leaf.id] = attr
    return aliases


def _extract_footprint(method, shared: set[str],
                       readonly: set[str]) -> _Footprint:
    fp = _Footprint()
    aliases = _collect_aliases(method, shared)
    claimed: set[int] = set()

    def record(attr, kind, node, base=None):
        if base is not None:
            claimed.add(id(base))
        fp.accesses.append((attr, kind, node))

    def classify_target(target, node):
        base = _self_attr_base(target)
        if base is not None and base.attr in shared:
            record(base.attr, "write", node, base)
            return
        root = _chain_root_name(target)
        if isinstance(target, (ast.Attribute, ast.Subscript)) and \
                root in aliases:
            record(aliases[root], "write", node)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                classify_target(element, node)

    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                classify_target(target, node)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            classify_target(node.target, node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                classify_target(target, node)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            called = node.func.attr
            receiver = node.func.value
            base = _self_attr_base(receiver)
            kind = "read" if called in readonly else "write"
            if base is not None and base.attr in shared:
                record(base.attr, kind, node, base)
            else:
                root = _chain_root_name(receiver)
                if isinstance(receiver, (ast.Name, ast.Attribute,
                                         ast.Subscript)) and \
                        root in aliases and root != "self":
                    record(aliases[root], kind, node)

    # Everything left over rooted at self.<shared> is a plain read.
    for node in ast.walk(method):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in shared
                and id(node) not in claimed
                and isinstance(node.ctx, ast.Load)):
            record(node.attr, "read", node)
        if isinstance(node, ast.Attribute) and node.attr == "replicas":
            base = _self_attr_base(node)
            if base is not None and base.attr in shared:
                fp.replica_reaches.append(node)
    return fp


def _class_node(tree, cls: str):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return node
    return None


def _check_component(component, path: str, tree,
                     findings: list[Finding], stats: dict) -> None:
    shared_map = component.shared_map()
    shared = set(shared_map)
    readonly = set(READONLY_METHODS) | set(component.readonly_methods)
    cls = _class_node(tree, component.cls)
    if cls is None:
        findings.append(Finding(
            rule="rg.missing-action", path=path, line=1,
            message=f"declared component class {component.cls} not "
                    f"found — the rg spec in repro.verif.rgspec rotted"))
        return
    parents = parent_map(cls)
    methods = {node.name: node for node in cls.body
               if isinstance(node, ast.FunctionDef)}

    for action in component.actions:
        if action.name not in methods:
            findings.append(Finding(
                rule="rg.missing-action", path=path, line=cls.lineno,
                message=f"declared action {component.cls}.{action.name} "
                        f"has no matching method"))

    for name, method in methods.items():
        if name in component.init_methods:
            continue
        fp = _extract_footprint(method, shared, readonly)
        action = component.action_by_name(name)
        stats["accesses"] += len(fp.accesses)
        seen: set[tuple] = set()
        for attr, kind, node in fp.accesses:
            key = (attr, kind, node.lineno)
            if key in seen:
                continue
            seen.add(key)
            if action is None:
                if kind == "write":
                    findings.append(Finding(
                        rule="rg.unspecified-action", path=path,
                        line=node.lineno,
                        message=f"{component.cls}.{name} mutates shared "
                                f"'{attr}' but is not a declared atomic "
                                f"action of component "
                                f"'{component.name}'"))
                continue
            guard = component.guard_by_name(action.guard)
            if guard.kind == LOCK and \
                    not _inside_lock(node, guard.attr, parents):
                findings.append(Finding(
                    rule=f"rg.unguarded-{kind}", path=path,
                    line=node.lineno,
                    message=f"{component.cls}.{name} {kind}s shared "
                            f"'{attr}' outside the 'with "
                            f"self.{guard.attr}:' bracket of guard "
                            f"'{guard.name}'"))
            if kind == "write" and attr not in action.writes:
                findings.append(Finding(
                    rule="rg.undeclared-write", path=path,
                    line=node.lineno,
                    message=f"action {component.cls}.{name} writes "
                            f"'{attr}' outside its declared guarantee "
                            f"{action.writes}"))
            elif kind == "read" and attr not in action.reads \
                    and attr not in action.writes:
                findings.append(Finding(
                    rule="rg.undeclared-read", path=path,
                    line=node.lineno,
                    message=f"action {component.cls}.{name} reads "
                            f"'{attr}' outside its declared footprint"))
        for node in fp.replica_reaches:
            base = _self_attr_base(node)
            guard = component.guard_by_name(shared_map[base.attr])
            if guard.kind == NR and \
                    name not in component.replica_access:
                findings.append(Finding(
                    rule="rg.nr-bypass", path=path, line=node.lineno,
                    message=f"{component.cls}.{name} reaches through "
                            f".replicas around the NR log (only "
                            f"{component.replica_access or '()'} may)"))
        stats["methods"] += 1


def check_interference(trees: dict[str, ast.Module],
                       components=COMPONENTS) -> tuple[list[Finding],
                                                       dict]:
    """Check every declared component against its module's tree."""
    findings: list[Finding] = []
    stats = {"components": 0, "methods": 0, "accesses": 0, "actions": 0}
    for component in components:
        tree = trees.get(component.module)
        if tree is None:
            continue
        stats["components"] += 1
        stats["actions"] += len(component.actions)
        _check_component(component, component.module, tree, findings,
                         stats)
    return findings, stats
