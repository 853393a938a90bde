"""The contract-purity lint.

Verus ``spec fn``s are total mathematical functions: no mutation, no
I/O, no nondeterminism.  Our executable analogs — spec state-machine
transitions and every function in a spec-layer module, the syscall
predicates and their ``SPECS`` rows among them — carry the same
obligation, but Python will happily let a predicate flip a cache field
or read the wall clock, silently turning the specification into a
program.  This lint walks those functions' ASTs and flags:

* ``purity.mutation`` — stores through attributes/subscripts of
  parameters or globals, ``global``/``nonlocal``, and calls of known
  mutating methods (``append``, ``update``, ...) on non-local roots
  whose result is discarded (a consumed result signals a persistent
  API — ``FrozenMap.remove`` returns the new map, ``list.remove``
  returns ``None``);
* ``purity.io`` — ``print``/``input``/``open`` and calls into ``os``,
  ``sys``, ``subprocess``, ``shutil``, ``socket``, ``logging``;
* ``purity.nondeterminism`` — module-level ``random`` use without an
  explicit seed argument, wall-clock reads (``time.*``,
  ``datetime.now``), ``uuid``, ``secrets``.

It also owns ``console.bare-print``: no module under ``src/repro`` may
call ``print()`` except :mod:`repro.obs.console` — the AST replacement
for the lookbehind grep the CI trace job used to run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.layers import classify_layer

TRANSITION_CALLS = {"Transition"}
MACHINE_CALLS = {"SpecStateMachine"}

MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse",
    "write", "writelines", "send", "put",
}
IO_CALL_NAMES = {"print", "input", "open", "exec", "eval", "__import__"}
IO_ROOTS = {"os", "sys", "subprocess", "shutil", "socket", "logging"}
NONDET_ROOTS = {"uuid", "secrets"}
WALLCLOCK_ROOTS = {"time"}
#: Files exempt from console.bare-print (the one sanctioned sink).
PRINT_EXEMPT = ("src/repro/obs/console.py",)


def _root_name(node) -> str | None:
    """Leftmost Name of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node) -> list[str]:
    """['random', 'Random'] for random.Random, [] when not a pure chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class _PredicateChecker(ast.NodeVisitor):
    """Purity analysis of a single predicate function or lambda."""

    def __init__(self, path: str, params: set[str]):
        self.path = path
        self.params = set(params)
        self.locals: set[str] = set()
        self.discarded: set[int] = set()
        self.findings: list[Finding] = []
        # First sweep: every name bound by plain-Name targets is local.

    def collect_locals(self, body) -> None:
        for node in body if isinstance(body, list) else [body]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Expr) and \
                        isinstance(sub.value, ast.Call):
                    self.discarded.add(id(sub.value))
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.locals.add(sub.name)
                targets = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                elif isinstance(sub, ast.For):
                    targets = [sub.target]
                elif isinstance(sub, ast.NamedExpr):
                    targets = [sub.target]
                elif isinstance(sub, ast.comprehension):
                    targets = [sub.target]
                elif isinstance(sub, ast.withitem) and sub.optional_vars:
                    targets = [sub.optional_vars]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.locals.add(leaf.id)

    def _flag(self, node, rule: str, message: str) -> None:
        self.findings.append(Finding(rule=rule, path=self.path,
                                     line=node.lineno, message=message))

    def _is_local_root(self, root: str | None) -> bool:
        return root is not None and root in self.locals \
            and root not in self.params

    # -- mutation ---------------------------------------------------------------

    def _check_store(self, target, node) -> None:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = _root_name(target)
            if not self._is_local_root(root):
                where = root or "expression"
                self._flag(node, "purity.mutation",
                           f"contract predicate stores through "
                           f"non-local '{where}' — spec functions must "
                           f"not mutate observable state")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, node)

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_Global(self, node):
        self._flag(node, "purity.mutation",
                   "contract predicate declares 'global'")

    def visit_Nonlocal(self, node):
        self._flag(node, "purity.mutation",
                   "contract predicate declares 'nonlocal'")

    # -- calls: mutation via method, I/O, nondeterminism -------------------------

    def visit_Call(self, node):
        func = node.func
        dotted = _dotted(func)
        if isinstance(func, ast.Attribute):
            root = _root_name(func)
            # Only a *discarded* result marks a mutator: list.append and
            # friends return None, so `x.remove(k)` as a statement mutates,
            # while `self.files.remove(fd)` consumed as a value is a
            # persistent-map operation returning the new map.
            if func.attr in MUTATING_METHODS and \
                    id(node) in self.discarded and \
                    not self._is_local_root(root):
                self._flag(node, "purity.mutation",
                           f"call of mutating method "
                           f"'.{func.attr}()' on non-local "
                           f"'{root or 'expression'}'")
        if isinstance(func, ast.Name) and func.id in IO_CALL_NAMES:
            self._flag(node, "purity.io",
                       f"contract predicate calls '{func.id}()'")
        if dotted:
            root = dotted[0]
            if root in IO_ROOTS:
                self._flag(node, "purity.io",
                           f"contract predicate calls "
                           f"'{'.'.join(dotted)}()'")
            elif root == "random":
                seeded = (dotted[-1] == "Random" and
                          (node.args or node.keywords))
                if not seeded:
                    self._flag(node, "purity.nondeterminism",
                               f"'{'.'.join(dotted)}()' without an "
                               f"explicit seed argument")
            elif root in WALLCLOCK_ROOTS:
                self._flag(node, "purity.nondeterminism",
                           f"wall-clock read "
                           f"'{'.'.join(dotted)}()'")
            elif root in NONDET_ROOTS:
                self._flag(node, "purity.nondeterminism",
                           f"nondeterministic source "
                           f"'{'.'.join(dotted)}()'")
            elif root == "datetime" and dotted[-1] in ("now", "utcnow",
                                                       "today"):
                self._flag(node, "purity.nondeterminism",
                           f"wall-clock read '{'.'.join(dotted)}()'")
        self.generic_visit(node)


def _check_predicate(path: str, node) -> list[Finding]:
    """Purity-check one FunctionDef/Lambda."""
    args = node.args
    params = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        params.add(args.vararg.arg)
    if args.kwarg:
        params.add(args.kwarg.arg)
    checker = _PredicateChecker(path, params)
    body = node.body
    checker.collect_locals(body)
    for stmt in body if isinstance(body, list) else [body]:
        checker.visit(stmt)
    return checker.findings


def _call_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _module_functions(tree) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _predicate_targets(tree, is_spec_module: bool):
    """Yield every function/lambda node that carries the purity
    obligation in this module."""
    module_funcs = _module_functions(tree)
    seen: set[int] = set()

    def claim(node):
        if node is not None and id(node) not in seen and \
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            seen.add(id(node))
            yield node

    def resolve(arg):
        if isinstance(arg, ast.Lambda):
            return arg
        if isinstance(arg, ast.Name):
            return module_funcs.get(arg.id)
        return None

    if is_spec_module:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from claim(node)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name in TRANSITION_CALLS:
            for arg in node.args[1:3]:
                yield from claim(resolve(arg))
            for kw in node.keywords:
                if kw.arg in ("enabled", "apply"):
                    yield from claim(resolve(kw.value))
        elif name in MACHINE_CALLS:
            for kw in node.keywords:
                if kw.arg == "invariants" and isinstance(kw.value, ast.Dict):
                    for value in kw.value.values:
                        yield from claim(resolve(value))


def check_purity(trees: dict[str, ast.Module],
                 layer_map=None) -> tuple[list[Finding], dict]:
    """Lint every contract predicate and spec-layer function; also run
    the bare-print rule over the whole tree."""
    findings: list[Finding] = []
    predicates = 0
    for relpath, tree in sorted(trees.items()):
        is_spec = classify_layer(relpath, layer_map) == "spec"
        for target in _predicate_targets(tree, is_spec):
            predicates += 1
            findings.extend(_check_predicate(relpath, target))

        if relpath not in PRINT_EXEMPT:
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name) and \
                        node.func.id == "print":
                    findings.append(Finding(
                        rule="console.bare-print", path=relpath,
                        line=node.lineno,
                        message="bare print() — route output through "
                                "repro.obs.console"))

    stats = {"files": len(trees), "predicates": predicates}
    return findings, stats
