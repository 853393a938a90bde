"""The static lock-order pass (the ``lockorder.*`` rules).

Deadlock freedom for the kernel's blocking primitives is an ordering
argument: if every thread acquires locks in one global partial order,
no cycle of waiters can form.  This pass recovers that order from the
AST instead of trusting comments: it scans the lock-using modules
(NR, the SMP scheduler protocol, the syscall ring, the cluster WAL,
the allocator, vspace, and the page table), finds every acquisition
site — ``with self.<lock>:`` brackets, ``try_acquire_*``/``try_lock``
spin loops, and the scheduler's ``_acquire``/``_release`` wrapper
generators — and builds the *acquisition graph*: an edge A → B
whenever code acquires a lock of class B while statically holding one
of class A, including acquisitions reached through a bounded-depth
closure of method calls (that is how the combiner's
``replica.ds.apply`` is seen to reach the buddy allocator's lock:
``nr.replica → pmem.alloc``).

Rules:

* ``lockorder.cycle`` — the acquisition graph has a cycle, so there
  is an interleaving in which two threads wait on each other;
* ``lockorder.unordered-same-class`` — two locks of the same class
  nest without the sanctioned sort-before-acquire discipline
  (``migrate_steps`` orders its two runqueue locks by core id; any
  other same-class nesting is a deadlock waiting for the right pair).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

#: Modules whose lock usage the pass scans (repo-relative).
SCAN_MODULES = (
    "src/repro/nr/core.py",
    "src/repro/nr/rwlock.py",
    "src/repro/nros/sched/smp.py",
    "src/repro/nros/sched/scheduler.py",
    "src/repro/nros/syscall/ring.py",
    "src/repro/cluster/wal.py",
    "src/repro/nros/pmem.py",
    "src/repro/nros/vspace.py",
    "src/repro/core/pt/impl.py",
)

#: Lock constructor -> lock class (the graph's nodes).
LOCK_CLASSES = {
    "RwLock": "nr.replica",
    "QueueLock": "sched.rq",
    "AllocLock": "pmem.alloc",
}

#: Acquire/release method name -> lock class.
ACQUIRE_METHODS = {
    "try_acquire_write": "nr.replica",
    "try_acquire_read": "nr.replica",
    "try_lock": "sched.rq",
}
RELEASE_METHODS = {
    "release_write": "nr.replica",
    "release_read": "nr.replica",
    "unlock": "sched.rq",
}

#: Lock classes where same-class nesting is sanctioned *when* the
#: acquiring function sorts the instances first (runqueue pairs are
#: taken in core order by migrate_steps).
ORDERED_DOMAINS = ("sched.rq",)

#: Call-closure depth: nr.replica -> ds.apply -> pt.map_frame ->
#: allocator.alloc_frame -> alloc_block -> with self._lock is depth 5.
MAX_CALL_DEPTH = 6

_STMT_LIST_FIELDS = ("body", "orelse", "finalbody", "handlers")


def _expr_nodes(stmt):
    """Walk a statement's expression level without descending into
    nested statement bodies (those are visited in order separately)."""
    queue = [stmt]
    while queue:
        node = queue.pop(0)
        yield node
        for field, value in ast.iter_fields(node):
            if field in _STMT_LIST_FIELDS:
                continue
            if isinstance(value, list):
                queue.extend(v for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                queue.append(value)


class _Event:
    __slots__ = ("kind", "label", "instance", "line", "detail")

    def __init__(self, kind, label, instance, line, detail=None):
        self.kind = kind          # "acquire" | "release" | "call"
        self.label = label        # lock class, or callee name for call
        self.instance = instance  # receiver text (call resolution)
        self.line = line
        self.detail = detail or instance   # full call text (identity)


def _receiver_text(node) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on our trees
        return "<expr>"


def _collect_events(stmts, lock_attrs: dict[str, str], out: list) -> None:
    """Events of a statement list, in source order."""
    for stmt in stmts:
        if isinstance(stmt, ast.With):
            entered = []
            for item in stmt.items:
                expr = item.context_expr
                for node in ast.walk(expr):
                    if (isinstance(node, ast.Attribute)
                            and node.attr in lock_attrs):
                        cls = lock_attrs[node.attr]
                        out.append(_Event("acquire", cls,
                                          _receiver_text(node),
                                          stmt.lineno))
                        entered.append(cls)
            _collect_events(stmt.body, lock_attrs, out)
            for cls in reversed(entered):
                out.append(_Event("release", cls, "", stmt.lineno))
            continue
        for node in _expr_nodes(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                name = node.func.attr
                recv = _receiver_text(node.func.value)
                if name in ACQUIRE_METHODS:
                    out.append(_Event("acquire", ACQUIRE_METHODS[name],
                                      recv, node.lineno))
                elif name in RELEASE_METHODS:
                    out.append(_Event("release", RELEASE_METHODS[name],
                                      recv, node.lineno))
                else:
                    out.append(_Event("call", name, recv, node.lineno,
                                      detail=_receiver_text(node)))
        for field in _STMT_LIST_FIELDS:
            children = getattr(stmt, field, None)
            if not children:
                continue
            if field == "handlers":
                for handler in children:
                    _collect_events(handler.body, lock_attrs, out)
            else:
                _collect_events(children, lock_attrs, out)


class _Method:
    def __init__(self, path, cls, node, events):
        self.path = path
        self.cls = cls
        self.node = node
        self.events = events
        self.sorts_instances = any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "sorted" for n in ast.walk(node))
        counts: dict[str, int] = {}
        for event in events:
            if event.kind == "acquire":
                counts[event.label] = counts.get(event.label, 0) + 1
            elif event.kind == "release":
                counts[event.label] = counts.get(event.label, 0) - 1
        self.net = counts

    @property
    def wrapper_acquires(self):
        return [cls for cls, n in self.net.items() if n > 0]

    @property
    def wrapper_releases(self):
        return [cls for cls, n in self.net.items() if n < 0]


def _lock_attrs(tree) -> dict[str, str]:
    """Attribute name -> lock class, from ``self.X = LockClass(...)``
    style assignments anywhere in the module (including list builds)."""
    attrs: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        classes = [LOCK_CLASSES[sub.func.id]
                   for sub in ast.walk(node.value)
                   if isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Name)
                   and sub.func.id in LOCK_CLASSES]
        if not classes:
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                attrs[target.attr] = classes[0]
    return attrs


def _index_methods(trees, modules):
    """name -> [_Method] across every class in the scanned modules."""
    index: dict[str, list[_Method]] = {}
    for path in modules:
        tree = trees.get(path)
        if tree is None:
            continue
        lock_attrs = _lock_attrs(tree)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if _is_stub(item):
                    continue   # duck-typing interface documentation
                events: list = []
                _collect_events(item.body, lock_attrs, events)
                method = _Method(path, cls.name, item, events)
                index.setdefault(item.name, []).append(method)
    return index


def _is_stub(method: ast.FunctionDef) -> bool:
    """Interface stubs (docstring + raise NotImplementedError / pass)
    document duck typing; indexing them would shadow the real methods."""
    for stmt in method.body:
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Raise):
            continue
        return False
    return True


def _resolve(name: str, index, caller_cls: str,
             receiver: str) -> list:
    """Resolve a method call to scanned methods.  A bare ``self``
    receiver resolves within the caller's class; anything else resolves
    only when the name is *unique* across the scanned classes —
    ambiguous names are skipped rather than unioned, so duck-typed
    names (``unmap`` on a page table vs. on a vspace) don't fabricate
    edges."""
    candidates = index.get(name, [])
    if receiver == "self":
        own = [m for m in candidates if m.cls == caller_cls]
        if own:
            return own
    if len(candidates) == 1:
        return candidates
    return []


def _closure_acquired(name, index, depth, seen) -> set[str]:
    """Every lock class acquired anywhere inside methods reachable
    from a call to `name`.  Unlike wrapper resolution this *unions*
    ambiguous candidates — any implementation may be behind a
    duck-typed receiver — which is why closure-derived acquisitions
    only ever contribute cross-class edges (instance identity does not
    survive the union)."""
    if depth <= 0 or name in seen:
        return set()
    seen = seen | {name}
    acquired: set[str] = set()
    for method in index.get(name, ()):
        for event in method.events:
            if event.kind == "acquire":
                acquired.add(event.label)
            elif event.kind == "call":
                acquired |= _closure_acquired(event.label, index,
                                              depth - 1, seen)
    return acquired


def _simulate(method, index, edges, findings) -> None:
    """Replay one method's events, tracking the held stack and
    recording acquisition edges."""
    held: list[tuple[str, str]] = []   # (lock class, instance text)

    def note_acquire(cls, instance, line, via_closure=False):
        for held_cls, held_inst in held:
            if held_cls == cls:
                if via_closure:
                    continue  # no instance identity through a closure
                if held_inst == instance:
                    continue  # re-bracket of the same expression
                if cls in ORDERED_DOMAINS and method.sorts_instances:
                    continue  # sanctioned sort-before-acquire pairs
                findings.append(Finding(
                    rule="lockorder.unordered-same-class",
                    path=method.path, line=line,
                    message=f"{method.cls}.{method.node.name} nests "
                            f"two '{cls}' locks ({held_inst!r} then "
                            f"{instance!r}) without ordering them"))
            else:
                edges.setdefault((held_cls, cls), []).append(
                    (method.path, line,
                     f"{method.cls}.{method.node.name}"))

    for event in method.events:
        if event.kind == "acquire":
            note_acquire(event.label, event.instance, event.line)
            held.append((event.label, event.instance))
        elif event.kind == "release":
            for i in range(len(held) - 1, -1, -1):
                if held[i][0] == event.label:
                    del held[i]
                    break
        elif event.kind == "call":
            callees = _resolve(event.label, index, method.cls,
                               event.instance)
            pushed = False
            for callee in callees:
                for cls in callee.wrapper_acquires:
                    note_acquire(cls, event.detail, event.line)
                    held.append((cls, event.detail))
                    pushed = True
                if pushed:
                    break
            if pushed:
                continue
            for callee in callees:
                released = callee.wrapper_releases
                if released:
                    for cls in released:
                        for i in range(len(held) - 1, -1, -1):
                            if held[i][0] == cls:
                                del held[i]
                                break
                    break
            else:
                if held and event.label in index:
                    for cls in _closure_acquired(event.label, index,
                                                 MAX_CALL_DEPTH, set()):
                        note_acquire(cls, f"via {event.label}()",
                                     event.line, via_closure=True)


def _find_cycle(edges) -> list[str] | None:
    graph: dict[str, set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    state = dict.fromkeys(graph, 0)  # 0 new, 1 on stack, 2 done
    stack: list[str] = []

    def visit(node):
        state[node] = 1
        stack.append(node)
        for succ in sorted(graph[node]):
            if state[succ] == 1:
                return stack[stack.index(succ):] + [succ]
            if state[succ] == 0:
                cycle = visit(succ)
                if cycle:
                    return cycle
        state[node] = 2
        stack.pop()
        return None

    for node in sorted(graph):
        if state[node] == 0:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def _walk(trees: dict[str, ast.Module], modules):
    """Index the scanned modules' methods and simulate each one:
    (edges, unordered-nesting findings, method index)."""
    index = _index_methods(trees, modules)
    findings: list[Finding] = []
    edges: dict[tuple[str, str], list] = {}
    for methods in index.values():
        for method in methods:
            _simulate(method, index, edges, findings)
    return edges, findings, index


def check_lock_order(trees: dict[str, ast.Module],
                     modules=SCAN_MODULES) -> tuple[list[Finding], dict]:
    """Build the acquisition graph and flag cycles / unordered pairs."""
    edges, findings, index = _walk(trees, modules)
    cycle = _find_cycle(edges)
    if cycle:
        sites = []
        for src, dst in zip(cycle, cycle[1:]):
            for path, line, holder in edges.get((src, dst), ()):
                sites.append(f"{holder} ({path}:{line})")
        where = edges.get((cycle[0], cycle[1]), [(modules[0], 1, "?")])
        findings.append(Finding(
            rule="lockorder.cycle", path=where[0][0], line=where[0][1],
            message=f"lock acquisition cycle "
                    f"{' -> '.join(cycle)} via " + "; ".join(sites)))
    stats = {
        "modules": sum(1 for m in modules if m in trees),
        "methods": sum(len(v) for v in index.values()),
        "edges": len(edges),
        "order": ", ".join(sorted(f"{a}->{b}" for a, b in edges)),
        "cycle": bool(cycle),
    }
    return findings, stats


def acquisition_graph(trees: dict[str, ast.Module],
                      modules=SCAN_MODULES) -> dict:
    """(holder class, acquired class) -> [(path, line, holder fn)] —
    the raw graph, for tests and the EXPERIMENTS tables."""
    return _walk(trees, modules)[0]
