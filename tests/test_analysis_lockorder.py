"""Tests for the static lock-order pass (repro.analysis.lockorder)."""

from repro.analysis.cli import repo_root
from repro.analysis.imports import discover_sources, parse_sources
from repro.analysis.lockorder import (acquisition_graph,
                                      check_lock_order)


def _trees(sources):
    trees, errors = parse_sources(sources)
    assert errors == []
    return trees


def test_real_tree_order_is_acyclic():
    findings, stats = check_lock_order(
        _trees(discover_sources(repo_root())))
    assert findings == [], [f.render() for f in findings]
    assert stats["cycle"] is False
    assert stats["methods"] > 50


def test_real_tree_has_the_combiner_edge():
    """The one real edge: the NR combiner holds the replica writer lock
    while ds.apply reaches the buddy allocator (page-table frame
    allocation) — nr.replica is always taken before pmem.alloc."""
    edges = acquisition_graph(_trees(discover_sources(repo_root())))
    assert ("nr.replica", "pmem.alloc") in edges
    assert ("pmem.alloc", "nr.replica") not in edges
    sites = edges[("nr.replica", "pmem.alloc")]
    assert all(path == "src/repro/nr/core.py" for path, _l, _h in sites)


_CYCLIC = {
    "a.py": (
        "from repro.nr.rwlock import RwLock\n"
        "from repro.nros.pmem import AllocLock\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._r = RwLock()\n"
        "        self._a = AllocLock()\n"
        "    def forward(self):\n"
        "        with self._a:\n"
        "            while not self._r.try_acquire_write(0):\n"
        "                pass\n"
        "            self._r.release_write(0)\n"
        "    def backward(self):\n"
        "        while not self._r.try_acquire_write(0):\n"
        "            pass\n"
        "        with self._a:\n"
        "            pass\n"
        "        self._r.release_write(0)\n"
    ),
}


def test_synthetic_cycle_is_flagged():
    findings, stats = check_lock_order(_trees(_CYCLIC), modules=("a.py",))
    assert stats["cycle"] is True
    cycles = [f for f in findings if f.rule == "lockorder.cycle"]
    assert len(cycles) == 1
    assert "nr.replica" in cycles[0].message
    assert "pmem.alloc" in cycles[0].message


_UNORDERED = {
    "b.py": (
        "class B:\n"
        "    def __init__(self, q1, q2):\n"
        "        self.q1, self.q2 = q1, q2\n"
        "    def both(self):\n"
        "        while not self.q1.try_lock():\n"
        "            pass\n"
        "        while not self.q2.try_lock():\n"
        "            pass\n"
        "        self.q2.unlock()\n"
        "        self.q1.unlock()\n"
    ),
}


def test_unsorted_same_class_nesting_is_flagged():
    findings, _ = check_lock_order(_trees(_UNORDERED), modules=("b.py",))
    assert [f.rule for f in findings] == \
        ["lockorder.unordered-same-class"]


def test_sorted_same_class_nesting_is_sanctioned():
    source = _UNORDERED["b.py"].replace(
        "    def both(self):",
        "    def both(self):\n"
        "        self.q1, self.q2 = sorted((self.q1, self.q2))")
    findings, _ = check_lock_order(_trees({"b.py": source}),
                                   modules=("b.py",))
    assert findings == []


def test_migrate_steps_double_acquire_is_sanctioned():
    """The SMP protocol's migrate_steps takes two runqueue locks in
    sorted core order — the sanctioned same-class pattern."""
    findings, _ = check_lock_order(
        _trees(discover_sources(repo_root())),
        modules=("src/repro/nros/sched/smp.py",
                 "src/repro/nros/sched/scheduler.py"))
    assert [f for f in findings
            if f.rule == "lockorder.unordered-same-class"] == []
