"""Tests for the rely-guarantee interference checker (repro.analysis.rg)
and its seeded interference mutants."""

import subprocess
import sys

from repro.analysis.cli import repo_root
from repro.analysis.imports import discover_sources, parse_sources
from repro.analysis.rg import check_interference
from repro.analysis.mutants import MUTANTS, apply_rg_mutant
from repro.analysis.rg_mutants import PMEM_MODULE
from repro.verif.rgspec import (COMPONENTS, LOCK, Action, Component,
                                Guard)

TOY = Component(
    name="toy",
    module="toy.py",
    cls="Box",
    guards=(Guard("box.lock", LOCK, attr="_lock"),),
    shared=(("_items", "box.lock"), ("_count", "box.lock")),
    actions=(
        Action("put", "box.lock", writes=("_items", "_count")),
        Action("peek", "box.lock", reads=("_items",)),
    ),
)


def _trees(sources):
    trees, errors = parse_sources(sources)
    assert errors == []
    return trees


def _toy_findings(body, keep_missing=False):
    source = "class Box:\n" + "".join(
        f"    {line}\n" for line in body.splitlines())
    findings, _ = check_interference(_trees({"toy.py": source}),
                                     components=(TOY,))
    if keep_missing:
        return findings
    # Snippets define only the method under test; an absent sibling
    # action is the dedicated missing-action test's business.
    return [f for f in findings if f.rule != "rg.missing-action"]


def test_guarded_action_is_clean():
    findings = _toy_findings(
        "def put(self, x):\n"
        "    with self._lock:\n"
        "        self._items.append(x)\n"
        "        self._count += 1\n"
    )
    assert findings == []


def test_unguarded_write_is_flagged():
    findings = _toy_findings(
        "def put(self, x):\n"
        "    self._items.append(x)\n"
    )
    assert [f.rule for f in findings] == ["rg.unguarded-write"]
    assert findings[0].line == 3


def test_mutating_call_counts_as_write_even_when_consumed():
    # dict.pop mutates even though its result is used — the purity
    # lint's discarded-result heuristic would miss this; rg must not.
    findings = _toy_findings(
        "def put(self, x):\n"
        "    return self._items.pop(x)\n"
    )
    assert "rg.unguarded-write" in {f.rule for f in findings}


def test_alias_carries_the_taint():
    findings = _toy_findings(
        "def put(self, x):\n"
        "    box = self._items\n"
        "    box.append(x)\n"
    )
    assert "rg.unguarded-write" in {f.rule for f in findings}


def test_undeclared_write_exceeds_guarantee():
    findings = _toy_findings(
        "def peek(self):\n"
        "    with self._lock:\n"
        "        self._count += 1\n"
        "        return self._items.copy()\n"
    )
    assert [f.rule for f in findings] == ["rg.undeclared-write"]


def test_unspecified_method_mutating_shared_state():
    findings = _toy_findings(
        "def rogue(self):\n"
        "    with self._lock:\n"
        "        self._items.clear()\n"
    )
    assert [f.rule for f in findings] == ["rg.unspecified-action"]


def test_missing_action_when_spec_rots():
    findings = _toy_findings(
        "def peek(self):\n"
        "    with self._lock:\n"
        "        return self._items.copy()\n",
        keep_missing=True,
    )
    assert [f.rule for f in findings] == ["rg.missing-action"]
    assert "put" in findings[0].message


def test_readonly_calls_are_reads():
    findings = _toy_findings(
        "def peek(self):\n"
        "    with self._lock:\n"
        "        return self._items.copy()\n"
        "def put(self, x):\n"
        "    with self._lock:\n"
        "        self._items.append(x)\n"
        "        self._count += 1\n"
    )
    assert findings == []


_RG_MUTANTS = [name for name, (kind, _) in MUTANTS.items() if kind == "rg"]


# -- the real tree ------------------------------------------------------------------


def _tree_sources():
    return discover_sources(repo_root())


def test_real_tree_is_interference_free():
    findings, stats = check_interference(_trees(_tree_sources()))
    assert findings == [], [f.render() for f in findings]
    assert stats["components"] == len(COMPONENTS)
    assert stats["methods"] > 20
    assert stats["accesses"] > 40


def test_mutant_pmem_free_unlocked_is_flagged():
    sources = apply_rg_mutant(_tree_sources(), "pmem-free-unlocked")
    findings, _ = check_interference(_trees(sources))
    rules = {f.rule for f in findings}
    assert "rg.unguarded-write" in rules
    assert all(f.path == PMEM_MODULE for f in findings)
    assert any("free_block" in f.message for f in findings)


def test_mutant_buddy_split_no_merge_lock_is_flagged():
    sources = apply_rg_mutant(_tree_sources(),
                              "buddy-split-no-merge-lock")
    findings, _ = check_interference(_trees(sources))
    assert {f.rule for f in findings} == {"rg.unguarded-write"}
    assert any("alloc_block" in f.message for f in findings)


def test_mutants_are_deterministic_source_transforms():
    """Seed-independence for free: the mutants rewrite source text, so
    the findings are identical on every run and every seed."""
    base = _tree_sources()
    for name in _RG_MUTANTS:
        first, _ = check_interference(
            _trees(apply_rg_mutant(base, name)))
        second, _ = check_interference(
            _trees(apply_rg_mutant(base, name)))
        assert [(f.rule, f.line) for f in first] \
            == [(f.rule, f.line) for f in second]
        assert first, f"mutant {name} produced no findings"


def test_cli_gates_on_rg_mutants():
    """The CI must-fail contract: analyze exits 1 under either mutant."""
    for name in _RG_MUTANTS:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze",
             "--skip", "layering,purity,race,deadsupp",
             "--mutant", name],
            capture_output=True, text=True, cwd=repo_root(),
            env={"PYTHONPATH": str(repo_root() / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "rg.unguarded-write" in proc.stdout + proc.stderr
