"""Tests for the repro.analysis static-analysis passes: the layer map,
the layering/erasure checker, the purity lint, the suppression syntax,
and the seeded violation fixture the checker must flag."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.cli import PASSES, RULES, repo_root, run_analysis
from repro.analysis.findings import (Finding, allow_comments,
                                     apply_suppressions, dead_suppressions)
from repro.analysis.imports import discover_sources, parse_sources
from repro.analysis.layers import (
    LAYER_MAP,
    classify_layer,
    loc_classification,
    loc_kind,
)
from repro.analysis.mutants import MUTANTS
from repro.analysis.purity import check_purity
from repro.core.contract import syscalls
from repro.core.contract.syscalls import SPECS
from repro.metrics import loc

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "layering_bad"


# -- the layer map ------------------------------------------------------------------


def test_every_file_under_src_repro_is_classified():
    """Satellite guarantee: no file can silently fall outside the
    spec/proof/exec/other boundary (and hence out of the ratio)."""
    sources = discover_sources(repo_root())
    assert sources, "discover_sources found nothing under src/repro"
    unmapped = sorted(path for path in sources
                      if classify_layer(path) is None)
    assert not unmapped, (
        f"{len(unmapped)} file(s) under src/repro missing from "
        f"repro.analysis.layers.LAYER_MAP — add an entry (or a "
        f"directory prefix) for each of: " + ", ".join(unmapped))


def test_discover_sources_in_a_checkout_under_a_dot_directory(tmp_path):
    """Only dot-directories *inside* the analyzed tree are skipped: a
    checkout that itself lives under one must still yield its sources
    (it used to yield none, failing both static rg VCs)."""
    root = tmp_path / ".hidden" / "checkout"
    package = root / "src" / "repro"
    (package / ".cache").mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text("X = 1\n", encoding="utf-8")
    (package / ".cache" / "stale.py").write_text("Y = 2\n", encoding="utf-8")
    assert discover_sources(root) == {
        "src/repro/__init__.py": "", "src/repro/mod.py": "X = 1\n"}


def test_prefix_match_respects_path_components():
    layer_map = [("foo/bar", "spec"), ("foo", "exec")]
    assert classify_layer("foo/bar/mod.py", layer_map) == "spec"
    assert classify_layer("foo/barbaz.py", layer_map) == "exec"
    assert classify_layer("foo/bar", layer_map) == "spec"


def test_layer_map_pins_the_interesting_boundaries():
    assert classify_layer("src/repro/core/spec/highlevel.py") == "spec"
    assert classify_layer("src/repro/core/pt/impl.py") == "exec"
    assert classify_layer("src/repro/nr/core.py") == "exec"
    assert classify_layer("src/repro/nr/linearizability.py") == "proof"
    assert classify_layer("src/repro/nros/kernel.py") == "exec"
    assert classify_layer("src/repro/nros/sched/smp.py") == "exec"
    assert classify_layer("src/repro/verif/refinement.py") == "proof"
    assert classify_layer("src/repro/verif/schedspec.py") == "spec"
    assert classify_layer("src/repro/verif/schedproof.py") == "proof"
    assert classify_layer("src/repro/verif/rgspec.py") == "spec"
    assert classify_layer("src/repro/verif/rgproof.py") == "proof"
    assert classify_layer("src/repro/analysis/sched_race.py") == "other"
    assert classify_layer("src/repro/analysis/rg.py") == "other"
    assert classify_layer("src/repro/analysis/lockorder.py") == "other"
    assert classify_layer("src/repro/immutable.py") == "other"


def test_loc_classification_is_derived_from_layer_map():
    assert loc.CLASSIFICATION == loc_classification()
    assert len(loc.CLASSIFICATION) == len(LAYER_MAP)
    # The per-entry overrides the ratio depends on:
    assert loc_kind("src/repro/verif/linear.py") == "proof"
    assert loc_kind("src/repro/prover/scheduler.py") == "other"
    assert loc_kind("src/repro/core/pt/defs.py") == "code"
    assert loc_kind("src/repro/immutable.py") == "code"


# -- suppressions -------------------------------------------------------------------


def test_allow_comment_applies_to_own_and_next_line():
    source = (
        "x = 1  # repro: allow(rule-a)\n"
        "# repro: allow(rule-b, rule-c)\n"
        "y = 2\n"
    )
    allowed: dict[int, set[str]] = {}
    for allow in allow_comments(source):
        for line in allow.covers:
            allowed.setdefault(line, set()).update(allow.rules)
    assert allowed[1] == {"rule-a"}
    assert allowed[2] == {"rule-b", "rule-c"}
    assert allowed[3] == {"rule-b", "rule-c"}


def test_apply_suppressions_marks_matching_rule_only():
    source = "bad_line()  # repro: allow(rule-a)\n"
    findings = [
        Finding(rule="rule-a", path="m.py", line=1, message="x"),
        Finding(rule="rule-b", path="m.py", line=1, message="x"),
    ]
    apply_suppressions(findings, {"m.py": allow_comments(source)})
    assert findings[0].suppressed
    assert not findings[1].suppressed


def _analysis_root(tmp_path, files):
    """An analysis root holding `files`, every one in the other layer."""
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (tmp_path / "layer_map.json").write_text(
        json.dumps([[relpath, "other"] for relpath in files]),
        encoding="utf-8")
    return tmp_path


def test_a_string_literal_waives_nothing(tmp_path):
    """Only a real comment is an allow comment: text inside a string
    that spells the syntax leaves the finding on its line active."""
    root = _analysis_root(tmp_path, {
        "m.py": 'x = "# repro: allow(console.bare-print)"; print(x)\n'})
    report = run_analysis(root=root, skip={"race"})
    assert [(f.rule, f.line) for f in report.active] == [
        ("console.bare-print", 1)]
    assert report.suppressed == []


# -- one parse per file -------------------------------------------------------------


def test_an_unparsable_module_is_one_parse_error(tmp_path):
    """A module every static pass reads (purity, rg and lockorder all
    scan the allocator) is reported once, not once per pass."""
    path = "src/repro/nros/pmem.py"
    source = discover_sources(repo_root())[path]
    root = _analysis_root(tmp_path, {path: source + "def broken(:\n"})
    report = run_analysis(root=root, skip={"race"})
    assert [(f.rule, f.path, f.line) for f in report.active] == [
        ("parse-error", path, len(source.splitlines()) + 1)]


def test_analyze_parses_each_file_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    report = run_analysis(skip={"race"})
    assert report.clean
    assert sorted(parsed) == sorted(discover_sources(repo_root()))


# -- the purity lint ----------------------------------------------------------------


def _trees(sources):
    trees, errors = parse_sources(sources)
    assert errors == []
    return trees


def _purity(source):
    findings, _ = check_purity(_trees({"m.py": source}),
                               layer_map=[("m.py", "spec")])
    return findings


def test_purity_flags_discarded_mutator_call():
    findings = _purity("def pred(state):\n    state.items.append(1)\n")
    assert [f.rule for f in findings] == ["purity.mutation"]


def test_purity_allows_persistent_container_calls():
    # FrozenMap.remove returns the new map; a consumed result is not a
    # mutation (list.remove and friends return None).
    findings = _purity("def pred(state):\n"
                       "    return state.files.remove(3)\n")
    assert findings == []


def test_purity_allows_local_mutation():
    findings = _purity("def pred(state):\n"
                       "    acc = []\n"
                       "    acc.append(state)\n"
                       "    return acc\n")
    assert findings == []


def test_purity_flags_wall_clock_and_unseeded_random():
    findings = _purity("import time, random\n"
                       "def pred(state):\n"
                       "    return time.time() + random.random()\n")
    assert sorted(f.rule for f in findings) == [
        "purity.nondeterminism", "purity.nondeterminism"]


def test_purity_allows_seeded_random():
    findings = _purity("import random\n"
                       "def pred(state):\n"
                       "    return random.Random(7).random()\n")
    assert [f.rule for f in findings if f.rule != "purity.nondeterminism"] \
        == [f.rule for f in findings]
    # random.Random(7) is seeded; the .random() call on the instance has
    # a local root, so nothing fires at all.
    assert findings == []


def test_purity_covers_the_named_tuple_sched_spec():
    """The scheduler spec's states are named tuples whose aggregates
    `_rebuild` collects in local lists: every function of the module is
    linted and clean, and a store through a parameter is still caught."""
    path = "src/repro/verif/schedspec.py"
    source = discover_sources(repo_root())[path]
    findings, stats = check_purity(_trees({path: source}))
    assert findings == []
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)]
    assert stats["predicates"] == len(functions)
    broken = source.replace("    floors: list = [None] * ncores\n",
                            "    floors: list = [None] * ncores\n"
                            "    threads[0] = None\n")
    assert broken != source
    findings, _ = check_purity(_trees({path: broken}))
    assert [f.rule for f in findings] == ["purity.mutation"]


def test_purity_covers_the_syscall_spec_rows():
    """Every `SPECS` row is a module-level function of the spec-layer
    syscall module, so the lint claims each one: the module is clean,
    and a row that appends to its pre-state is caught."""
    path = "src/repro/core/contract/syscalls.py"
    source = discover_sources(repo_root())[path]
    findings, stats = check_purity(_trees({path: source}))
    assert findings == []
    functions = {node.name for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    assert stats["predicates"] == len(functions)
    assert {row.__name__ for row in SPECS.values()} <= functions
    assert {row.__module__ for row in SPECS.values()} == {syscalls.__name__}
    broken = source.replace("    return close_spec(pre, post, args[0])\n",
                            "    pre.files.append(args[0])\n"
                            "    return close_spec(pre, post, args[0])\n")
    assert broken != source
    findings, _ = check_purity(_trees({path: broken}))
    assert [f.rule for f in findings] == ["purity.mutation"]


# -- the clean tree and the fixture -------------------------------------------------


def test_clean_tree_passes_layering_and_purity():
    report = run_analysis(skip={"race"})
    assert report.clean, [f.render() for f in report.active]
    # The sanctioned ghost imports are reported, as suppressed findings.
    assert {f.rule for f in report.suppressed} == {"ghost-import"}


def test_fixture_fires_every_static_rule():
    report = run_analysis(root=FIXTURE, skip={"race"})
    assert not report.clean
    fired = {f.rule for f in report.active}
    assert fired == {
        "layering.spec-imports-exec",
        "layering.exec-imports-proof",
        "ghost-import",
        "erasure.exec-reaches-proof",
        "layers.unmapped",
        "purity.mutation",
        "purity.nondeterminism",
        "console.bare-print",
        "suppression.dead",
    }
    assert fired <= set(RULES)
    # tooling.py carries one sanctioned print; suppression is honoured
    # without hiding the finding.
    assert [f.rule for f in report.suppressed] == ["console.bare-print"]


def test_fixture_transitive_chain_names_the_leak():
    report = run_analysis(root=FIXTURE, skip={"race"})
    chains = [f for f in report.active
              if f.rule == "erasure.exec-reaches-proof"]
    assert len(chains) == 1
    assert "runtime.py -> helper.py -> proof_lemmas.py" in chains[0].message


# -- the dead-suppression lint ------------------------------------------------------


def test_dead_suppression_flags_stale_allow_only():
    source = (
        "live()  # repro: allow(rule-a)\n"
        "clean()  # repro: allow(rule-b)\n"
    )
    findings = [Finding(rule="rule-a", path="m.py", line=1, message="x")]
    allows = {"m.py": allow_comments(source)}
    apply_suppressions(findings, allows)
    dead = dead_suppressions(findings, allows)
    assert [(f.rule, f.line) for f in dead] == [("suppression.dead", 2)]
    assert "allow(rule-b)" in dead[0].message


def test_dead_suppression_covers_next_line_of_standalone_comment():
    source = "# repro: allow(rule-a)\nbad()\n"
    findings = [Finding(rule="rule-a", path="m.py", line=2, message="x")]
    allows = {"m.py": allow_comments(source)}
    apply_suppressions(findings, allows)
    assert dead_suppressions(findings, allows) == []


def test_dead_suppression_ignores_docstring_mentions():
    source = '"""Docs talking about # repro: allow(rule-a) syntax."""\n'
    assert dead_suppressions([], {"m.py": allow_comments(source)}) == []


def test_fixture_dead_suppression_is_located():
    report = run_analysis(root=FIXTURE, skip={"race"})
    dead = [f for f in report.active if f.rule == "suppression.dead"]
    assert len(dead) == 1
    assert dead[0].path == "tooling.py"
    assert "console.bare-print" in dead[0].message


def test_clean_tree_has_no_dead_suppressions():
    report = run_analysis(skip={"race"})
    assert [f for f in report.findings
            if f.rule == "suppression.dead"] == []


# -- the json reporter --------------------------------------------------------------


def _run_analyze_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *argv],
        capture_output=True, text=True, cwd=repo_root(),
        env={"PYTHONPATH": str(repo_root() / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_json_format_is_byte_deterministic_at_fixed_seed():
    """Satellite guarantee: same seed, same bytes — across the full
    rule set including the rg, lockorder, and deadsupp passes."""
    argv = ("--format", "json", "--seed", "3", "--max-steps", "20000")
    first = _run_analyze_cli(*argv)
    second = _run_analyze_cli(*argv)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["schema"] == "repro.analysis/v1"
    assert payload["clean"] is True
    names = {record["name"] for record in payload["records"]}
    assert names == {"analysis.finding", "analysis.pass",
                     "analysis.summary"}
    stages = {record["stage"] for record in payload["records"]
              if record["name"] == "analysis.pass"}
    assert {"layering", "purity", "rg", "lockorder", "deadsupp",
            "race", "race_sched"} <= stages


def test_json_format_validates_against_obs_schema():
    from repro.obs.events import validate_record

    proc = _run_analyze_cli("--format", "json", "--root", str(FIXTURE),
                            "--skip", "race")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is False
    for record in payload["records"]:
        assert validate_record(record) == []
    rules = {record["rule"] for record in payload["records"]
             if record["name"] == "analysis.finding"}
    assert "suppression.dead" in rules


#: Active findings ``analyze --seed 1`` reports per registered mutant
#: (None = the clean tree).  A new mutant must be added here, so the
#: registry cannot grow an entry no gate exercises.  writer-lock-elision
#: moved 2 -> 3 once (PR 22): the mutant now overrides the one apply
#: bracket, which the read-side catch-up shares, so a reader that
#: becomes combiner also applies unlocked — one more racing pair.
MUTANT_FINDINGS_AT_SEED_1 = {
    None: 0,
    "reader-lock-elision": 2,
    "writer-lock-elision": 3,
    "sched-steal-lock-elision": 9,
    "sched-double-enqueue": 2,
    "pmem-free-unlocked": 7,
    "buddy-split-no-merge-lock": 5,
}


def test_mutant_registry_is_fully_gated():
    assert set(MUTANTS) == set(MUTANT_FINDINGS_AT_SEED_1) - {None}
    assert {kind for kind, _payload in MUTANTS.values()} \
        == {"nr", "sched", "rg"}


def test_protocol_mutants_override_exactly_one_bracket():
    """A protocol mutant is the protocol that runs minus one bracket: it
    cannot drift from `execute_steps` / `read_steps` / `sync_steps` /
    `migrate_steps` because it does not contain them."""
    brackets = {"nr": {"_apply_bracket", "_query_bracket"},
                "sched": {"_acquire_both", "_unqueue_steps"}}
    for name, (kind, cls) in MUTANTS.items():
        if kind in brackets:
            own = [attr for attr, value in vars(cls).items()
                   if callable(value)]
            assert len(own) == 1 and own[0] in brackets[kind], (name, own)


def test_nr_step_labels_are_pr21s():
    """The label sequences of single-threaded execute / execute_ro /
    sync_all, taken from PR 21's three inlined catch-up loops."""
    from repro.nr.core import NodeReplicated
    from repro.nr.datastructures import Counter

    nr = NodeReplicated(Counter, num_nodes=2)
    execute = ["publish", "check_result", "try_combine", "collect",
               "append", "wlock", "apply", "release", "check_result"]
    assert list(nr.execute_steps(("add", 1), 0, 0)) == execute
    assert list(nr.execute_steps(("add", 1), 0, 0)) == execute
    assert list(nr.read_steps("get", 1, 0)) == [
        "read_tail", "try_combine", "wlock", "apply", "apply", "release",
        "rlock", "read", "runlock"]
    nr.execute(("add", 1), node=1)
    assert [list(nr.sync_steps(node, -1 - node)) for node in (0, 1)] == [
        ["read_tail", "try_combine", "wlock", "apply", "release"],
        ["read_tail"]]


@pytest.mark.parametrize("mutant", MUTANT_FINDINGS_AT_SEED_1,
                         ids=lambda name: name or "clean-tree")
def test_every_registered_mutant_fails_analyze(mutant):
    """Every checker has a must-fail mutant: the clean tree exits 0 and
    each registered mutant exits 1 with a seed-stable finding count."""
    argv = ["--format", "json", "--skip", "layering,purity", "--seed", "1"]
    if mutant is not None:
        argv += ["--mutant", mutant]
    proc = _run_analyze_cli(*argv)
    assert proc.returncode == (0 if mutant is None else 1), \
        proc.stdout + proc.stderr
    active = [record for record in json.loads(proc.stdout)["records"]
              if record["name"] == "analysis.finding"
              and not record["suppressed"]]
    assert len(active) == MUTANT_FINDINGS_AT_SEED_1[mutant]


def test_cli_stable_exit_codes():
    assert _run_analyze_cli("--skip", "race").returncode == 0
    assert _run_analyze_cli("--root", str(FIXTURE),
                            "--skip", "race").returncode == 1
    assert _run_analyze_cli("--skip", "bogus").returncode == 2
    assert _run_analyze_cli("--mutant", "no-such-mutant").returncode == 2


def test_cli_exits_nonzero_on_fixture():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze",
         "--root", str(FIXTURE), "--skip", "race"],
        capture_output=True, text=True, cwd=repo_root(),
        env={"PYTHONPATH": str(repo_root() / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "layering.spec-imports-exec" in proc.stdout + proc.stderr


def test_cli_list_rules_covers_passes():
    assert set(PASSES) == {"layering", "purity", "rg", "lockorder",
                           "deadsupp", "race"}
    for rule, text in RULES.items():
        assert rule and text
    for prefix in ("rg.", "lockorder.", "suppression."):
        assert any(rule.startswith(prefix) for rule in RULES)
