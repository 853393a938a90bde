"""The bench gate table (``benchmarks/gates.py``): every committed
baseline meets its own rows, every row has a seeded mutant it must
catch, and a malformed document or baseline is a `GateFailure` naming
the path — never another exception.  No bench is executed here."""

import copy
import json
import pathlib

import pytest

from benchmarks import gates
from benchmarks._common import write_bench_json
from benchmarks.gates import GATES, GateFailure, check

_DIR = pathlib.Path(gates.__file__).parent


def _load(name):
    return json.loads((_DIR / f"baseline_{name}.json").read_text())


#: bench -> a document that passes as both run and baseline.  The three
#: full baselines are the committed files; the figure benches commit no
#: full document, so theirs are the smallest that meet the rows.
_TIMING = {"p50_seconds": 0.01, "p99_seconds": 0.5, "total_seconds": 9.0,
           "wall_seconds": 10.0}
_VSPACE_OBS = {"pages": 64, "batch": 16, "shootdown_rounds": 4,
               "shootdown_pages": 64, "mapped_pages_gauge_delta": 0,
               "batch_pages_recorded": 8}
DOCS = {bench: _load(bench) for bench in ("cluster", "sched", "ring")}
DOCS["fig1a"] = {
    "schema_version": 1, "bench": "fig1a", "total_vcs": 220,
    "cold": dict(_TIMING), "warm": dict(_TIMING), "cache_hit_rate": 1.0,
    "solver_counters": _load("fig1a")["solver_counters"]}
for _bench in ("fig1b", "fig1c"):
    DOCS[_bench] = {"schema_version": 1, "bench": _bench,
                    "impl_cost_ratio": 1.5, "series": {},
                    "vspace_obs": _VSPACE_OBS}

_DELETE = object()


def _mutated(root, path, new):
    root = copy.deepcopy(root)
    node = root
    for key in path[:-1]:
        node = node[key]
    if new is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = new(node[path[-1]]) if callable(new) else new
    return root


# -- (a) the committed baselines meet their own rows --------------------------


@pytest.mark.parametrize("bench", sorted(DOCS))
def test_document_passes_as_run_and_as_its_own_baseline(bench):
    check(DOCS[bench])
    check(DOCS[bench], baseline=DOCS[bench])


def test_fig1a_baseline_gates_a_run_it_only_partly_describes():
    check(DOCS["fig1a"], baseline=_load("fig1a"))


# -- (b) one seeded mutant per row --------------------------------------------

#: kind -> (which side the mutant edits, the edit).  Document-only kinds
#: break the run; baseline-relative kinds move the baseline under an
#: unchanged run, so no document row can catch the mutant first.
_MUTATION = {
    "typed": ("run", "x"),
    "equals": ("run", lambda v: (not v) if isinstance(v, bool) else v + 1),
    "at_least": ("run", -10**18),
    "at_most": ("run", 10**18),
    "monotone": ("run", -10**18),
    "exact": ("baseline",
              lambda v: v + [0] if isinstance(v, list) else v + 1),
    "collapse": ("baseline", lambda v: (v + 1) * 1e6),
    "ceiling": ("baseline", 0),
}


def _first_match(root, pattern, star=None):
    """(path to edit, dotted path a failure names) for the first concrete
    path `pattern` matches; an ``a+b`` segment is broken through ``a``."""
    node, path, named = root, [], []
    for segment in pattern.split("."):
        if segment == "*":
            segment = star or sorted(node)[0]
        key = segment.split("+")[0]
        path.append(key)
        named.append(segment)
        node = node[key]
    return path, ".".join(named)


def _row_mutants():
    for bench in sorted(GATES):
        for row in GATES[bench]:
            pattern, kind, argument = row
            star = argument[-1] if kind == "monotone" else None
            path, named = _first_match(DOCS[bench], pattern, star)
            yield pytest.param(bench, row, path, named,
                               id=f"{bench}-{named}-{kind}")


ROW_MUTANTS = list(_row_mutants())


def _failure_of(bench, row, path):
    side, edit = _MUTATION[row[1]]
    mutant = _mutated(DOCS[bench], path, edit)
    run, baseline = ((mutant, DOCS[bench]) if side == "run"
                     else (DOCS[bench], mutant))
    with pytest.raises(GateFailure) as caught:
        check(run, baseline=baseline)
    return caught.value


@pytest.mark.parametrize("bench, row, path, named", ROW_MUTANTS)
def test_each_row_catches_its_seeded_mutant(bench, row, path, named):
    failure = _failure_of(bench, row, path)
    assert failure.row == row
    assert str(failure).startswith(named + ":")


def test_every_row_of_every_bench_is_hit_by_a_mutant():
    hit = {(bench, _failure_of(bench, row, path).row)
           for bench, row, path, _ in (param.values for param in ROW_MUTANTS)}
    assert hit == {(bench, row) for bench in GATES for row in GATES[bench]}


def test_schema_version_and_bench_name_are_gated():
    with pytest.raises(GateFailure, match="^schema_version:"):
        check(_mutated(DOCS["sched"], ["schema_version"], 2))
    with pytest.raises(GateFailure, match="^bench:"):
        check(_mutated(DOCS["sched"], ["bench"], "nope"))
    with pytest.raises(GateFailure, match="^bench:"):
        check([])


# -- the bugs the old per-bench checker had -----------------------------------


def test_a_boolean_is_not_a_number():
    with pytest.raises(GateFailure, match="^series.1.acked: False"):
        check(_mutated(DOCS["cluster"], ["series", "1", "acked"], False))
    with pytest.raises(GateFailure, match="^recovery.serving: 1 is not bool"):
        check(_mutated(DOCS["cluster"], ["recovery", "serving"], 1))


def test_an_object_replaced_by_a_scalar_names_the_path():
    # raised AttributeError out of validate_schema
    with pytest.raises(GateFailure, match="^series.1.interactive.count"):
        check(_mutated(DOCS["sched"], ["series", "1", "interactive"], 0))


def test_a_truncated_baseline_names_the_path():
    # raised KeyError out of compare_ring_to_baseline
    baseline = _mutated(DOCS["ring"],
                        ["series", "fs", "1", "batched", "ops"], _DELETE)
    with pytest.raises(GateFailure,
                       match="^baseline series.fs.1.batched.ops: missing"):
        check(DOCS["ring"], baseline=baseline)


@pytest.mark.parametrize("bench, path", [
    ("cluster", ["series", "3"]),
    ("sched", ["series", "8"]),
    ("ring", ["series", "net"]),
    ("fig1a", ["solver_counters", "sat_conflicts"]),
])
def test_a_baseline_entry_absent_from_the_run_fails(bench, path):
    run = _mutated(DOCS[bench], path, _DELETE)
    with pytest.raises(GateFailure, match="^" + ".".join(path)):
        check(run, baseline=DOCS[bench])


# -- (c) malformed input never escapes as another exception -------------------


def _paths(node, path=()):
    if path:
        yield list(path)
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from _paths(node[key], path + (key,))


@pytest.mark.parametrize("bench", sorted(DOCS))
def test_single_node_mutation_sweep_only_ever_raises_gate_failure(bench):
    document = DOCS[bench]
    outcomes = {"pass": 0, "fail": 0}
    for path in _paths(document):
        for new in (_DELETE, 0, "x", False, {}, []):
            mutant = _mutated(document, path, new)
            for run, baseline in ((mutant, document), (document, mutant)):
                try:
                    check(run, baseline=baseline)
                    outcomes["pass"] += 1
                except GateFailure as failure:
                    assert failure.row is not None or path == ["bench"]
                    outcomes["fail"] += 1
    assert outcomes["fail"] > 0


# -- write_bench_json writes, then gates --------------------------------------


def _payload(document):
    return {key: value for key, value in document.items()
            if key not in ("schema_version", "bench")}


def test_write_bench_json_gates_against_the_committed_baseline(tmp_path):
    path = write_bench_json("ring", _payload(DOCS["ring"]),
                            out_dir=str(tmp_path))
    assert json.loads(pathlib.Path(path).read_text()) == DOCS["ring"]


def test_write_bench_json_leaves_the_failing_file_behind(tmp_path):
    slow = _mutated(DOCS["ring"], ["speedup", "pt", "8"], 1.5)
    with pytest.raises(GateFailure, match="^speedup.pt.8: 1.5 is not >= 3.0"):
        write_bench_json("ring", _payload(slow), out_dir=str(tmp_path))
    drifted = _mutated(DOCS["ring"],
                       ["series", "pt", "8", "batched", "ring_batches"], 99)
    with pytest.raises(GateFailure,
                       match="^series.pt.8.batched.ring_batches: 99 is not "
                             "== 32 .exact."):
        write_bench_json("ring", _payload(drifted), out_dir=str(tmp_path))
    assert json.loads((tmp_path / "BENCH_ring.json").read_text()) == drifted


def test_a_truncated_baseline_file_is_a_gate_failure(tmp_path, monkeypatch):
    from benchmarks import _common

    text = (_DIR / "baseline_ring.json").read_text()
    (tmp_path / "baseline_ring.json").write_text(text[:len(text) // 2])
    monkeypatch.setattr(_common, "__file__", str(tmp_path / "_common.py"))
    with pytest.raises(GateFailure, match="baseline_ring.json: not JSON"):
        write_bench_json("ring", _payload(DOCS["ring"]),
                         out_dir=str(tmp_path))
