"""Every contract a ``BENCH_*.json`` document must meet, stated once.

``GATES[bench]`` is a list of rows ``(path, kind, argument)``.  ``path``
is dotted; ``*`` stands for every key of the object at that point (at
least one) and a last segment ``a+b`` for the sum of two siblings.
Kinds checked on the document alone: ``typed`` (``True``/``False`` are
booleans, never numbers); ``equals`` / ``at_most`` / ``at_least``
against a constant or a value derived from the document by
``argument(get, path)``; ``monotone``, non-decreasing as ``*`` runs over
the given keys.  Kinds checked against the committed
``baseline_<bench>.json``, whose entries (not the run's) say what must
be present: ``exact`` for deterministic counts, ``collapse`` (not below
1/k of the baseline: throughput, acked ops) and ``ceiling`` (not above
k times it: latency, conflicts).  Wall-clock values only ever get
``collapse``: CI machines vary, counts do not.  `check` raises one
`GateFailure` naming the offending path; `_common.write_bench_json`
runs it on every file it writes.
"""

from __future__ import annotations

import operator

SCHEMA_VERSION = 1
NUM = (int, float)


class GateFailure(AssertionError):
    """A gate row does not hold; ``row`` is the `GATES` row that caught it."""

    def __init__(self, path: str, problem: str) -> None:
        super().__init__(f"{path}: {problem}")
        self.row = None


def _rows(kind, argument, prefix, leaves):
    return [(prefix + leaf, kind, argument) for leaf in leaves.split()]


def _sibling(name):
    return lambda get, path: get(".".join(path[:-1] + (name,)))


def _ring_sqes(get, path):
    """Every batched op rode an SQE; a pt SQE carries ``pt_batch`` pages
    and each page needs one map SQE and one unmap SQE."""
    ops = _sibling("ops")(get, path)
    return 2 * ops // get("pt_batch") if path[1] == "pt" else ops


_TIMING = "p50_seconds p99_seconds total_seconds wall_seconds"
_PERCENTILES = "count p50_ns p99_ns"
_RING_COUNTS = "ops ring_batches ring_sqes shootdown_rounds"
_FIG1BC = [
    ("impl_cost_ratio", "typed", NUM),
    ("series", "typed", dict),
    *_rows("typed", NUM, "vspace_obs.",
           "pages batch shootdown_rounds shootdown_pages "
           "mapped_pages_gauge_delta batch_pages_recorded"),
]

GATES = {
    "fig1a": [
        ("total_vcs", "typed", int),
        *_rows("typed", NUM, "cold.", _TIMING),
        *_rows("typed", NUM, "warm.", _TIMING),
        ("cache_hit_rate", "typed", NUM),
        # goals settled without CDCL search must not halve, conflicts
        # must not double; wall-clock is deliberately not compared
        ("solver_counters.decided_structurally+decided_by_preprocessing",
         "collapse", 2),
        ("solver_counters.sat_conflicts", "ceiling", 2),
    ],
    "fig1b": _FIG1BC,
    "fig1c": _FIG1BC,
    "cluster": [
        ("seed", "typed", int),
        ("profile", "typed", dict),
        *_rows("typed", NUM, "series.*.",
               "nodes rf issued acked failed undrained lost_acked_writes "
               "ryw_violations sim_ns throughput_ops_per_s"),
        *_rows("typed", NUM, "series.*.put.", _PERCENTILES),
        *_rows("typed", NUM, "series.*.get.", _PERCENTILES),
        # the service contract: no acknowledged write is lost, sessions
        # read their writes, every request completes and is acknowledged
        *_rows("equals", 0, "series.*.",
               "lost_acked_writes ryw_violations undrained"),
        ("series.*.acked", "equals", _sibling("issued")),
        # the scaling story: one node queues under the offered load,
        # three serve the same arrivals at a third of the median latency
        ("series.1.get.p50_ns", "at_least",
         lambda get, path: 3 * get("series.3.get.p50_ns")),
        *_rows("typed", NUM, "recovery.",
               "acked gaveup undrained lost_acked_writes ryw_violations "
               "fsck_issues replayed_records recovered_keys recovery_ticks "
               "rf_restore_ticks"),
        # kill+restart keeps the contract, and the node came back from
        # its WAL, fsck-clean, with full rf restored (-1: never)
        *_rows("equals", 0, "recovery.",
               "lost_acked_writes ryw_violations undrained fsck_issues"),
        ("recovery.serving", "typed", bool),
        ("recovery.serving", "equals", True),
        ("recovery.replayed_records", "at_least", 1),
        *_rows("at_least", 0, "recovery.", "recovery_ticks rf_restore_ticks"),
        # loose factors, so protocol tuning does not churn the baseline
        # while mass request failure or a 4x latency regression fails
        ("series.*.acked", "collapse", 2),
        *_rows("ceiling", 4, "series.*.", "put.p99_ns get.p99_ns"),
        *_rows("ceiling", 4, "recovery.", "recovery_ticks rf_restore_ticks"),
    ],
    "sched": [
        ("seed", "typed", int),
        ("profile", "typed", dict),
        *_rows("typed", NUM, "series.*.",
               "cores ticks quanta sim_ns throughput_qps context_switches "
               "migrations steals preemptions rt_throttles"),
        *_rows("typed", NUM, "series.*.interactive.", _PERCENTILES),
        *_rows("typed", NUM, "series.*.rt.", _PERCENTILES),
        ("series.*.quanta", "at_least", 1),
        # every added core up to 4 runs more batch work in the same
        # simulated time (8 may flatten once the workload saturates), a
        # woken thread waits less, and balancing actually happened
        ("series.*.throughput_qps", "monotone", ("1", "2", "4")),
        ("series.4.interactive.p99_ns", "at_most",
         lambda get, path: get("series.1.interactive.p99_ns")),
        ("series.2.migrations+steals", "at_least", 1),
        # CPU shares track the nice-weight ideal within 5 %
        ("fairness.max_rel_error", "at_most", 0.05),
        ("series.*.throughput_qps", "collapse", 2),
        ("series.*.interactive.p99_ns", "ceiling", 4),
    ],
    "ring": [
        *_rows("typed", int, "", "iters batch pt_batch"),
        ("pt_batch", "at_least", 1),
        ("proc_counts", "typed", list),
        ("ring_obs", "typed", dict),
        *_rows("typed", NUM, "series.*.*.*.",
               "procs ops wall_seconds ops_per_s p50_s p99_s ring_batches "
               "ring_sqes shootdown_rounds shootdown_rounds_obs"),
        ("series.*.*.*.ops", "equals",
         lambda get, path: _sibling("procs")(get, path) * get("iters")),
        # the single path never touches a ring
        ("series.*.*.single.ring_sqes", "equals", 0),
        ("series.*.*.batched.ring_sqes", "equals", _ring_sqes),
        # the amortization: one shootdown round per page on the single
        # path, one per pt_batch pages on the batched path
        ("series.pt.*.single.shootdown_rounds", "equals", _sibling("ops")),
        ("series.pt.*.batched.shootdown_rounds", "equals",
         lambda get, path: _sibling("ops")(get, path) // get("pt_batch")),
        # the vspace attributes and the obs registry tell the same story
        ("series.*.*.*.shootdown_rounds", "equals",
         _sibling("shootdown_rounds_obs")),
        # the headline: batched pt beats trap-per-call 3x under contention
        ("speedup.pt.8", "at_least", 3.0),
        ("proc_counts", "exact", None),
        *_rows("exact", None, "series.*.*.single.", _RING_COUNTS),
        *_rows("exact", None, "series.*.*.batched.", _RING_COUNTS),
        *_rows("collapse", 2, "series.*.*.",
               "single.ops_per_s batched.ops_per_s"),
    ],
}

_COMMON = [("schema_version", "typed", int),
           ("schema_version", "equals", SCHEMA_VERSION)]
_COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}
#: kind -> (comparison, limit from (baseline value, argument) if relative)
_KINDS = {
    "equals": ("==", None),
    "at_most": ("<=", None),
    "at_least": (">=", None),
    "exact": ("==", lambda base, factor: base),
    "collapse": (">=", lambda base, factor: base / factor),
    "ceiling": ("<=", lambda base, factor: factor * max(base, 1)),
}
_RELATIVE = tuple(kind for kind, (_, limit) in _KINDS.items() if limit)


def _is(value, types) -> bool:
    return isinstance(value, types) and (
        types is bool or not isinstance(value, bool))


def _number(value, where):
    if not _is(value, NUM):
        raise GateFailure(where, f"{value!r} is not a number")
    return value


def _match(root, pattern, label=""):
    """Every ``(path, value)`` under `root` that `pattern` names."""
    found = [((), root)]
    for segment in pattern.split("."):
        grown = []
        for path, node in found:
            where = label + ".".join(path + (segment,))
            mapping = node if isinstance(node, dict) else {}
            keys = sorted(mapping) if segment == "*" else segment.split("+")
            if not keys or any(key not in mapping for key in keys):
                raise GateFailure(where, "missing")
            if segment == "*":
                grown += [(path + (key,), node[key]) for key in keys]
            else:
                grown.append((path + (segment,), sum(
                    _number(node[key], where) for key in keys)
                    if len(keys) > 1 else node[segment]))
        found = grown
    return found


def _check_row(document, baseline, pattern, kind, argument):
    def get(dotted):
        return _number(_match(document, dotted)[0][1], dotted)

    if kind == "monotone":
        values = [(dotted, get(dotted)) for dotted in
                  (pattern.replace("*", key) for key in argument)]
        for (_, low), (dotted, high) in zip(values, values[1:]):
            if not high >= low:
                raise GateFailure(dotted, f"{high!r} is below {low!r} "
                                          f"(monotone over {argument})")
        return
    relative = kind in _RELATIVE
    for path, found in (_match(baseline, pattern, "baseline ") if relative
                        else _match(document, pattern)):
        dotted = ".".join(path)
        value = _match(document, dotted)[0][1] if relative else found
        if kind == "typed":
            if not _is(value, argument):
                raise GateFailure(dotted, f"{value!r} is not " + (
                    "a number" if argument is NUM else argument.__name__))
            continue
        compare, from_baseline = _KINDS[kind]
        if relative:
            if compare != "==":
                _number(found, "baseline " + dotted)
            limit = from_baseline(found, argument)
        else:
            limit = argument(get, path) if callable(argument) else argument
        if compare != "==":
            _number(value, dotted)
        if not _COMPARE[compare](value, limit):
            raise GateFailure(dotted, f"{value!r} is not {compare} "
                                      f"{limit!r} ({kind})")


def check(document, baseline=None) -> None:
    """Hold `document` to every row of its bench (the baseline-relative
    rows only when a `baseline` is given); raises `GateFailure`."""
    bench = document.get("bench") if isinstance(document, dict) else None
    if not isinstance(bench, str) or bench not in GATES:
        raise GateFailure("bench", f"{bench!r} is not one of {sorted(GATES)}")
    for row in _COMMON + GATES[bench]:
        if row[1] in _RELATIVE and baseline is None:
            continue
        try:
            _check_row(document, baseline, *row)
        except GateFailure as failure:
            failure.row = row
            raise
