"""Compare two sets of benchmark results: ``compare.py A.json B.json``.

A and B are files written by ``run.py --out`` (each ``--out`` of the
same file appends one run, so a file may hold several runs of one
commit).  B is judged against A per (metric, workload):

* every host-clock end-to-end metric: B's median may not be worse than
  A's median by more than the metric's ``bound`` in ``BENCHMARK.json``;
* every ``sim_*`` output and ``sim_digest``: exact match — a change to
  the simulator's speed must leave every simulated statistic identical;
* a pairing is **unresolved**, not passed, when the runs of one side
  already differ from each other by more than the bound — unless every
  run of B is better than every run of A;
* ``op_p50_us`` / ``op_p99_us`` carry no bound (see run.py): their
  change is printed, not judged.

Prints one row per workload and exits non-zero on any regression,
mismatch or unresolved pairing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> list[dict]:
    runs = json.loads(Path(path).read_text())["runs"]
    if not runs:
        raise SystemExit(f"compare.py: {path} holds no run")
    return runs


def judge(a_values: list, b_values: list, better: str, bound: float) -> str:
    """'ok', 'REGRESSED' or 'unresolved' for one (metric, workload)."""
    sign = 1 if better == "lower" else -1
    a = [sign * v for v in a_values]       # now lower is better
    b = [sign * v for v in b_values]
    a_med, b_med = statistics.median(a), statistics.median(b)
    scale = abs(a_med) or 1.0
    if max(b) < min(a):
        return "ok"                        # every B run beats every A run
    for side in (a, b):
        if (max(side) - min(side)) / scale > bound:
            return "unresolved"
    return "REGRESSED" if (b_med - a_med) / scale > bound else "ok"


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> int:
    bad = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        a_sets = [run["workloads"][workload] for run in a_runs
                  if workload in run["workloads"]]
        b_sets = [run["workloads"][workload] for run in b_runs
                  if workload in run["workloads"]]
        if not a_sets or not b_sets:
            print(f"{workload:14s} missing from one side")
            bad += 1
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [s["end_to_end"][name] for s in a_sets]
            b_values = [s["end_to_end"][name] for s in b_sets]
            verdict = judge(a_values, b_values, metric["better"],
                            metric["bound"])
            a_med = statistics.median(a_values)
            b_med = statistics.median(b_values)
            change = (b_med / a_med - 1) * 100 if a_med else 0.0
            cells.append(f"{name} {change:+.1f}% {verdict}")
            bad += verdict != "ok"
        for name in ("op_p50_us", "op_p99_us"):
            a_med = statistics.median(s["latency"][name] for s in a_sets)
            b_med = statistics.median(s["latency"][name] for s in b_sets)
            cells.append(f"{name} {(b_med / a_med - 1) * 100:+.1f}%")
        # simulated outputs: every run of one seed must report the same
        by_seed: dict = {}
        for side in (a_runs, b_runs):
            for run in side:
                if workload in run["workloads"]:
                    entry = run["workloads"][workload]
                    by_seed.setdefault(run["seed"], []).append(
                        (entry["sim"], entry["sim_digest"]))
        shared = [outputs for outputs in by_seed.values() if len(outputs) > 1]
        if not shared:
            exact = "no common seed"
        elif all(o == outputs[0] for outputs in shared for o in outputs):
            exact = "identical"
        else:
            exact = "DIFFER"
        bad += exact != "identical"
        print(f"{workload:14s} " + " | ".join(cells)
              + f" | sim_* and sim_digest {exact}")
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[0])
    spec = json.loads(BENCHMARK_JSON.read_text())
    bad = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("all pairings within their bounds" if not bad
          else f"{bad} pairings regressed, differ or are unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
