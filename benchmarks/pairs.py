"""The paired protocol of a PR — a perf claim, or the no-regression
check of a PR that claims nothing — as one command.

    python3 benchmarks/pairs.py WORKLOAD... | all [--parent REF]
                    [--pairs 10] [--seconds 12] [--first-seed S]

Makes two plain copies under ``.bench_tmp/``, once — ``git archive REF``
(default ``HEAD``) and the working tree's tracked, modified and new
files — and, for each workload named (``all`` = every workload of
``BENCHMARK.json``), runs ``benchmarks/e2e/run.py --workload W --seed S
--seconds N --trace 0`` in each copy, once per pair, alternating which
side goes first and moving to the next seed with every pair.  Copy
against copy, because a copy's ``setup_s`` differs from the checkout's
(no ``__pycache__``, another path).  Both copies are removed afterwards.

Prints, per pair, both sides' end-to-end metrics and whether
``sim_digest`` matched; then, at the end, one line per (workload,
metric) with the medians, quartiles, wins and the verdict of the
choosing-metrics guide, section 8: a **gain** needs the change to win
at least nine tenths of the pairs (ties count for neither side) *and*
the medians to differ by more than the distance between the parent's
own quartiles; a metric is **worse** when the
change's median is behind the parent's by more than its bound in
``BENCHMARK.json``, and **unresolved** when one side's own runs spread
wider than that bound without every run of the change beating every run
of the parent.  Exits 1 if any metric of any workload is ``WORSE`` or a
``sim_digest`` differed in any pair.

Wall-clock, so no CI step runs it; stdlib only, and it imports nothing
from ``benchmarks/e2e`` — the benchmark is reached through its command
line, the way the driver reaches it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def copy_of_ref(ref: str, dest: Path) -> None:
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)],
                   input=git("archive", ref), check=True)


def copy_of_working_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted here stays deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run -> {metric: value, ..., "sim_digest": ...}."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"pairs.py: run.py exited {done.returncode} in "
                         f"{checkout.name} at seed {seed}")
    detail, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    if result["failed"]:
        raise SystemExit(f"pairs.py: failed operations in {checkout.name}")
    values = {name: cell["value"] for name, cell in result["metrics"].items()}
    values["sim_digest"] = detail["detail"]["sim_digest"]
    return values


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(a: list, b: list, wins: int, bound: float) -> str:
    """Section 8 for one metric over all pairs run; `a` (parent) and `b`
    (change) are signed so that lower is better."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    scale = abs(a_med) or 1.0
    if 10 * wins >= 9 * len(a) and a_med - b_med > a_q3 - a_q1:
        return "gain"
    if max(b) < min(a):
        return "no worse"
    if any((max(side) - min(side)) / scale > bound for side in (a, b)):
        return "unresolved"
    return "WORSE" if (b_med - a_med) / scale > bound else "no worse"


def run_pairs(work: Path, workload: str, args, metrics) -> list:
    """All pairs of one workload -> [(parent values, change values)]."""
    print(f"{workload}: {args.pairs} pairs x {args.seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}")
    rows = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 \
            else ("change", "parent")
        got = {side: run_once(work / side, workload, seed, args.seconds)
               for side in order}
        rows.append((got["parent"], got["change"]))
        cells = "  ".join(
            f"{m['name']} {got['parent'][m['name']]:.5g} -> "
            f"{got['change'][m['name']]:.5g}" for m in metrics)
        same = got["parent"]["sim_digest"] == got["change"]["sim_digest"]
        print(f"  seed {seed} ({order[0]} first)  {cells}  sim_digest "
              f"{'same' if same else 'DIFFERS'}", flush=True)
    return rows


def report(workload: str, rows: list, metrics) -> bool:
    """Print one workload's verdict lines; True if all of them are good
    (no metric ``WORSE``, ``sim_digest`` equal in every pair)."""
    good = True
    for m in metrics:
        name = m["name"]
        parent = [p[name] for p, _ in rows]
        change = [c[name] for _, c in rows]
        sign = -1 if m["better"] == "higher" else 1   # lower is better
        a, b = [sign * v for v in parent], [sign * v for v in change]
        wins = sum(y < x for x, y in zip(a, b))
        losses = sum(y > x for x, y in zip(a, b))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        outcome = verdict(a, b, wins, m["bound"])
        good = good and outcome != "WORSE"
        print(f"{workload} {name} ({m['unit']}, {m['better']} is better): "
              f"parent {p2:.5g} [{p1:.5g}, {p3:.5g}]  change {c2:.5g} "
              f"[{c1:.5g}, {c3:.5g}]  x{c2 / p2:.3f}  wins {wins}/"
              f"{len(rows)} losses {losses}  -> {outcome}")
    mismatched = sum(p["sim_digest"] != c["sim_digest"] for p, c in rows)
    print(f"{workload} sim_digest: equal in {len(rows) - mismatched}/"
          f"{len(rows)} pairs")
    return good and not mismatched


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Alternating parent/change pairs of e2e workloads.")
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                        choices=known + ["all"])
    parser.add_argument("--parent", default="HEAD", metavar="REF")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--first-seed", type=int, default=501, metavar="S")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = known if "all" in args.workloads \
        else list(dict.fromkeys(args.workloads))
    metrics = benchmark["end_to_end"]

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pairs-", dir=ROOT / ".bench_tmp"))
    rows: dict[str, list] = {}
    try:
        copy_of_ref(args.parent, work / "parent")
        copy_of_working_tree(work / "change")
        print(f"parent = {args.parent}, change = working tree")
        for workload in workloads:
            rows[workload] = run_pairs(work, workload, args, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    print()
    verdicts = [report(workload, rows[workload], metrics)
                for workload in workloads]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
