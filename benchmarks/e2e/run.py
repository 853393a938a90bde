"""The repo benchmark: six workloads, end-to-end and per-layer numbers.

Two ways to run it:

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1``
    one workload in this process.  Rounds (see ``workloads.py``) repeat
    the seed's inputs until N seconds have passed; the last line of
    standard output is one JSON object ``{"correct", "attempted",
    "failed", "metrics"}`` holding the end-to-end metrics (``--trace 0``)
    or the per-layer metrics (``--trace 1``).  A failed output check
    prints the problems and exits non-zero without a result line.

``python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--out FILE]``
    every workload (or W), each in a fresh subprocess, untraced and then
    traced; prints every metric by name with its unit and appends the
    set of results to FILE for ``compare.py``.

``--selftest`` runs the determinism self-test instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Proof caches live here, inside the checkout; removed when a run ends.
SCRATCH = ROOT / ".bench_tmp"

#: Default of ``--seconds`` (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 12
#: Cold set-ups per run; ``setup_s`` is the fastest of them.
SETUP_SAMPLES = 5

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Host-clock latency of the workload's unit of work.  Tails are too
#: exposed to this box's neighbours to carry a bound (their run-to-run
#: spread reaches 46% in a noisy hour), so the driver gets them in the
#: unbounded list; the tables and ``--out`` carry the untraced run's.
LATENCY_METRICS = {
    "op_p50_us": "us",
    "op_p99_us": "us",
}

#: Simulated-clock outputs, exact for a seed, so they cannot carry a
#: percentage bound either.  The wrappers change no behaviour, so the
#: traced run's equal the untraced run's.
SIM_METRICS = {
    "sim_ops_per_s": "1/s",
    "sim_p50_ns": "ns",
    "sim_p99_ns": "ns",
    "sim_samples": "count",
}


def _import_program():
    """Put ``src/`` on the path; fail without a result where the program
    is absent (a directory holding only the benchmark)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def per_layer_units() -> dict:
    """Per-layer metrics: name -> unit (every workload reports all of
    them, 0 where a layer is not entered)."""
    from trace import LAYERS  # benchmarks/e2e/trace.py, first on sys.path

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "bench.traced_wall_s": "s",
        "bench.untraced_self_s": "s",
        "bench.trace_overhead_frac": "ratio",
        "bench.audit_s": "s",
        "cluster.client.retries": "count",
        "cluster.client.redirects": "count",
        "cluster.client.giveups": "count",
        "cluster.client.gen_late_ticks_max": "ticks",
        "cluster.node.host_us_per_tick": "us",
        "cluster.node.idle_tick_frac": "ratio",
        "cluster.wal.appends": "count",
        "cluster.wal.compactions": "count",
        "cluster.wal.compact_self_s": "s",
        "nr.core.log_appends": "count",
        "nr.core.batches": "count",
        "nr.core.max_batch": "count",
        "nros.net.frames": "count",
        "nros.net.link.frames": "count",
        "hw.devices.nic.frames": "count",
        "nros.fs.ops": "count",
        "nros.fs.op_seconds": "s",
        "nros.drivers.block.io_retries": "count",
        "nros.drivers.block.queue_full": "count",
        "hw.devices.disk.sectors_read_per_put": "1/op",
        "hw.devices.disk.sectors_written_per_put": "1/op",
        "nros.kernel.syscalls": "count",
        "nros.kernel.marshalled_bytes_per_op": "B/op",
        "nros.sched.thread_switches": "count",
        "nros.sched.steals": "count",
        "nros.sched.migrations": "count",
        "nros.syscall.ring.ring_batches": "count",
        "nros.syscall.ring.ring_sqes": "count",
        "nros.syscall.ring.sqes_per_batch": "count",
        "nros.syscall.ring.drain_s": "s",
        "nros.vspace.shootdown_rounds": "count",
        "nros.vspace.shootdown_pages": "count",
        "nros.vspace.pages_per_round": "count",
        "sim.sim_ns": "ns",
        "sim.host_us_per_sim_op": "us",
        "prover.cache_hit_rate_warm": "ratio",
        "prover.warm_s": "s",
        "verif.invariants_s": "s",
        "verif.scheduler_s": "s",
        "verif.simulation_s": "s",
        "verif.refinement_s": "s",
        "verif.rg_s": "s",
        "verif.other_s": "s",
        "smt.solver_seconds": "s",
        "smt.rewrite_s": "s",
        "smt.blast_s": "s",
        "smt.preprocess_s": "s",
        "smt.sat_s": "s",
        "smt.sat_conflicts": "count",
        "smt.cnf_clauses": "count",
    })
    units.update(LATENCY_METRICS)
    units.update(SIM_METRICS)
    return units


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """A round's outputs were wrong; the run reports no number."""


def _percentile(ordered: list, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def build(workload, seed: int):
    """Generate the inputs from the seed and build the system under test
    -> (inputs, state)."""
    # free the previous system first (kernels are cyclic garbage holding
    # 64 MiB of simulated memory each): peak RSS must not depend on when
    # the collector happens to run
    gc.collect()
    inputs = workload.generate(seed)
    return inputs, workload.setup(inputs)


def cold_build(name: str, seed: int) -> None:
    """What a cold set-up subprocess runs: import the program, build."""
    _import_program()
    from workloads import all_workloads
    build(all_workloads(str(SCRATCH))[name], seed)


def cold_setup_s(name: str, seed: int) -> float:
    """One ``setup_s`` sample: a fresh interpreter imports the program,
    generates round 0's inputs and builds the system.  In-process builds
    after the first take 0.5 ms (prove_cold) to 40 ms, too little to
    time steadily, and skip what a user pays first: the imports."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.cold_build({name!r}, {seed})")
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return perf_counter() - started


def latency_us(rounds: list) -> dict:
    """Percentiles per round, then the median over rounds: where the p99
    sits on a knee of the distribution (kv_get_heavy) this is 2.5x
    steadier than one percentile of the pooled samples."""
    ordered = [sorted(r.unit_s) for r in rounds]
    return {"op_p50_us": statistics.median(
                _percentile(o, 0.50) for o in ordered) * 1e6,
            "op_p99_us": statistics.median(
                _percentile(o, 0.99) for o in ordered) * 1e6}


def measure_round(workload, seed: int, tracer=None):
    """Build + one timed round + output checks -> Round."""
    from repro import obs

    inputs, state = build(workload, seed)
    obs.registry().reset()  # set-up (mkfs, WAL open) is not the round's
    if tracer is not None:
        tracer.reset()
        tracer.install()
    gc.collect()  # the garbage of set-up is not this round's to collect
    try:
        result = workload.run(state, inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    workload.verify(state, inputs, result)
    if result.problems or result.failed:
        raise CheckFailed(
            f"{workload.name}: {result.failed} of {result.ops} ops failed; "
            + "; ".join(result.problems))
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans: str | None = None) -> tuple[dict, dict]:
    """Measure `name` for `seconds`; returns (contract result, detail)."""
    from trace import Tracer
    from workloads import all_workloads

    workload = all_workloads(str(SCRATCH))[name]
    deadline = perf_counter() + seconds
    setups: list[float] = []

    def sample_setup() -> None:
        nonlocal deadline
        setups.append(cold_setup_s(name, seed))
        deadline += setups[-1]  # --seconds is for rounds

    tracer = Tracer(keep_raw=spans is not None) if trace else None
    rounds, snapshots = [], []
    while True:
        # Every round repeats the seed's inputs, so rounds differ only by
        # what the host did meanwhile.  A traced run's first round is
        # untraced: the base of the tracing overhead and of the
        # same-digest check.
        use = tracer if rounds else None
        if not trace and len(setups) < SETUP_SAMPLES:
            sample_setup()  # one between rounds: spread over the run
        rounds.append(measure_round(workload, seed, use))
        if use is not None:
            snapshots.append(tracer.snapshot())
        if (snapshots or not trace) and perf_counter() >= deadline:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        sample_setup()
    if spans is not None:
        tracer.dump_raw(spans)

    first = rounds[0]
    if any(r.digest != first.digest for r in rounds):
        raise CheckFailed(f"{name}: rounds of the same inputs disagree on "
                          f"sim_digest")
    detail = {
        "workload": name, "seed": seed, "rounds": len(rounds),
        "unit": workload.unit, "unit_samples": len(first.unit_s),
        "sim_digest": first.digest, "sim": first.sim,
    }

    if not trace:
        values = {
            # the best set-up and the best round, not the medians: the
            # samples of a run do identical work, this host's neighbours
            # slow them for tens of seconds at a time (never speed one
            # up), so in a busy hour the median sample is a disturbed one
            "setup_s": min(setups),
            "ops_per_s": max(r.ops / r.wall_s for r in rounds),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        detail["latency"] = latency_us(rounds)
        detail["round_ops_per_s"] = [r.ops / r.wall_s for r in rounds]
    else:
        def mean(table: str, key: str) -> float:
            return sum(s[table][key] for s in snapshots) / len(snapshots)

        units = per_layer_units()
        values = dict.fromkeys(units, 0)
        wall = statistics.fmean(r.wall_s for r in rounds[1:])
        for layer in tracer.calls:
            values[f"{layer}.calls"] = snapshots[0]["calls"][layer]
            values[f"{layer}.self_s"] = mean("self_s", layer)
        self_total = sum(values[f"{layer}.self_s"] for layer in tracer.calls)
        values.update(rounds[1].counters)
        values.update(latency_us([first]))
        values.update(first.sim)
        node_ticks = values["cluster.node.calls"]
        values.update({
            "bench.traced_wall_s": wall,
            "bench.untraced_self_s": wall - self_total,
            "bench.trace_overhead_frac": wall / first.wall_s - 1,
            "cluster.wal.compact_self_s":
                mean("method_self_s", "cluster.wal:compact"),
            "cluster.node.host_us_per_tick":
                values["cluster.node.self_s"] / node_ticks * 1e6
                if node_ticks else 0,
        })
        if self_total > 1.01 * wall:
            raise CheckFailed(f"{name}: layer self times {self_total:.3f}s "
                              f"exceed the traced wall {wall:.3f}s")
        unlisted = sorted(set(values) - set(units))
        if unlisted:
            raise CheckFailed(f"{name}: unlisted per-layer metrics {unlisted}")

    # a failed op or check raised CheckFailed above: what is printed is
    # always a correct run
    result = {
        "correct": True,
        "attempted": sum(r.ops for r in rounds),
        "failed": 0,
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    return result, detail


def single_main(args) -> int:
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.spans)
    except CheckFailed as failure:
        print(f"run.py: output check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           spans: str | None) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if spans is not None and trace:
        command += ["--spans", str(Path(spans).resolve())]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py: {workload} (trace={trace}) exited "
                         f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def _print_tables(results: dict) -> None:
    names = list(results)
    print("\nend-to-end (untraced runs; best set-up, best round, latency "
          "medians over rounds)")
    columns = {**END_TO_END, **LATENCY_METRICS}
    print(f"  {'workload':14s}" + "".join(
        f"{m + ' [' + u + ']':>19s}" for m, u in columns.items())
        + "  rounds  samples/round  failed_frac")
    for name in names:
        entry = results[name]
        shown = {**entry["end_to_end"], **entry["latency"]}
        print(f"  {name:14s}" + "".join(
            f"{shown[m]:19.4f}" for m in columns)
            + f"  {entry['rounds']:6d}  {entry['unit_samples']:13d}"
            + f"  {entry['failed_frac']:11.1f}   (op = {entry['unit']})")
    print("\nsimulated clock (exact for a seed)")
    for name in names:
        entry = results[name]
        print(f"  {name:14s}" + "".join(
            f"  {m}={entry['sim'][m]:.6g}" for m in SIM_METRICS)
            + f"  sim_digest={entry['sim_digest']}")
    print("\nper layer (traced runs; seconds are self time)")
    print(f"  {'metric':42s}" + "".join(f"{name:>15s}" for name in names))
    for metric, unit in per_layer_units().items():
        row = [results[name]["per_layer"][metric] for name in names]
        if any(row) and metric not in SIM_METRICS \
                and metric not in LATENCY_METRICS:
            print(f"  {metric + ' [' + unit + ']':42s}"
                  + "".join(f"{value:15.6g}" for value in row))


def suite_main(args) -> int:
    from workloads import all_workloads

    names = [args.workload] if args.workload else list(
        all_workloads(str(SCRATCH)))
    results = {}
    for name in names:
        print(f"running {name} untraced, then traced ...", flush=True)
        plain, detail = _child(name, args.seed, args.seconds, 0, None)
        traced, _ = _child(name, args.seed, args.seconds, 1, args.spans)
        results[name] = {
            **detail,
            "failed_frac": plain["failed"] / plain["attempted"],
            "end_to_end": {m: v["value"]
                           for m, v in plain["metrics"].items()},
            "per_layer": {m: v["value"]
                          for m, v in traced["metrics"].items()},
        }
    _print_tables(results)
    if args.out:
        path = Path(args.out)
        runs = json.loads(path.read_text())["runs"] if path.exists() else []
        runs.append({"seed": args.seed, "seconds": args.seconds,
                     "workloads": results})
        path.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True))
        print(f"\nappended run {len(runs)} to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="append the results to this JSON "
                                      "file (for compare.py)")
    parser.add_argument("--spans", help="dump the raw spans of the first "
                                        "traced ops to this JSONL file")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    if args.selftest:
        from selftest import selftest
        return selftest()
    from workloads import all_workloads
    if args.workload and args.workload not in all_workloads(str(SCRATCH)):
        parser.error(f"unknown workload {args.workload!r}")
    if (args.trace is not None or args.spans) and not args.workload:
        parser.error("--trace and --spans need --workload")
    if args.trace is not None:
        return single_main(args)
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
