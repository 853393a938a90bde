"""Scheduler: core scaling under the mixed interactive+batch+RT load.

The workload harness runs the multi-class scheduler under simulated
time at 1/2/4/8 cores: always-runnable batch threads across nice
levels, interactive threads doing short bursts between seeded sleeps,
and periodic FIFO real-time tasks.  Throughput must scale monotonically
from 1 to 4 cores (the batch pool saturates every added core),
interactive wake-to-run p99 must drop as cores are added, and the
one-core fairness run must track the nice-weight ideal within 5%.

Everything is simulated time under a seed, so the emitted numbers are
deterministic; ``write_bench_json`` holds them to the sched rows of
``benchmarks/gates.py`` (those three contracts) and to the committed
``benchmarks/baseline_sched.json``.
"""

import pytest

from benchmarks._common import report_lines, write_bench_json
from repro.nros.sched.workload import SCALE_CORE_COUNTS, scaling_bench


def _format_series(payload):
    profile = payload["profile"]
    lines = [
        f"  {profile['ticks']} ticks, {profile['batch']} batch + "
        f"{profile['interactive']} interactive + {profile['rt']} rt "
        f"threads (rt prio {profile['rt_prio']}, period "
        f"{profile['rt_period']})",
        "",
        "  cores   quanta   tput [q/s]   inter p50/p99 [ns]   "
        "migrations  steals",
    ]
    for count in SCALE_CORE_COUNTS:
        entry = payload["series"][str(count)]
        lines.append(
            f"  {entry['cores']:5d}  {entry['quanta']:7d}"
            f"  {entry['throughput_qps']:11,.0f}"
            f"   {entry['interactive']['p50_ns']:8,.0f}/"
            f"{entry['interactive']['p99_ns']:<10,.0f}"
            f" {entry['migrations']:10d}  {entry['steals']:6d}")
    fairness = payload["fairness"]
    lines += ["", "  fairness (1 core, nice -5/0/+5): "
                  f"max relative error {fairness['max_rel_error']:.4f}"]
    for nice, share in sorted(fairness["shares"].items(),
                              key=lambda kv: int(kv[0])):
        lines.append(f"    nice {int(nice):+d}: achieved "
                     f"{share['achieved']:.4f} vs ideal "
                     f"{share['ideal']:.4f}")
    return lines


@pytest.mark.benchmark(group="sched")
def test_sched_core_scaling(benchmark, capsys):
    payload = benchmark.pedantic(scaling_bench, rounds=1, iterations=1)
    path = write_bench_json("sched", payload)
    report_lines(capsys, "Scheduler: core scaling, mixed workload",
                 _format_series(payload) + ["", f"  wrote {path}"])
