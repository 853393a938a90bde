"""Cluster service: open-loop Zipfian load at 1 vs 3 nodes.

The workload harness offers the same seeded arrival process (Poisson
arrivals at a rate above a single node's service capacity, Zipfian key
popularity, a million-client virtual population) to a 1-node rf=1 and a
3-node rf=2 deployment, and reports per-op-class latency percentiles and
throughput.  One node must queue — its p50 sits far above service time —
while three nodes absorb the same offered load near service latency,
which is the node-scaling story ``BENCH_cluster.json`` carries.

The payload also carries a ``recovery`` section: a 3-node run that
kills node1 mid-workload, restarts it from its surviving disk image,
and measures WAL replay, time-to-serving, and time-to-restore-RF (the
first tick at which every acknowledged write is back on all ``rf`` of
its owners) — with the same zero-loss invariants as every other run.

Everything is simulated time under a seed, so the emitted numbers are
deterministic; ``write_bench_json`` holds them to the cluster rows of
``benchmarks/gates.py`` (the service contract, the scaling story, the
recovery) and to the committed ``benchmarks/baseline_cluster.json``.
"""

import pytest

from benchmarks._common import report_lines, write_bench_json
from repro.cluster import scaling_bench
from repro.cluster.harness import SCALE_NODE_COUNTS


def _format_series(payload):
    lines = [
        f"  open-loop rate {payload['profile']['rate_ops_per_s']:,.0f} "
        f"ops/s, {payload['profile']['ops']} ops, zipf "
        f"theta={payload['profile']['zipf_theta']}, "
        f"{payload['profile']['num_clients']:,} clients",
        "",
        "  nodes  rf    acked   tput [ops/s]   put p50/p99 [ns]   "
        "get p50/p99 [ns]",
    ]
    for count in SCALE_NODE_COUNTS:
        entry = payload["series"][str(count)]
        lines.append(
            f"  {entry['nodes']:5d}  {entry['rf']:2d}  {entry['acked']:7d}"
            f"   {entry['throughput_ops_per_s']:12,.0f}"
            f"   {entry['put']['p50_ns']:7.0f}/{entry['put']['p99_ns']:<8.0f}"
            f"  {entry['get']['p50_ns']:7.0f}/{entry['get']['p99_ns']:<8.0f}")
    rec = payload["recovery"]
    lines += [
        "",
        f"  crash-restart: killed node1 at op {rec['kill_at_op']}, "
        f"restarted at op {rec['restart_at_op']}",
        f"    fsck issues={rec['fsck_issues']}, replayed "
        f"{rec['replayed_records']} wal records "
        f"({rec['recovered_keys']} keys)",
        f"    serving after {rec['recovery_ticks']} ticks, full rf "
        f"restored after {rec['rf_restore_ticks']} ticks",
    ]
    return lines


@pytest.mark.benchmark(group="cluster")
def test_cluster_node_scaling(benchmark, capsys):
    payload = benchmark.pedantic(scaling_bench, rounds=1, iterations=1)
    path = write_bench_json("cluster", payload)
    report_lines(capsys, "Cluster: open-loop Zipfian load, 1 vs 3 nodes",
                 _format_series(payload) + ["", f"  wrote {path}"])
