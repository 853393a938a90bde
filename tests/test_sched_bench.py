"""Tests for the scheduler workload harness: payload shape, the
core-scaling and fairness stories, and bit-identical determinism of
both the switch trace and the emitted benchmark numerics."""

import json

from repro.nros.sched.workload import (
    WorkloadProfile,
    run_fairness,
    run_workload,
    scaling_bench,
)

_PROFILE = WorkloadProfile(ticks=400)


# -- payload shape ------------------------------------------------------------


def test_workload_metrics_shape():
    metrics = run_workload(2, _PROFILE, seed=1)
    for key in ("cores", "ticks", "quanta", "sim_ns", "throughput_qps",
                "context_switches", "migrations", "steals",
                "preemptions", "rt_throttles"):
        assert isinstance(metrics[key], (int, float)), key
    for kind in ("interactive", "rt"):
        for field in ("count", "p50_ns", "p99_ns"):
            assert isinstance(metrics[kind][field], (int, float))
    assert metrics["cores"] == 2
    assert metrics["quanta"] > 0


def test_scaling_bench_payload_shape():
    payload = scaling_bench(seed=1)
    assert set(payload["series"]) == {"1", "2", "4", "8"}
    assert "max_rel_error" in payload["fairness"]


# -- the scaling and fairness stories -----------------------------------------


def test_throughput_scales_with_cores():
    one = run_workload(1, _PROFILE, seed=1)
    two = run_workload(2, _PROFILE, seed=1)
    four = run_workload(4, _PROFILE, seed=1)
    assert two["throughput_qps"] >= one["throughput_qps"]
    assert four["throughput_qps"] >= two["throughput_qps"]


def test_interactive_latency_drops_with_cores():
    one = run_workload(1, _PROFILE, seed=1)
    four = run_workload(4, _PROFILE, seed=1)
    assert four["interactive"]["p99_ns"] <= one["interactive"]["p99_ns"]


def test_fairness_tracks_nice_weights():
    fairness = run_fairness(seed=1, ticks=1_500)
    assert fairness["max_rel_error"] < 0.05


def test_migrations_happen_across_cores():
    metrics = run_workload(2, _PROFILE, seed=1)
    assert metrics["migrations"] + metrics["steals"] > 0


# -- determinism (same seed => identical trace and numerics) ------------------


def test_switch_trace_is_deterministic():
    first = run_workload(2, _PROFILE, seed=7, record_trace=True)
    second = run_workload(2, _PROFILE, seed=7, record_trace=True)
    assert first["switch_trace"] == second["switch_trace"]
    assert len(first["switch_trace"]) > 0


def test_different_seed_changes_the_trace():
    first = run_workload(2, _PROFILE, seed=7, record_trace=True)
    other = run_workload(2, _PROFILE, seed=8, record_trace=True)
    assert first["switch_trace"] != other["switch_trace"]


def test_bench_numerics_are_deterministic():
    first = json.dumps(scaling_bench(seed=1), sort_keys=True)
    second = json.dumps(scaling_bench(seed=1), sort_keys=True)
    assert first == second
