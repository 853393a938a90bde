"""Figure 1c: unmap latency vs core count, verified vs unverified.

Unmap pays for everything map pays plus the TLB shootdown (IPI every other
core and wait for acknowledgement), so its curve sits above Figure 1b's and
grows faster with core count — the same relationship the paper's two
figures show.
"""

from benchmarks._common import (
    BASE_APPLY_NS,
    BASE_QUERY_NS,
    CORE_COUNTS,
    OPS_PER_CORE,
    report_lines,
    session_calibration,
    vspace_obs_probe,
    write_bench_json,
)
from repro.nr.datastructures import VSpaceModel
from repro.nr.timed import TimedNrConfig, run_timed_workload, tlb_shootdown_cost
from repro.obs import Histogram


def unmap_workload(core, i):
    """Alternate map/unmap so every unmap has something to remove."""
    vaddr = (core << 28) | ((i // 2 + 1) << 12)
    if i % 2 == 0:
        return (("map", vaddr, core), False)
    return (("unmap", vaddr), False)


def unmap_post_cost(op, is_read, num_cores, topology):
    if op[0] != "unmap":
        return 0
    return tlb_shootdown_cost(op, is_read, num_cores, topology)


def run_series(apply_cost_ns):
    series = {}
    for cores in CORE_COUNTS:
        cfg = TimedNrConfig(
            num_cores=cores,
            ops_per_core=OPS_PER_CORE,
            apply_cost_ns=apply_cost_ns,
            query_cost_ns=BASE_QUERY_NS,
            post_op_cost_fn=unmap_post_cost,
        )
        series[cores] = run_timed_workload(VSpaceModel, unmap_workload, cfg)
    return series


def test_fig1c_unmap_latency(benchmark, capsys):
    calibration = session_calibration()
    unverified_cost = BASE_APPLY_NS
    verified_cost = int(BASE_APPLY_NS * calibration["ratio"])

    def run_both():
        return (run_series(unverified_cost), run_series(verified_cost))

    unverified, verified = benchmark.pedantic(run_both, rounds=1,
                                              iterations=1)

    lines = ["  cores   unverified unmap [us]   verified unmap [us]   "
             "p99 [us]"]
    for cores in CORE_COUNTS:
        u = unverified[cores].kind("unmap")
        v = verified[cores].kind("unmap")
        # per-kind recorders are the same unified Histogram type as 1a/1b
        assert isinstance(v, Histogram)
        lines.append(
            f"  {cores:5d}   {u.mean_us:21.2f}   {v.mean_us:19.2f}   "
            f"{v.p99_us:8.2f}"
        )
        benchmark.extra_info[f"unverified_us_{cores}"] = round(u.mean_us, 2)
        benchmark.extra_info[f"verified_us_{cores}"] = round(v.mean_us, 2)
    # cross-check against the real VSpace: the shootdown cost this figure
    # prices is observable in the obs registry — exactly one round per
    # unmap batch, and every unmapped page appears in shootdown_pages
    probe = vspace_obs_probe(pages=64, batch=16)
    lines += [
        "",
        f"  real-VSpace obs probe: {probe['shootdown_rounds']} shootdown "
        f"rounds for {probe['shootdown_pages']} pages unmapped in "
        f"batches of {probe['batch']} (one round per batch)",
        "",
        "  paper shape: same growth as map plus shootdown overhead; "
        "verified closely matches unverified",
    ]
    report_lines(capsys, "Figure 1c — unmap latency", lines)

    write_bench_json("fig1c", {
        "impl_cost_ratio": round(calibration["ratio"], 3),
        "series": {
            str(cores): {
                "unverified_mean_us": round(
                    unverified[cores].kind("unmap").mean_us, 2),
                "verified_mean_us": round(
                    verified[cores].kind("unmap").mean_us, 2),
                "verified_p99_us": round(
                    verified[cores].kind("unmap").p99_us, 2),
            }
            for cores in CORE_COUNTS
        },
        "vspace_obs": probe,
    })

    u_means = [unverified[c].kind("unmap").mean_us for c in CORE_COUNTS]
    v_means = [verified[c].kind("unmap").mean_us for c in CORE_COUNTS]
    assert all(a < b for a, b in zip(u_means, u_means[1:]))
    for u_mean, v_mean in zip(u_means, v_means):
        assert abs(v_mean - u_mean) / u_mean < 0.6


def test_fig1c_unmap_exceeds_map(benchmark, capsys):
    """Cross-figure check: at equal core counts the unmap workload's
    latency exceeds the pure-map workload's (shootdown cost)."""
    from benchmarks.bench_fig1b_map_latency import map_workload

    cores = 16

    def run_pair():
        base_cfg = dict(num_cores=cores, ops_per_core=OPS_PER_CORE,
                        apply_cost_ns=BASE_APPLY_NS)
        map_result = run_timed_workload(
            VSpaceModel, map_workload, TimedNrConfig(**base_cfg)
        )
        unmap_result = run_timed_workload(
            VSpaceModel, unmap_workload,
            TimedNrConfig(**base_cfg, post_op_cost_fn=unmap_post_cost),
        )
        return map_result, unmap_result

    map_result, unmap_result = benchmark.pedantic(run_pair, rounds=1,
                                                  iterations=1)
    map_us = map_result.latency.mean_us
    unmap_us = unmap_result.kind("unmap").mean_us
    report_lines(capsys, "Figure 1c vs 1b — shootdown overhead", [
        f"  map   at {cores} cores: {map_us:6.2f} us",
        f"  unmap at {cores} cores: {unmap_us:6.2f} us",
    ])
    assert unmap_us > map_us
