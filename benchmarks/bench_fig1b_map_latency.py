"""Figure 1b: map latency vs core count, verified vs unverified.

Each core repeatedly executes map system calls through the NR-replicated
address space on the simulated NUMA machine; the series is the mean
latency in microseconds at 1..28 cores.  The 'verified' curve scales the
per-op replica cost by the *measured* wall-time ratio between the verified
and unverified Python implementations, so the gap between the two curves
is real, not assumed.
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
from repro.nr.timed import TimedNrConfig, run_timed_workload
from repro.obs import Histogram


def map_workload(core, i):
    vaddr = (core << 28) | ((i + 1) << 12)
    return (("map", vaddr, (core << 20) | i), False)


def run_series(apply_cost_ns):
    series = {}
    for cores in CORE_COUNTS:
        cfg = TimedNrConfig(
            num_cores=cores,
            ops_per_core=OPS_PER_CORE,
            apply_cost_ns=apply_cost_ns,
            query_cost_ns=BASE_QUERY_NS,
        )
        result = run_timed_workload(VSpaceModel, map_workload, cfg)
        series[cores] = result
    return series


def test_fig1b_map_latency(benchmark, capsys):
    calibration = session_calibration()
    unverified_cost = BASE_APPLY_NS
    verified_cost = int(BASE_APPLY_NS * calibration["ratio"])

    def run_both():
        return (run_series(unverified_cost), run_series(verified_cost))

    unverified, verified = benchmark.pedantic(run_both, rounds=1,
                                              iterations=1)

    lines = [
        f"  measured impl cost ratio (verified/unverified): "
        f"{calibration['ratio']:.2f}",
        "",
        "  cores   unverified [us]   verified [us]   p99 [us]   max batch",
    ]
    for cores in CORE_COUNTS:
        u = unverified[cores]
        v = verified[cores]
        # latency and batch-size populations are both repro.obs Histograms
        assert isinstance(v.latency, Histogram)
        assert v.batch_sizes.max == v.max_batch
        lines.append(
            f"  {cores:5d}   {u.latency.mean_us:15.2f}   "
            f"{v.latency.mean_us:13.2f}   {v.latency.p99_us:8.2f}   "
            f"{int(v.batch_sizes.max):9d}"
        )
        benchmark.extra_info[f"unverified_us_{cores}"] = round(
            u.latency.mean_us, 2)
        benchmark.extra_info[f"verified_us_{cores}"] = round(
            v.latency.mean_us, 2)
    # cross-check against the real VSpace: the obs registry must account
    # for every batched map the model prices (gauge returns to baseline,
    # one batch_pages sample per batch)
    probe = vspace_obs_probe(pages=64, batch=16)
    lines += [
        "",
        f"  real-VSpace obs probe: mapped {probe['pages']} pages in "
        f"batches of {probe['batch']}; batch_pages samples "
        f"{probe['batch_pages_recorded']}, gauge delta "
        f"{probe['mapped_pages_gauge_delta']}",
        "",
        "  paper shape: latency grows with contending cores "
        "(~5 us -> ~60 us at 28); verified closely matches unverified",
    ]
    report_lines(capsys, "Figure 1b — map latency", lines)

    write_bench_json("fig1b", {
        "impl_cost_ratio": round(calibration["ratio"], 3),
        "series": {
            str(cores): {
                "unverified_mean_us": round(
                    unverified[cores].latency.mean_us, 2),
                "verified_mean_us": round(verified[cores].latency.mean_us, 2),
                "verified_p99_us": round(verified[cores].latency.p99_us, 2),
            }
            for cores in CORE_COUNTS
        },
        "vspace_obs": probe,
    })

    # shape assertions: monotone growth, and verified within 60% of
    # unverified everywhere (the paper's 'closely match')
    u_means = [unverified[c].latency.mean_us for c in CORE_COUNTS]
    v_means = [verified[c].latency.mean_us for c in CORE_COUNTS]
    assert all(a < b for a, b in zip(u_means, u_means[1:]))
    for u_mean, v_mean in zip(u_means, v_means):
        assert abs(v_mean - u_mean) / u_mean < 0.6
