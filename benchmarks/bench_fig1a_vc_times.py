"""Figure 1a: CDF of the verification times of all 220 verification
conditions, plus the total verification time and the slowest VC
(Section 5's "approximately 40 seconds" / "at most 11 seconds").

The population is discharged through the :mod:`repro.prover` scheduler
into a benchmark-local proof cache, so this module also measures the
proof-engineering loop the paper argues for: the cold run pays the full
Figure 1a cost, the warm re-verification run is served almost entirely
from the cache.
"""

import pytest

from benchmarks._common import report_lines, write_bench_json
from repro.core.refine.proof import build_proof
from repro.obs import Histogram
from repro.prover import ProofCache, prove_all

THRESHOLDS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 11.0)


def _build_population():
    engine = build_proof()
    assert engine.vc_count == 220
    return engine


@pytest.fixture(scope="module")
def proof_cache(tmp_path_factory):
    return ProofCache(str(tmp_path_factory.mktemp("proof-cache")))


@pytest.fixture(scope="module")
def proof_report(proof_cache):
    return prove_all(_build_population(), cache=proof_cache)


def test_fig1a_vc_time_cdf(benchmark, proof_report, capsys):
    """Regenerates Figure 1a's series: cumulative fraction of VCs verified
    within t seconds.  The population is one :class:`repro.obs.Histogram`
    (the same type behind Figures 1b and 1c), so the CDF, the percentiles,
    and the fraction-within thresholds all come from a single sample set."""
    report = proof_report
    population = report.histogram()

    def summarize():
        return [population.fraction_within(t) for t in THRESHOLDS]

    fractions = benchmark(summarize)

    assert isinstance(population, Histogram)
    assert len(population) == report.total
    # the report's own accessors are thin views over the same histogram
    assert report.cdf(points=20) == population.cdf(points=20)
    assert report.fraction_within(1.0) == population.fraction_within(1.0)

    lines = ["  t [s]   cumulative fraction"]
    for threshold, fraction in zip(THRESHOLDS, fractions):
        lines.append(f"  {threshold:5.2f}   {fraction:6.3f}")
    lines += [
        "",
        f"  verification conditions: {report.total} (paper: 220)",
        f"  proved: {report.proved}/{report.total}",
        f"  total verification time: {report.total_seconds:.1f} s "
        f"(paper: ~40 s)",
        f"  wall-clock: {report.wall_seconds:.1f} s "
        f"(cumulative solver: {report.solver_seconds:.1f} s)",
        f"  slowest VC: {report.max_seconds:.2f} s (paper: <= 11 s)",
        f"  p50 / p99 VC time: {population.percentile(50):.3f} s / "
        f"{population.percentile(99):.3f} s",
    ]
    by_category = sorted(
        (sum(r.seconds for r in results), name, len(results))
        for name, results in report.by_category().items()
    )
    lines.append("  time by proof layer:")
    for seconds, name, count in reversed(by_category):
        lines.append(f"    {name:20s} {count:4d} VCs  {seconds:7.2f} s")
    report_lines(capsys, "Figure 1a — verification-time CDF", lines)

    assert report.all_proved, [r.name for r in report.failed]


def test_fig1a_warm_cache_reverification(benchmark, proof_report,
                                         proof_cache, capsys):
    """The proof-engineering loop: re-verifying an unchanged system against
    the populated cache — every definitive verdict is a cache hit and the
    220-VC run collapses from minutes to seconds."""
    cold = proof_report  # ensures the cache is populated first

    def reverify():
        return prove_all(_build_population(), cache=proof_cache)

    warm = benchmark.pedantic(reverify, rounds=1, iterations=1,
                              warmup_rounds=0)

    hit_rate = warm.cache_hits / warm.total
    lines = [
        f"  cold run:  {cold.wall_seconds:7.2f} s wall "
        f"({cold.cache_hits}/{cold.total} cache hits)",
        f"  warm run:  {warm.wall_seconds:7.2f} s wall "
        f"({warm.cache_hits}/{warm.total} cache hits, "
        f"{hit_rate:.0%} hit rate)",
        f"  speedup:   {cold.wall_seconds / max(warm.wall_seconds, 1e-9):.0f}x",
    ]
    report_lines(capsys, "Warm-cache re-verification", lines)

    def timing_block(report):
        population = report.histogram()
        return {
            "p50_seconds": round(population.percentile(50), 4),
            "p99_seconds": round(population.percentile(99), 4),
            "total_seconds": round(report.total_seconds, 3),
            "wall_seconds": round(report.wall_seconds, 3),
        }

    write_bench_json("fig1a", {
        "total_vcs": cold.total,
        "cold": timing_block(cold),
        "warm": timing_block(warm),
        "cache_hit_rate": round(hit_rate, 3),
        "solver_counters": cold.solver_counters(),
    })
    assert warm.all_proved
    assert warm.total == cold.total
    assert hit_rate >= 0.9, f"warm-cache hit rate {hit_rate:.0%} < 90%"
    # Determinism: the warm report is bit-identical to the cold one.
    assert [r.key() for r in warm.results] == \
        [r.key() for r in cold.results]


def test_fig1a_single_vc_discharge(benchmark):
    """Micro-benchmark: discharging one representative SMT lemma (the
    per-VC cost the CDF is made of)."""
    from repro.core.refine.lemmas import address_lemmas

    lemma = next(vc for vc in address_lemmas()
                 if vc.name == "addr_no_carry_into_frame_SIZE_4K")
    result = benchmark(lemma.discharge)
    assert result.ok
