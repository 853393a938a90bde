"""The proof engine: runs verification conditions and reports timing.

This is the harness behind Figure 1a.  The paper reports the CDF of the
verification times of 220 verification conditions, their maximum (11 s), and
the total (~40 s); :class:`ProofReport` computes exactly those quantities.

`ProofEngine.run()` is the simple serial loop; the scheduled, cached,
parallel discharge path lives in :mod:`repro.prover` and produces the same
:class:`ProofReport` (same contents, same order) regardless of job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.instruments import Histogram
from repro.verif.vc import VC, VCGroup, VCResult, VCStatus


@dataclass
class ProofReport:
    """Aggregated outcome of a proof-engine run."""

    results: list[VCResult] = field(default_factory=list)
    #: End-to-end wall-clock of the run that produced the report (set by the
    #: prover scheduler; 0.0 for plain serial `ProofEngine.run`).  Differs
    #: from `total_seconds` — the sum of per-VC times — once VCs are
    #: discharged concurrently or served from the cache.
    wall_seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def proved(self) -> int:
        return sum(1 for r in self.results if r.status is VCStatus.PROVED)

    @property
    def failed(self) -> list[VCResult]:
        return [r for r in self.results if r.status is not VCStatus.PROVED]

    @property
    def timeouts(self) -> list[VCResult]:
        return [r for r in self.results if r.status is VCStatus.TIMEOUT]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def all_proved(self) -> bool:
        return self.proved == self.total

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def solver_seconds(self) -> float:
        """Cumulative time inside the solving pipeline across all VCs."""
        return sum(r.solver_seconds for r in self.results)

    @property
    def max_seconds(self) -> float:
        return max((r.seconds for r in self.results), default=0.0)

    def histogram(self) -> Histogram:
        """The per-VC discharge-time population as the repo's one
        distribution type (:class:`repro.obs.instruments.Histogram`) —
        what the Figure 1a benchmark consumes."""
        hist = Histogram(name="vc.discharge_seconds")
        for r in self.results:
            hist.record(r.seconds)
        return hist

    def times(self) -> list[float]:
        return self.histogram().sorted_samples()

    def cdf(self, points: int = 50) -> list[tuple[float, float]]:
        """(seconds, cumulative fraction) pairs — the Figure 1a series,
        computed by the shared :meth:`Histogram.cdf` downsampler."""
        return self.histogram().cdf(points)

    def fraction_within(self, seconds: float) -> float:
        """Cumulative fraction of VCs verified within `seconds`."""
        return self.histogram().fraction_within(seconds)

    def solver_counters(self) -> dict[str, int]:
        """Machine-independent solver counters summed across every SMT
        result (booleans like ``decided_structurally`` count results).
        Deterministic for a fixed VC population and solver configuration —
        the quantity the perf-smoke CI job compares against its committed
        baseline."""
        totals: dict[str, int] = {}
        for r in self.results:
            for key, value in r.solver_stats.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def by_category(self) -> dict[str, list[VCResult]]:
        groups: dict[str, list[VCResult]] = {}
        for r in self.results:
            groups.setdefault(r.category, []).append(r)
        return groups

    def summary_lines(self) -> list[str]:
        timeouts = len(self.timeouts)
        lines = [
            f"verification conditions: {self.total}",
            f"proved: {self.proved}  failed: "
            f"{self.total - self.proved - timeouts}  timeout: {timeouts}",
            f"total verification time: {self.total_seconds:.2f} s",
            f"slowest verification condition: {self.max_seconds:.2f} s",
        ]
        if self.wall_seconds:
            lines.insert(3, f"wall-clock time: {self.wall_seconds:.2f} s "
                            f"(cumulative solver time: "
                            f"{self.solver_seconds:.2f} s)")
        if self.cache_hits:
            lines.append(f"proof-cache hits: {self.cache_hits}/{self.total} "
                         f"({self.cache_hits / self.total:.0%})")
        counters = self.solver_counters()
        if counters:
            lines.append(
                f"solver: {counters.get('sat_conflicts', 0)} conflicts, "
                f"{counters.get('decided_structurally', 0)} decided "
                f"structurally, {counters.get('decided_by_preprocessing', 0)} "
                f"by preprocessing, {counters.get('pre_eliminated_vars', 0)} "
                f"vars eliminated"
            )
        for category, results in sorted(self.by_category().items()):
            secs = sum(r.seconds for r in results)
            lines.append(
                f"  {category}: {len(results)} VCs, {secs:.2f} s"
            )
        return lines


class ProofEngine:
    """Collects VCs (in groups) and discharges them, recording times."""

    def __init__(self) -> None:
        self.groups: list[VCGroup] = []
        #: Optional (builder name, kwargs) pair saying which builder call
        #: produced this population — the provenance the proof cache keys
        #: structural (non-SMT) verdicts by.
        self.rebuild_spec: tuple[str, dict] | None = None

    def group(self, name: str) -> VCGroup:
        for g in self.groups:
            if g.name == name:
                return g
        g = VCGroup(name)
        self.groups.append(g)
        return g

    def add(self, vc: VC, group: str = "default") -> None:
        self.group(group).add(vc)

    @property
    def vc_count(self) -> int:
        return sum(len(g) for g in self.groups)

    def vcs(self) -> list[VC]:
        """Every VC in deterministic (insertion) order — the canonical
        order of `ProofReport.results` for both serial and parallel runs."""
        return [vc for group in self.groups for vc in group.vcs]

    def run(self, progress=None) -> ProofReport:
        """Discharge every VC serially.  `progress`, if given, is called
        with each :class:`VCResult` as it completes (used by the benchmark
        harness).  For the scheduled/cached/parallel path use
        :func:`repro.prover.prove_all`."""
        report = ProofReport()
        for vc in self.vcs():
            result = vc.discharge()
            report.results.append(result)
            if progress is not None:
                progress(result)
        return report
