"""Tests for the repro.obs observability substrate.

Covers the histogram edge cases, span timing under both clock domains,
the event bus + JSONL schema, the registry, the console sink, and the
regression pins required by the refactor: ProofReport.cdf and
LatencyRecorder.percentile_ns must produce byte-identical numbers to the
shared obs.Histogram they now delegate to.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.obs.console import CapturedConsole, get_console, set_console
from repro.obs.events import EventBus, JsonlWriter, make_event
from repro.obs.instruments import Counter, Gauge, Histogram
from repro.obs.registry import Registry
from repro.obs.span import Span, sim_clock
from repro.sim.stats import LatencyRecorder


class TestCounterGauge:
    def test_counter_inc_add(self):
        c = Counter(name="c")
        c.inc()
        c.add(4)
        assert c.value == 5
        assert int(c) == 5

    def test_counter_rejects_negative(self):
        c = Counter(name="c")
        with pytest.raises(ValueError):
            c.add(-1)

    def test_gauge_high_water(self):
        g = Gauge(name="g")
        g.set(7)
        g.set(3)
        assert g.value == 3
        assert g.high_water == 7


class TestHistogramEdgeCases:
    def test_empty(self):
        h = Histogram(name="h")
        assert len(h) == 0
        assert h.cdf(10) == []
        assert h.mean == 0.0
        assert h.percentile(50) == 0  # empty population reports 0
        assert h.snapshot()["count"] == 0

    def test_single_sample(self):
        h = Histogram(name="h")
        h.record(42)
        assert h.percentile(0) == 42
        assert h.percentile(50) == 42
        assert h.percentile(100) == 42
        assert h.mean == 42
        assert h.cdf(4) == [(42, 1.0)]

    def test_p0_p100_extremes(self):
        h = Histogram(name="h")
        for v in [5, 1, 9, 3, 7]:
            h.record(v)
        assert h.percentile(0) == 1
        assert h.percentile(100) == 9
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_merge_of_disjoint(self):
        lo = Histogram(name="lo")
        hi = Histogram(name="hi")
        for v in range(10):
            lo.record(v)
        for v in range(100, 110):
            hi.record(v)
        lo.merge(hi)
        assert len(lo) == 20
        assert lo.min == 0 and lo.max == 109
        assert lo.percentile(0) == 0
        assert lo.percentile(100) == 109
        # merged population sorts correctly across the gap
        assert lo.sorted_samples()[9] == 9
        assert lo.sorted_samples()[10] == 100
        # the source histogram is untouched
        assert len(hi) == 10

    def test_cdf_points_validation(self):
        h = Histogram(name="h")
        h.record(1)
        with pytest.raises(ValueError):
            h.cdf(0)

    def test_cdf_is_monotone(self):
        h = Histogram(name="h")
        for v in range(100):
            h.record(v)
        curve = h.cdf(10)
        values = [v for v, _ in curve]
        fractions = [f for _, f in curve]
        assert values == sorted(values)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_fraction_within(self):
        h = Histogram(name="h")
        for v in [1, 2, 3, 4]:
            h.record(v)
        assert h.fraction_within(2) == 0.5
        assert h.fraction_within(0) == 0.0
        assert h.fraction_within(10) == 1.0


class TestDistributionRegression:
    """Satellite 1: one percentile/CDF implementation, not three.

    ProofReport and LatencyRecorder both delegate to obs.Histogram; pin
    that they produce identical numbers on the same population."""

    # a seed-VC-like population: heavy-tailed positive durations
    POPULATION = [((i * 2654435761) % 997) / 100.0 + 0.001
                  for i in range(220)]

    def test_latency_recorder_is_a_histogram(self):
        rec = LatencyRecorder()
        assert isinstance(rec, Histogram)

    def test_percentile_ns_matches_histogram(self):
        rec = LatencyRecorder()
        hist = Histogram(name="ref")
        for v in self.POPULATION:
            ns = int(v * 1000)
            rec.record(ns)
            hist.record(ns)
        for p in (0, 1, 25, 50, 75, 90, 99, 100):
            assert rec.percentile_ns(p) == hist.percentile(p)

    def test_proof_report_cdf_matches_histogram(self):
        from repro.verif.engine import ProofReport
        from repro.verif.vc import VCResult, VCStatus

        results = [
            VCResult(name=f"vc{i}", category="test",
                     status=VCStatus.PROVED, seconds=v)
            for i, v in enumerate(self.POPULATION)
        ]
        report = ProofReport(results=results)
        hist = Histogram(name="ref")
        for v in self.POPULATION:
            hist.record(v)
        for points in (1, 7, 50, 220, 500):
            assert report.cdf(points) == hist.cdf(points)
        for bound in (0.5, 2.0, 5.0):
            assert report.fraction_within(bound) == \
                hist.fraction_within(bound)


class TestEvents:
    def test_event_json_is_canonical(self):
        event = make_event("x", t=1.5, clock="wall", b=2, a=1)
        record = json.loads(event.to_json())
        assert record == {"name": "x", "t": 1.5, "clock": "wall",
                          "a": 1, "b": 2}
        # keys sorted, no spaces: deterministic byte output
        assert event.to_json() == \
            '{"a":1,"b":2,"clock":"wall","name":"x","t":1.5}'

    def test_make_event_rejects_non_scalar(self):
        with pytest.raises(TypeError):
            make_event("x", t=0.0, clock="wall", bad=[1, 2])

    def test_bus_off_by_default(self):
        bus = EventBus()
        assert not bus.active
        assert bus.emit("x", t=0.0) is None

    def test_bus_records_when_enabled(self):
        """A subscribed list is the recorder: it sees every event, in
        emission order, each one a valid trace record."""
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a", t=1.0)
        bus.emit("b", t=2.0, clock="sim")
        assert [(e.name, e.clock) for e in seen] == [
            ("a", "wall"), ("b", "sim")]
        for event in seen:
            assert obs.validate_jsonl_line(event.to_json()) == []

    def test_subscriber_activates_bus(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.active
        assert bus.emit("x", t=0.0) is seen[0]
        assert len(seen) == 1
        bus.unsubscribe(seen.append)
        assert not bus.active
        assert bus.emit("y", t=1.0) is None
        assert len(seen) == 1

    def test_jsonl_writer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        writer = JsonlWriter(str(path))
        bus.subscribe(writer)
        bus.emit("x", t=0.0, k="v")
        bus.emit("y", t=1.0)
        bus.unsubscribe(writer)
        writer.close()
        assert writer.count == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(obs.validate_jsonl_line(line) == [] for line in lines)


class TestSchemaValidation:
    def test_valid_record(self):
        assert obs.validate_record(
            {"name": "x", "t": 0.5, "clock": "wall"}) == []

    def test_invalid_records(self):
        assert obs.validate_record({"t": 0.0, "clock": "wall"})  # no name
        assert obs.validate_record(
            {"name": "", "t": 0.0, "clock": "wall"})             # empty name
        assert obs.validate_record(
            {"name": "x", "t": -1, "clock": "wall"})             # negative t
        assert obs.validate_record(
            {"name": "x", "t": 0.0, "clock": "tai"})             # bad clock
        assert obs.validate_record(
            {"name": "x", "t": True, "clock": "wall"})           # bool t
        assert obs.validate_record(
            {"name": "x", "t": 0.0, "clock": "wall",
             "f": [1]})                                          # non-scalar
        assert obs.validate_jsonl_line("not json")
        assert obs.validate_jsonl_line("[1,2]")


class TestSpans:
    def test_wall_span_records_to_histogram(self):
        hist = Histogram(name="h")
        with Span("op", histogram=hist):
            pass
        assert len(hist) == 1
        assert hist.samples[0] >= 0

    def test_sim_span_charges_virtual_ns(self):
        from repro.sim.kernel import Delay, Simulator

        sim = Simulator()
        hist = Histogram(name="h")
        clock = sim_clock(sim)

        def proc():
            span = Span("op", clock=clock, histogram=hist).start()
            yield Delay(123)
            yield Delay(7)
            span.finish()

        sim.spawn(proc())
        sim.run()
        assert hist.samples == [130]

    def test_span_emits_event_with_fields(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        t = iter([100, 250])
        span = Span("op", clock=lambda: next(t), bus=bus, core=3).start()
        elapsed = span.finish()
        assert elapsed == 150
        (event,) = seen
        assert event.name == "op"
        assert event.clock == "sim"
        assert event.get("dur") == 150
        assert event.get("core") == 3

    def test_wal_compaction_is_a_span_with_pinned_names(self):
        """Every compaction is one ``cluster.wal.compact`` event on the
        process-wide bus (what ``--trace`` / ``trace summary`` read) and
        one ``cluster.wal.compact_seconds`` sample on the deployment's
        registry, next to the ``cluster.wal.snapshot_bytes`` counter."""
        from repro.cluster.deploy import Deployment
        from repro.cluster.workload import WorkloadProfile, run_workload

        events = []
        sink = events.append
        obs.bus().subscribe(sink)
        try:
            registry = Registry()
            deployment = Deployment(3, rf=2, registry=registry, seed=1,
                                    compact_every=8)
            run_workload(deployment, WorkloadProfile(ops=120, seed=1))
        finally:
            obs.bus().unsubscribe(sink)
        spans = [e for e in events if e.name == "cluster.wal.compact"]
        compactions = {node_id: node.wal.compactions
                       for node_id, node in deployment.nodes.items()}
        assert len(spans) == sum(compactions.values()) > 0
        for event in spans:
            assert obs.validate_record(event.to_dict()) == []
            assert event.clock == "wall" and event.get("dur") >= 0
            assert event.get("node") in compactions
        for node_id, count in compactions.items():
            assert registry.histogram("cluster.wal.compact_seconds",
                                      node=node_id).count == count
            assert (registry.counter("cluster.wal.snapshot_bytes",
                                     node=node_id).value > 0) == (count > 0)
            assert registry.counter("cluster.wal_compact_failed",
                                    node=node_id).value == 0

    def test_traced_sim_run_is_deterministic(self):
        """Satellite 3: two identical sim-clocked runs produce identical
        JSONL traces — virtual time makes tracing reproducible."""
        from repro.nr.timed import TimedNrConfig, run_timed_workload

        def workload(core, i):
            return (("set", core * 100 + i, i), False)

        def traced_run():
            bus = EventBus()
            seen = []
            bus.subscribe(seen.append)
            cfg = TimedNrConfig(num_cores=4, ops_per_core=6)
            result = run_timed_workload(dict_factory, workload, cfg, bus=bus)
            return result, "".join(e.to_json() + "\n" for e in seen)

        def dict_factory():
            return _DictDs()

        first_result, first_trace = traced_run()
        second_result, second_trace = traced_run()
        assert first_trace == second_trace
        assert first_trace  # non-empty
        for line in first_trace.splitlines():
            record = json.loads(line)
            assert record["clock"] == "sim"
            assert isinstance(record["dur"], int)
        assert first_result.sim_ns == second_result.sim_ns
        assert first_result.latency.samples == second_result.latency.samples
        # every traced nr.op matches one recorded latency sample
        assert len(first_trace.splitlines()) == len(first_result.latency)


class _DictDs:
    def __init__(self):
        self.data = {}

    def apply(self, op):
        _, key, value = op
        self.data[key] = value
        return value

    def query(self, op):
        return self.data.get(op[1])


class TestRegistry:
    def test_labeled_lookup_is_stable(self):
        reg = Registry()
        a = reg.counter("hits", lane="inline")
        b = reg.counter("hits", lane="inline")
        c = reg.counter("hits", lane="proc")
        assert a is b
        assert a is not c
        a.inc()
        assert reg.counter("hits", lane="inline").value == 1

    def test_reset_zeroes_in_place(self):
        reg = Registry()
        counter = reg.counter("n")
        hist = reg.histogram("h")
        counter.inc()
        hist.record(5)
        reg.reset()
        # handles stay valid, values are zeroed
        assert counter.value == 0
        assert len(hist) == 0
        assert reg.counter("n") is counter

    def test_snapshot(self):
        reg = Registry()
        reg.counter("c").add(3)
        reg.gauge("g").set(2)
        reg.histogram("h").record(10)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == {"value": 2, "high_water": 2}
        assert snap["h"]["count"] == 1
        # labeled instruments render prometheus-style keys
        reg.counter("c", lane="x").add(1)
        assert reg.snapshot()["c{lane=x}"] == 1

    def test_global_registry_shorthands(self):
        obs.registry().reset()
        obs.counter("test.shorthand").inc()
        assert obs.counter("test.shorthand").value == 1
        obs.registry().reset()
        assert obs.counter("test.shorthand").value == 0


class TestConsole:
    def test_captured_console(self):
        captured = CapturedConsole()
        previous = get_console()
        set_console(captured)
        try:
            obs.console.out("hello")
            obs.console.out()
            obs.console.err("oops")
        finally:
            set_console(previous)
        assert captured.stdout_lines == ["hello", ""]
        assert captured.stderr_lines == ["oops"]

    def test_default_console_writes_to_stdout(self, capsys):
        obs.console.out("to stdout")
        obs.console.err("to stderr")
        out, err = capsys.readouterr()
        assert out == "to stdout\n"
        assert err == "to stderr\n"


class TestFaultCounters:
    def test_site_summary_backed_by_counters(self):
        from repro.faults.campaign import (OUTCOMES, CampaignReport,
                                           SiteReport)

        report = CampaignReport(name="t", seed=1)
        report.credit("disk.io", SiteReport(injected=2, degraded=1))
        row = report.sites["disk.io"]
        assert row == {"injected": 2, "survived": 1, "degraded": 1,
                       "failed": 0}
        for outcome in OUTCOMES:
            assert report.registry.counter(
                f"faults.{outcome}", site="disk.io").value == row[outcome]
        # survived is derived: more degraded than injected cannot credit
        with pytest.raises(ValueError):
            report.credit("disk.io", SiteReport(injected=1, degraded=2))

    def test_campaign_registries_are_independent(self):
        from repro.faults.campaign import CampaignReport, SiteReport

        first = CampaignReport(name="a", seed=1)
        second = CampaignReport(name="b", seed=1)
        first.credit("x", SiteReport(injected=5))
        assert first.sites["x"]["injected"] == 5
        assert second.sites == {}
        assert second.registry.counter(
            "faults.injected", site="x").value == 0


class TestCliTraceOnError:
    @pytest.mark.parametrize("command, target", [
        (["prove", "--layers", "lemmas", "--no-cache"],
         "repro.prover.prove_all"),
        (["faults", "--campaign", "mem", "--seed", "1"],
         "repro.faults.run_campaign"),
    ], ids=["prove", "faults"])
    def test_trace_is_closed_when_the_run_raises(self, tmp_path, monkeypatch,
                                                 command, target):
        """`--trace` unsubscribes and closes its writer even when the run
        raises, as `cluster`, `sched` and `analyze` already did."""
        from repro.__main__ import main

        def boom(*args, **kwargs):
            obs.bus().emit("before.raise")
            raise RuntimeError("boom")

        path = tmp_path / "trace.jsonl"
        bus = obs.bus()
        subscribers = list(bus._subscribers)
        monkeypatch.setattr(target, boom)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                main(command + ["--trace", str(path)])
            leaked = [s for s in bus._subscribers if s not in subscribers]
        finally:
            bus._subscribers[:] = subscribers
        assert leaked == []
        bus.emit("after.raise")
        lines = path.read_text().splitlines()
        assert all(obs.validate_jsonl_line(line) == [] for line in lines)
        names = [json.loads(line)["name"] for line in lines]
        assert "before.raise" in names and "after.raise" not in names


class TestCliImports:
    def test_trace_schema_imports_no_other_subcommands_layers(self):
        """`main` adds only the chosen subcommand's options, so `trace
        schema` never imports what `faults --campaign` and `prove
        --layers` take their choices from."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "trace",
             "schema"],
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
            capture_output=True, text=True, cwd=root, check=True)
        assert run.stdout.startswith("trace record schema")
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in run.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "repro.obs" in imported
        assert "repro.faults.campaign" not in imported
        assert "repro.core.refine.proof" not in imported
