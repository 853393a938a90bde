"""Tests for the repro.prover subsystem: fingerprints, the persistent
proof cache, the parallel scheduler, conflict-budget timeouts, and
determinism under parallelism."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro import obs
from repro.prover import (
    ProofCache,
    ProverConfig,
    goal_fingerprint,
    prove_all,
    term_fingerprint,
)
from repro.prover.fingerprint import (
    solver_config_fingerprint,
    structural_fingerprint,
)
from repro.prover.scheduler import ProverScheduler
from repro.smt import ast
from repro.verif.engine import ProofEngine
from repro.verif.vc import VC, VCStatus, discharge_single, forall_vc, smt_vc


def _goal_x_eq_x(width=8):
    x = ast.bv_var("x", width)
    return ast.eq(ast.bvand(x, ast.bv_const(0xF, width)),
                  ast.bvand(x, ast.bv_const(0xF, width)))


def _hard_goal(width=4):
    """(x + y)^2 == x^2 + 2xy + y^2 — valid, but needs real CDCL search
    (multipliers bit-blast into deep circuits), so a tiny conflict budget
    is exceeded deterministically; at width 4 the unbounded proof still
    lands in ~30 ms (width grows the search superlinearly — 8 bits is
    already ~40 s)."""
    x = ast.bv_var("x", width)
    y = ast.bv_var("y", width)
    s = ast.bvadd(x, y)
    lhs = ast.bvmul(s, s)
    two = ast.bv_const(2, width)
    rhs = ast.bvadd(ast.bvadd(ast.bvmul(x, x), ast.bvmul(y, y)),
                    ast.bvmul(two, ast.bvmul(x, y)))
    return ast.eq(lhs, rhs)


def _lemma_engine() -> ProofEngine:
    """A small, fast, fully reconstructible population: the SMT lemma
    layers of the real proof."""
    from repro.core.refine.proof import build_proof

    return build_proof(include_structural=False, include_nr=False,
                       include_contract=False)


#: The prover's lifecycle events, as published on the `repro.obs` bus.
LIFECYCLE = ("prover.queued", "prover.cache-hit", "prover.started",
             "prover.finished", "prover.run-finished")


def _traced_run(scheduler):
    """Run `scheduler` with a recorder subscribed to the bus; returns the
    report and the lifecycle events the run published, in order."""
    seen = []

    def record(event):
        if event.name in LIFECYCLE:
            seen.append(event)

    obs.bus().subscribe(record)
    try:
        report = scheduler.run()
    finally:
        obs.bus().unsubscribe(record)
    return report, seen


def _of(events, kind):
    """The ``prover.<kind>`` events among `events`."""
    return [event for event in events if event.name == f"prover.{kind}"]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_identical_goals_same_fingerprint(self):
        # Two separately constructed but structurally equal terms.
        assert term_fingerprint(_goal_x_eq_x()) == \
            term_fingerprint(_goal_x_eq_x())

    def test_mutated_goal_changes_fingerprint(self):
        x = ast.bv_var("x", 8)
        a = ast.eq(ast.bvadd(x, ast.bv_const(1, 8)), x)
        b = ast.eq(ast.bvadd(x, ast.bv_const(2, 8)), x)
        assert term_fingerprint(a) != term_fingerprint(b)

    def test_variable_name_matters(self):
        a = ast.eq(ast.bv_var("x", 8), ast.bv_const(0, 8))
        b = ast.eq(ast.bv_var("y", 8), ast.bv_const(0, 8))
        assert term_fingerprint(a) != term_fingerprint(b)

    def test_solver_config_changes_key(self):
        goal = _goal_x_eq_x()
        assert goal_fingerprint(goal, simplify=True) != \
            goal_fingerprint(goal, simplify=False)
        assert solver_config_fingerprint(True) != \
            solver_config_fingerprint(False)

    def test_structural_fingerprint_varies_by_identity(self):
        base = structural_fingerprint("b", {"depth": 3}, "vc1")
        assert base == structural_fingerprint("b", {"depth": 3}, "vc1")
        assert base != structural_fingerprint("b", {"depth": 2}, "vc1")
        assert base != structural_fingerprint("b", {"depth": 3}, "vc2")
        assert base != structural_fingerprint("other", {"depth": 3}, "vc1")


# ---------------------------------------------------------------------------
# Proof cache
# ---------------------------------------------------------------------------


class TestProofCache:
    def _run_twice(self, tmp_path, goal_builder):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", goal_builder))
        cold = prove_all(engine, cache=cache)

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", goal_builder))
        warm = prove_all(engine2, cache=cache)
        return cold, warm, cache

    def test_hit_on_identical_goal(self, tmp_path):
        cold, warm, cache = self._run_twice(tmp_path, _goal_x_eq_x)
        assert cold.cache_hits == 0 and cold.all_proved
        assert warm.cache_hits == 1 and warm.all_proved
        assert cache.stats.hits == 1

    def test_miss_after_goal_mutation(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        prove_all(engine, cache=cache)

        def mutated():
            x = ast.bv_var("x", 8)
            return ast.eq(ast.bvor(x, ast.bv_const(1, 8)), x)

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", mutated))
        warm = prove_all(engine2, cache=cache)
        assert warm.cache_hits == 0
        # ... and the mutated goal is genuinely refutable.
        assert warm.results[0].status is VCStatus.FAILED

    def test_miss_after_solver_config_change(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x, simplify=True))
        prove_all(engine, cache=cache)

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", _goal_x_eq_x, simplify=False))
        warm = prove_all(engine2, cache=cache)
        assert warm.cache_hits == 0 and warm.all_proved

    def test_corrupted_cache_file_is_cold_miss(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        prove_all(engine, cache=cache)

        entries = [os.path.join(root, name)
                   for root, _, files in os.walk(tmp_path)
                   for name in files
                   if name.endswith(".json") and name != "timings.json"]
        assert entries
        for path in entries:
            with open(path, "w") as fh:
                fh.write("{ this is not json")

        engine2 = ProofEngine()
        engine2.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        warm = prove_all(engine2, cache=cache)
        assert warm.cache_hits == 0 and warm.all_proved
        assert cache.stats.invalid >= 1
        # The corrupted entry was replaced by a fresh, valid one.
        engine3 = ProofEngine()
        engine3.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        assert prove_all(engine3, cache=cache).cache_hits == 1

    def test_wrong_schema_is_cold_miss(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        fp = "ab" * 32
        path = cache._path(fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"status": "proved"}, fh)  # missing vc/format/seconds
        assert cache.get(fp) is None
        assert cache.stats.invalid == 1

    def test_clear_removes_a_killed_writers_temp_file(self, tmp_path):
        """`_write_json` renames a `*.tmp` into place; a writer killed in
        between leaves the temp file, which `clear` removes without
        counting it as an entry."""
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        prove_all(engine, cache=cache)
        entries = [name for _, _, files in os.walk(tmp_path)
                   for name in files]
        assert entries and all(name.endswith(".json") for name in entries)
        stray = tmp_path / "ab" / "killed-writer.tmp"
        stray.parent.mkdir(exist_ok=True)
        stray.write_text("{")
        assert cache.clear() == len(entries)
        assert [files for _, _, files in os.walk(tmp_path) if files] == []

    def test_timeout_results_are_not_cached(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()
        engine.add(smt_vc("hard", "lemmas", _hard_goal))
        config = ProverConfig(budgets=(1,))
        report = prove_all(engine, cache=cache, config=config)
        assert report.results[0].status is VCStatus.TIMEOUT
        assert cache.stats.stores == 0

    def test_structural_results_cached_for_registered_builders(self, tmp_path):
        """A population is registered by carrying a `rebuild_spec`: the
        provenance its structural cache keys are made of."""
        def build():
            engine = ProofEngine()
            engine.rebuild_spec = ("test-structural-pop", {})
            engine.add(forall_vc("evens", "demo", range(0, 10, 2),
                                 lambda x: x % 2 == 0))
            return engine

        cache = ProofCache(str(tmp_path))
        cold = prove_all(build(), cache=cache)
        assert cold.all_proved and cold.cache_hits == 0
        warm = prove_all(build(), cache=cache)
        assert warm.all_proved and warm.cache_hits == 1

    def test_unregistered_structural_vcs_never_cached(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        engine = ProofEngine()  # no rebuild_spec
        engine.add(forall_vc("evens", "demo", [2, 4], lambda x: True))
        prove_all(engine, cache=cache)
        engine2 = ProofEngine()
        engine2.add(forall_vc("evens", "demo", [2, 4], lambda x: True))
        assert prove_all(engine2, cache=cache).cache_hits == 0


# ---------------------------------------------------------------------------
# Timeouts and the retry ladder
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_timeout_is_a_distinct_status(self):
        vc = smt_vc("hard", "lemmas", _hard_goal)
        result = vc.discharge(max_conflicts=1)
        assert result.status is VCStatus.TIMEOUT
        assert result.status is not VCStatus.FAILED
        assert result.counterexample is None
        assert "budget" in result.detail

    def test_timeout_surfaces_in_summary(self):
        from repro.verif.engine import ProofReport

        vc = smt_vc("hard", "lemmas", _hard_goal)
        report = ProofReport(results=[vc.discharge(max_conflicts=1)])
        assert len(report.timeouts) == 1
        assert any("timeout: 1" in line for line in report.summary_lines())

    def test_retry_ladder_eventually_proves(self):
        vc = smt_vc("hard", "lemmas", _hard_goal)
        spent = []
        discharge = vc.discharge

        def timed(**kwargs):
            result = discharge(**kwargs)
            spent.append((result.seconds, result.solver_seconds))
            return result

        vc.discharge = timed
        result, attempts = discharge_single(vc, (1, 4, None))
        assert result.status is VCStatus.PROVED
        assert attempts == len(spent) > 1   # final attempt unbounded
        assert result.seconds == pytest.approx(sum(s for s, _ in spent))
        assert result.solver_seconds == \
            pytest.approx(sum(s for _, s in spent))

    def test_hard_budget_reports_timeout(self):
        engine = ProofEngine()
        engine.add(smt_vc("hard", "lemmas", _hard_goal))
        config = ProverConfig(use_cache=False, budgets=(1, 4))
        report = prove_all(engine, config=config)
        assert report.results[0].status is VCStatus.TIMEOUT
        assert not report.all_proved

    def test_non_smt_vc_runs_once_whatever_the_ladder(self):
        calls = []
        engine = ProofEngine()
        engine.add(VC("counted", "demo", lambda: calls.append(1)))
        report, events = _traced_run(ProverScheduler(
            engine, config=ProverConfig(use_cache=False, budgets=(1, 4))))
        assert report.all_proved
        assert len(calls) == 1
        assert [e.get("attempt") for e in _of(events, "finished")] == [1]

    def test_cli_default_ladder_is_the_config_default(self, monkeypatch):
        """`prove` without --budget climbs `ProverConfig()`'s ladder — the
        default is written once; --budget N is N, 4N, unbounded."""
        from repro.__main__ import main
        from repro.verif.engine import ProofReport

        seen = []

        def spy(engine, jobs=1, cache=None, config=None, progress=None):
            seen.append(config)
            return ProofReport()

        monkeypatch.setattr("repro.prover.prove_all", spy)
        assert main(["prove", "--layers", "lemmas", "--no-cache"]) == 0
        assert main(["prove", "--layers", "lemmas", "--no-cache",
                     "--budget", "7"]) == 0
        assert seen[0].budgets == ProverConfig().budgets
        assert seen[1].budgets == (7, 28, None)

    def test_cli_layers_are_build_proofs_include_flags(self, capsys):
        """`--layers` names exactly `build_proof`'s `include_*`
        keywords: each layer sets its own flag, `all` sets every one, and
        an unknown name exits listing the valid ones."""
        import inspect

        from repro.__main__ import _layer_flags, main
        from repro.core.refine.proof import build_proof

        flags = [name for name in inspect.signature(build_proof).parameters
                 if name.startswith("include_")]
        layers = [flag.removeprefix("include_") for flag in flags]
        assert {"lemmas", "structural", "nr", "contract", "sched",
                "rg"} <= set(layers)
        for flag, layer in zip(flags, layers):
            assert _layer_flags(layer) == {f: f == flag for f in flags}
        assert _layer_flags("all") == dict.fromkeys(flags, True)
        assert _layer_flags("nr,all") == dict.fromkeys(flags, True)
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--layers", "lemmas,bogus", "--no-cache"])
        assert str(exc.value) == (f"unknown --layers ['bogus']; choose "
                                  f"from {sorted(['all', *layers])}")
        with pytest.raises(SystemExit):
            main(["prove", "--help"])
        assert "all," + ",".join(layers) in capsys.readouterr().out

    def test_cli_summary_reports_peak_rss(self, capsys):
        from repro.__main__ import main

        assert main(["prove", "--layers", "lemmas", "--no-cache"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "peak rss" in line]
        assert len(lines) == 1 and "MiB" in lines[0], lines


def _crash_at(operation: int) -> ProverConfig:
    from repro.faults.plan import FaultPlan, FaultRule

    plan = FaultPlan(1, rules=[FaultRule(site="prover.worker",
                                         kind="worker-crash", at=operation)])
    return ProverConfig(use_cache=False, fault_plan=plan)


class TestWorkerCrash:
    """The fault hook runs first on the one ladder: a crash is that VC's
    ERROR verdict on attempt 1, for a singleton and a family member
    alike."""

    def _run(self, engine, config):
        report, events = _traced_run(ProverScheduler(engine, config=config))
        attempts = {e.get("vc"): e.get("attempt")
                    for e in _of(events, "finished")}
        return report, attempts

    def test_singleton(self):
        engine = ProofEngine()
        engine.add(forall_vc("a", "demo", [1], lambda x: True))
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        report, attempts = self._run(engine, _crash_at(2))
        first, second = report.results
        assert first.ok
        assert second.status is VCStatus.ERROR
        assert second.detail == ("worker failed: WorkerCrash: injected "
                                 "crash discharging g")
        assert attempts == {"a": 1, "g": 1}

    def test_family_member_while_siblings_prove(self):
        engine = _family_engine()
        report, attempts = self._run(engine, _crash_at(2))
        assert [r.status for r in report.results] == [
            VCStatus.PROVED, VCStatus.ERROR, VCStatus.PROVED,
            VCStatus.PROVED]
        crashed = report.results[1]
        assert crashed.detail.startswith("worker failed: WorkerCrash: ")
        assert attempts[crashed.name] == 1


# ---------------------------------------------------------------------------
# The scheduler: events, ordering, determinism under parallelism
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_lifecycle_trace_shape_is_pinned(self, tmp_path):
        """What a `--trace` holds of a run, in order: each lifecycle
        event's name and key set, for a cold run of one SMT VC and one
        `forall_vc`, then a warm rerun that serves the SMT VC from the
        cache.  `t` never decreases within a run."""
        def engine():
            built = ProofEngine()
            built.add(smt_vc("g1", "lemmas", _goal_x_eq_x))
            built.add(forall_vc("f1", "demo", [1, 2], lambda x: x > 0))
            return built

        cache = ProofCache(str(tmp_path))
        runs = []
        for _ in range(2):
            _, events = _traced_run(ProverScheduler(engine(), cache=cache))
            times = [event.t for event in events]
            assert times == sorted(times)
            runs.append([(event.name, sorted(set(event.to_dict()) - {"t"}))
                         for event in events])

        vc = ["category", "clock", "name", "vc"]
        started = sorted(vc + ["worker"])
        finished = sorted(started + ["attempt", "dur", "solver_seconds",
                                     "status"])
        run_finished = ["clock", "dur", "name", "solver_seconds"]
        assert runs[0] == [
            ("prover.queued", vc), ("prover.queued", vc),
            ("prover.started", started), ("prover.finished", finished),
            ("prover.started", started), ("prover.finished", finished),
            ("prover.run-finished", run_finished)]
        assert runs[1] == [
            ("prover.queued", vc), ("prover.cache-hit", vc),
            ("prover.queued", vc),
            ("prover.started", started), ("prover.finished", finished),
            ("prover.run-finished", run_finished)]

    def test_event_stream_lifecycle(self, tmp_path):
        engine = ProofEngine()
        engine.add(smt_vc("g1", "lemmas", _goal_x_eq_x))
        engine.add(forall_vc("f1", "demo", [1, 2], lambda x: x > 0))
        cache = ProofCache(str(tmp_path))
        _, events = _traced_run(ProverScheduler(engine, cache=cache))
        counts = Counter(event.name for event in events)
        assert counts["prover.queued"] == 2
        assert counts["prover.started"] == 2
        assert counts["prover.finished"] == 2
        assert counts["prover.run-finished"] == 1

        # Warm run: the SMT VC becomes a cache-hit event instead.
        engine2 = ProofEngine()
        engine2.add(smt_vc("g1", "lemmas", _goal_x_eq_x))
        engine2.add(forall_vc("f1", "demo", [1, 2], lambda x: x > 0))
        _, events2 = _traced_run(ProverScheduler(engine2, cache=cache))
        counts2 = Counter(event.name for event in events2)
        assert counts2["prover.cache-hit"] == 1
        assert counts2["prover.started"] == 1

    def test_longest_expected_first_uses_history(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        cache.store_timings({"slow": 9.0, "fast": 0.001})
        engine = ProofEngine()
        engine.add(forall_vc("fast", "demo", [1], lambda x: True))
        engine.add(forall_vc("slow", "demo", [1], lambda x: True))
        _, events = _traced_run(ProverScheduler(engine, cache=cache))
        started = [e.get("vc") for e in _of(events, "started")]
        assert started == ["slow", "fast"]

    def test_report_order_matches_engine_order(self, tmp_path):
        engine = _lemma_engine()
        expected = [vc.name for vc in engine.vcs()]
        report = prove_all(engine, jobs=2,
                           cache=ProofCache(str(tmp_path)))
        assert [r.name for r in report.results] == expected
        assert report.wall_seconds > 0

    def test_determinism_jobs4_vs_jobs1(self):
        config1 = ProverConfig(use_cache=False)
        serial = prove_all(_lemma_engine(), jobs=1, config=config1)
        config4 = ProverConfig(use_cache=False)
        parallel = prove_all(_lemma_engine(), jobs=4, config=config4)

        assert [r.key() for r in serial.results] == \
            [r.key() for r in parallel.results]
        assert serial.proved == parallel.proved
        assert len(serial.failed) == len(parallel.failed)
        # Deterministic solver counters agree between lanes too.
        assert [r.solver_stats for r in serial.results] == \
            [r.solver_stats for r in parallel.results]

    def test_parallel_matches_serial_engine_run(self):
        engine = _lemma_engine()
        serial_report = engine.run()
        parallel = prove_all(_lemma_engine(), jobs=4,
                             config=ProverConfig(use_cache=False))
        assert [r.key() for r in serial_report.results] == \
            [r.key() for r in parallel.results]

    def test_warm_cache_full_population_hits(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        cold = prove_all(_lemma_engine(), jobs=2, cache=cache)
        assert cold.cache_hits == 0
        warm = prove_all(_lemma_engine(), jobs=2, cache=cache)
        assert warm.total == cold.total
        assert warm.cache_hits / warm.total >= 0.9
        assert [r.key() for r in warm.results] == \
            [r.key() for r in cold.results]

    def test_failed_vcs_keep_counterexamples_under_parallelism(self):
        engine = ProofEngine()
        engine.add(forall_vc("all_small", "demo", list(range(5)),
                             lambda x: x < 3))
        x = ast.bv_var("x", 8)
        engine.add(smt_vc("x_is_zero", "lemmas",
                          lambda: ast.eq(x, ast.bv_const(0, 8))))
        report = prove_all(engine, jobs=2,
                           config=ProverConfig(use_cache=False))
        by_name = {r.name: r for r in report.results}
        assert by_name["all_small"].status is VCStatus.FAILED
        assert by_name["all_small"].counterexample == 3
        assert by_name["x_is_zero"].status is VCStatus.FAILED
        assert by_name["x_is_zero"].counterexample  # a model for x != 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process lane needs fork")
    @pytest.mark.parametrize("rebuild_spec", [None, ("test-ad-hoc", {})],
                             ids=["ad-hoc", "rebuild-spec"])
    def test_forked_workers_discharge_the_vcs_the_parent_built(
            self, rebuild_spec):
        """Workers inherit the engine's own VC objects, so any population
        takes the process lane: names need not be unique, closures need
        not pickle, and a closure sees what its captured list held when
        the pool forked — with or without a `rebuild_spec`, nothing is
        rebuilt by name."""
        cases = [1, 2]
        engine = ProofEngine()
        engine.rebuild_spec = rebuild_spec
        engine.add(forall_vc("twin", "demo", lambda: cases, lambda x: x < 3))
        engine.add(forall_vc("twin", "demo", lambda: cases, lambda x: x > 0))
        engine.add(smt_vc("g", "lemmas", _goal_x_eq_x))
        cases.append(3)   # after the engine is built
        report, events = _traced_run(ProverScheduler(
            engine, config=ProverConfig(use_cache=False), jobs=2))
        lanes = {e.get("worker") for e in _of(events, "started")}
        assert lanes == {"proc"}
        assert [(r.name, r.status, r.counterexample)
                for r in report.results] == [
            ("twin", VCStatus.FAILED, 3),
            ("twin", VCStatus.PROVED, None),
            ("g", VCStatus.PROVED, None),
        ]

    def test_without_fork_the_run_stays_inline(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        reference = prove_all(_family_engine(), jobs=1,
                              config=ProverConfig(use_cache=False))
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        report, events = _traced_run(ProverScheduler(
            _family_engine(), config=ProverConfig(use_cache=False), jobs=4))
        lanes = {e.get("worker") for e in _of(events, "started")}
        assert lanes == {"inline"}
        assert [r.key() for r in report.results] == \
            [r.key() for r in reference.results]
        assert [r.solver_stats for r in report.results] == \
            [r.solver_stats for r in reference.results]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the process lane needs fork")
    def test_prove_all_takes_jobs_and_leaves_the_config_alone(self):
        """`jobs` is an argument of the run, not a field of the caller's
        config: `prove_all` neither reads it from `config` nor writes it
        there."""
        config = ProverConfig(use_cache=False)
        before = dict(vars(config))
        seen = []
        obs.bus().subscribe(seen.append)
        try:
            report = prove_all(_family_engine(), jobs=2, config=config)
        finally:
            obs.bus().unsubscribe(seen.append)
        assert report.all_proved
        assert vars(config) == before
        assert {e.get("worker") for e in _of(seen, "started")} == {"proc"}

    def test_worker_error_is_reported_not_raised(self):
        def boom():
            raise RuntimeError("kaput")

        engine = ProofEngine()
        engine.add(VC(name="bad", category="demo", check=boom))
        report = prove_all(engine, jobs=2,
                           config=ProverConfig(use_cache=False))
        assert report.results[0].status is VCStatus.ERROR
        assert "kaput" in report.results[0].detail


# ---------------------------------------------------------------------------
# The population, pinned: fingerprints and verdicts recorded at PR 18
# ---------------------------------------------------------------------------


def _full_engine() -> ProofEngine:
    from repro.core.refine.proof import build_proof

    return build_proof(include_sched=True, include_rg=True)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The solver source digest is held fixed: an edit under `repro.smt` moves
#: every goal key by design and is not what the pin is about.
GOAL_FINGERPRINT_PROBE = """
import hashlib, sys
sys.path.insert(0, 'src')
from repro.core.refine.proof import build_proof
from repro.prover import fingerprint as fp

fp.smt_code_digest = lambda: 'smt'
digest = hashlib.blake2b(digest_size=16)
goals = 0
for vc in build_proof(include_sched=True, include_rg=True).vcs():
    if vc.is_smt:
        goal = vc.goal_builder()
        goals += 1
        digest.update(f'{vc.name}:{fp.term_fingerprint(goal)}:'
                      f'{fp.family_fingerprint(goal)}:'
                      f'{fp.goal_fingerprint(goal, vc.simplify)}\\n'.encode())
print(goals, digest.hexdigest())
"""


ABLATION_ARMS_PROBE = """
import sys
sys.path.insert(0, 'src')
from repro.core.refine.proof import build_proof
from repro.prover import ProverConfig, prove_all

KEYS = ('sat_conflicts', 'cnf_clauses', 'cnf_clauses_preprocessed',
        'pre_eliminated_vars', 'aig_nodes')
for preprocess in (True, False):
    for incremental in (True, False):
        report = prove_all(
            build_proof(include_structural=False, include_nr=False,
                        include_contract=False),
            config=ProverConfig(use_cache=False, preprocess=preprocess,
                                incremental=incremental))
        counters = report.solver_counters()
        print(int(preprocess), int(incremental),
              *(counters.get(key, 0) for key in KEYS),
              hash(tuple((r.name, r.status.value) for r in report.results)))
"""


class TestPinnedPopulation:
    def test_goal_fingerprints(self):
        """Every cache and family key of the 80 SMT goals, from a fresh
        interpreter: `ast.and_` orders its arguments by interning id, so
        a goal's serialization depends on which terms the process built
        before it (a spurious cache miss at worst, never a wrong hit)."""
        out = subprocess.run(
            [sys.executable, "-c", GOAL_FINGERPRINT_PROBE],
            capture_output=True, text=True, cwd=ROOT, check=True).stdout
        assert out.split() == ["80", "98c0a901dffdc18dcd1940f8c76aedf8"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verdicts_and_solver_counters(self, jobs):
        report = prove_all(_full_engine(), jobs=jobs,
                           config=ProverConfig(use_cache=False))
        assert report.total == 270
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr([(r.name, r.category, r.status.value, r.detail)
                            for r in report.results]).encode())
        digest.update(repr(sorted(report.solver_counters().items()))
                      .encode())
        assert digest.hexdigest() == "559243c1ed3e3df34518220a32827fac"

    def test_ablation_arms(self):
        """The solver counters of all four (`preprocess`, `incremental`)
        arms over the 80 SMT lemmas, from a fresh interpreter (operand
        order depends on what the process interned before).  Only the
        non-incremental arm with preprocessing reaches the CNF
        preprocessor; every arm gives the same verdicts."""
        out = subprocess.run(
            [sys.executable, "-c", ABLATION_ARMS_PROBE],
            capture_output=True, text=True, cwd=ROOT, check=True).stdout
        rows = [line.split() for line in out.splitlines()]
        # preprocess, incremental: sat_conflicts, cnf_clauses,
        # cnf_clauses_preprocessed, pre_eliminated_vars, aig_nodes
        assert [row[:7] for row in rows] == [
            ["1", "1", "275", "19930", "19930", "0", "13019"],
            ["1", "0", "379", "14303", "12226", "413", "10757"],
            ["0", "1", "275", "19930", "19930", "0", "13019"],
            ["0", "0", "483", "14303", "14303", "0", "10757"],
        ]
        assert len({row[7] for row in rows}) == 1


# ---------------------------------------------------------------------------
# ProofReport.cdf downsampling (regression: `points` used to be ignored)
# ---------------------------------------------------------------------------


class TestReportCdf:
    def _report(self, n):
        from repro.verif.engine import ProofReport
        from repro.verif.vc import VCResult

        return ProofReport(results=[
            VCResult(name=f"vc{i}", status=VCStatus.PROVED,
                     seconds=float(i + 1), category="demo")
            for i in range(n)
        ])

    def test_downsamples_to_points(self):
        report = self._report(220)
        series = report.cdf(points=50)
        assert len(series) == 50
        # The final sample is always the slowest VC at fraction 1.0.
        assert series[-1] == (220.0, 1.0)
        # Fractions are non-decreasing.
        fractions = [f for _, f in series]
        assert fractions == sorted(fractions)

    def test_small_population_returned_whole(self):
        report = self._report(7)
        series = report.cdf(points=50)
        assert len(series) == 7
        assert series[-1] == (7.0, 1.0)

    def test_default_caps_at_50(self):
        assert len(self._report(220).cdf()) == 50

    def test_points_validated(self):
        with pytest.raises(ValueError):
            self._report(3).cdf(points=0)

    def test_empty_report(self):
        assert self._report(0).cdf() == []


# ---------------------------------------------------------------------------
# Family grouping / incremental assumption solving
# ---------------------------------------------------------------------------


def _family_goal(k, width=8):
    """One instantiation of a shared lemma template: (x | k) & k == k.
    Valid for every constant k; all instantiations share their AIG shape."""
    x = ast.bv_var("x", width)
    c = ast.bv_const(k, width)
    return ast.eq(ast.bvand(ast.bvor(x, c), c), c)


def _family_engine(constants=(0x0F, 0x3C, 0x55, 0xF0)) -> ProofEngine:
    engine = ProofEngine()
    for k in constants:
        engine.add(smt_vc(f"family_or_absorb_{k:#x}", "lemmas",
                          lambda k=k: _family_goal(k)))
    return engine


class TestFamilyGrouping:
    def test_same_shape_goals_share_a_fingerprint(self):
        from repro.prover.fingerprint import family_fingerprint

        fps = {family_fingerprint(_family_goal(k))
               for k in (0x0F, 0x3C, 0x55)}
        assert len(fps) == 1
        # a different template is a different family
        assert family_fingerprint(_goal_x_eq_x()) not in fps

    def test_family_discharge_matches_classic_verdicts(self):
        incremental = prove_all(
            _family_engine(),
            config=ProverConfig(use_cache=False, incremental=True))
        classic = prove_all(
            _family_engine(),
            config=ProverConfig(use_cache=False, incremental=False))
        assert incremental.all_proved
        assert [r.key() for r in incremental.results] == \
            [r.key() for r in classic.results]

    def test_lemma_population_identical_with_and_without_grouping(self):
        grouped = prove_all(
            _lemma_engine(),
            config=ProverConfig(use_cache=False, incremental=True))
        ungrouped = prove_all(
            _lemma_engine(),
            config=ProverConfig(use_cache=False, incremental=False))
        assert [r.key() for r in grouped.results] == \
            [r.key() for r in ungrouped.results]

    def test_family_reuse_counter_increments(self):
        from repro import obs

        counter = obs.counter("prover.family_reuse")
        before = counter.value
        report = prove_all(
            _family_engine(),
            config=ProverConfig(use_cache=False, incremental=True))
        assert report.all_proved
        # 4 members, 1 shared solver: 3 discharges reused a context
        assert counter.value - before == 3

    def test_failing_member_keeps_counterexample(self):
        """A family where one member is false: its model must survive the
        shared-solver path (reconstruction + concrete re-evaluation) while
        the true members still prove."""
        engine = _family_engine(constants=(0x0F, 0x3C))
        x = ast.bv_var("x", 8)
        bad = ast.eq(ast.bvand(ast.bvor(x, ast.bv_const(0x55, 8)),
                               ast.bv_const(0x55, 8)),
                     ast.bv_const(0x54, 8))  # never true
        engine.add(smt_vc("family_or_absorb_bad", "lemmas", lambda: bad))
        report = prove_all(
            engine, config=ProverConfig(use_cache=False, incremental=True))
        by_name = {r.name: r for r in report.results}
        assert by_name["family_or_absorb_0xf"].ok
        assert by_name["family_or_absorb_0x3c"].ok
        failed = by_name["family_or_absorb_bad"]
        assert failed.status is VCStatus.FAILED
        assert failed.counterexample is not None

    def test_jobs4_matches_jobs1_with_families(self):
        serial = prove_all(_family_engine(), jobs=1,
                           config=ProverConfig(use_cache=False))
        parallel = prove_all(_family_engine(), jobs=4,
                             config=ProverConfig(use_cache=False))
        assert [r.key() for r in serial.results] == \
            [r.key() for r in parallel.results]
        assert [r.solver_stats for r in serial.results] == \
            [r.solver_stats for r in parallel.results]

    def test_incremental_flag_changes_cache_key(self):
        goal = _goal_x_eq_x()
        assert goal_fingerprint(goal, incremental=True) != \
            goal_fingerprint(goal, incremental=False)
        assert goal_fingerprint(goal, preprocess=True) != \
            goal_fingerprint(goal, preprocess=False)

    def test_hard_family_sound_under_shared_solver(self):
        """A family needing real CDCL search: shared-solver verdicts must
        match single-shot verdicts member by member."""
        from repro.smt.solver import FamilySolver, prove

        def goal(k, width=4):
            x = ast.bv_var("x", width)
            c = ast.bv_const(k, width)
            s = ast.bvadd(x, c)
            lhs = ast.bvmul(s, s)
            two_c = ast.bv_const((2 * k) % (1 << width), width)
            rhs = ast.bvadd(ast.bvadd(ast.bvmul(x, x),
                                      ast.bvmul(two_c, x)),
                            ast.bvmul(c, c))
            return ast.eq(lhs, rhs)

        goals = [goal(k) for k in (1, 2, 3)]
        shared = FamilySolver(goals)
        for index, g in enumerate(goals):
            member = shared.prove_member(index)
            single = prove(g)
            assert member.sat == single.sat is False, index
