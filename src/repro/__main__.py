"""``python -m repro`` — a one-screen tour, plus the prover CLI.

With no arguments: prints the related-work tables, the proof structure, and
runs a quick slice of the refinement proof so a new user sees the system do
something real in a few seconds.

``python -m repro prove --jobs N`` discharges the verification-condition
population under the scheduled/cached prover (:mod:`repro.prover`): VCs fan
out across N worker processes, longest-expected-first, and SMT verdicts are
served from / stored into the persistent proof cache so a re-verification
run only pays for what changed.

``python -m repro faults --campaign all --seed 1`` runs the deterministic
fault-injection campaign (:mod:`repro.faults`): seeded faults at the disk,
network link, allocator, and prover layers, with per-site
injected/survived/degraded/failed accounting and a nonzero exit on any
invariant violation.

``python -m repro analyze`` runs the verification-aware static analysis
(:mod:`repro.analysis`): the layering/ghost-code-erasure checker over
the import graph, the contract-purity lint, and the NR step-protocol
race detector — nonzero exit on any unsuppressed finding.

``--trace out.jsonl`` on any subcommand streams every
:mod:`repro.obs` event of the run — prover lifecycle, SMT-phase spans,
VC discharges, fault-site tallies — into one JSONL file;
``python -m repro trace {schema,validate,summary}`` works with such
files.  All human-facing text goes through :mod:`repro.obs.console`;
nothing under ``src/repro`` writes to stdout directly.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import resource
import sys

from repro import __version__, obs
from repro.obs.console import err, out


@contextlib.contextmanager
def _traced(path: str | None):
    """Stream every bus event of the block into `path` (JSONL), closing
    the file even when the block raises; no-op when `path` is None."""
    if path is None:
        yield
        return
    writer = obs.JsonlWriter(path)
    obs.bus().subscribe(writer)
    try:
        yield
    finally:
        obs.bus().unsubscribe(writer)
        writer.close()
        out(f"trace: {writer.count} events -> {writer.path}")


def tour() -> int:
    from repro.core.refine.proof import build_proof, proof_structure
    from repro.related.tables import table1, table2

    out(f"repro {__version__} — 'Beyond isolation' (HotOS '23) "
        f"reproduction\n")

    out("Table 1 — OS verification projects")
    for line in table1():
        out("  " + line)
    out("\nTable 2 — verified OS components")
    for line in table2():
        out("  " + line)

    out("\nFigure 2 — proof structure")
    for line in proof_structure():
        out("  " + line)

    engine = build_proof(include_structural=False)
    groups = ", ".join(group.name for group in engine.groups)
    out(f"\nQuick proof slice ({groups}: {engine.vc_count} VCs):")
    report = engine.run()
    out(f"  {report.proved}/{report.total} verification conditions "
        f"proved in {report.total_seconds:.1f} s")
    out("\nNext steps:")
    out("  python -m repro prove --jobs 4        # scheduled + cached")
    out("  python examples/quickstart.py")
    out("  python examples/verified_pagetable_proof.py   # all 220 VCs")
    out("  pytest benchmarks/ --benchmark-only           # every figure")
    return 0


def _proof_layers() -> list[str]:
    """The layers `prove --layers` names: `build_proof`'s `include_*`
    parameters, in signature order."""
    from repro.core.refine.proof import build_proof

    return [name.removeprefix("include_")
            for name in inspect.signature(build_proof).parameters
            if name.startswith("include_")]


def _layer_flags(layers: str) -> dict[str, bool]:
    """A `--layers` comma list as `build_proof` keywords: each layer
    sets its own `include_<layer>`, ``all`` sets every one."""
    known = _proof_layers()
    selected = {name for name in layers.split(",") if name}
    unknown = selected - {"all", *known}
    if unknown:
        raise SystemExit(f"unknown --layers {sorted(unknown)}; "
                         f"choose from {sorted({'all', *known})}")
    return {f"include_{name}": "all" in selected or name in selected
            for name in known}


def _peak_rss_mib(who: int) -> float:
    """`ru_maxrss` in MiB: of this process, or of the largest child
    waited for, such as a forked prover worker (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024


def prove(args) -> int:
    from repro.core.refine.proof import build_proof
    from repro.prover import ProofCache, ProverConfig, prove_all
    from repro.prover.cache import default_cache_dir

    with _traced(args.trace):
        engine = build_proof(**_layer_flags(args.layers))
        cache_dir = args.cache_dir or default_cache_dir()
        out(f"prover: {engine.vc_count} verification conditions, "
            f"jobs={args.jobs}, cache={'off' if args.no_cache else cache_dir}")

        cache = None
        config = ProverConfig(
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            preprocess=not args.no_preprocess,
            incremental=not args.no_incremental,
        )
        if args.budget is not None:
            config.budgets = (args.budget, 4 * args.budget, None)
        if not args.no_cache:
            cache = ProofCache(cache_dir)
            if args.clear_cache:
                removed = cache.clear()
                out(f"prover: cleared {removed} cached entries")

        done = {"count": 0}

        def progress(result):
            done["count"] += 1
            if not result.ok and result.status.value != "timeout":
                out(f"  FAILED {result.name}: {result.detail}")
            elif done["count"] % 40 == 0:
                out(f"  ... {done['count']}/{engine.vc_count}")

        report = prove_all(engine, jobs=args.jobs, cache=cache, config=config,
                           progress=progress)

        out()
        for line in report.summary_lines():
            out("  " + line)
        if cache is not None:
            out(f"  cache: {cache.stats.hits} hits, {cache.stats.misses} "
                f"misses, {cache.stats.stores} stored "
                f"({cache.stats.hit_rate:.0%} hit rate)")
        children = _peak_rss_mib(resource.RUSAGE_CHILDREN)
        out(f"  peak rss: {_peak_rss_mib(resource.RUSAGE_SELF):.1f} MiB"
            + (f", largest child (worker) {children:.1f} MiB" if children
               else ", no child process"))

        if args.events:
            out("\n  slowest discharges:")
            slowest = sorted(report.results,
                             key=lambda r: -r.seconds)[:args.events]
            for r in slowest:
                out(f"    {r.name:45s} {r.status.value:8s} "
                    f"{r.seconds:7.3f}s solver={r.solver_seconds:7.3f}s"
                    f"{'  [cache]' if r.cached else ''}")

    if args.min_hit_rate is not None:
        rate = report.cache_hits / report.total if report.total else 0.0
        if rate < args.min_hit_rate:
            err(f"prover: cache hit rate {rate:.0%} below required "
                f"{args.min_hit_rate:.0%}")
            return 3

    if not report.all_proved:
        return 1
    return 0


def _emit_site_events(reports) -> None:
    """Publish every campaign's per-site counters on the bus (the JSONL
    view of what `summary_lines` prints)."""
    bus = obs.bus()
    if not bus.active:
        return
    for report in reports:
        for name, row in sorted(report.sites.items()):
            bus.emit("faults.site", campaign=report.name, seed=report.seed,
                     site=name, **row)
        bus.emit("faults.campaign", campaign=report.name, seed=report.seed,
                 injections=report.injections,
                 violations=len(report.violations))


def faults(args) -> int:
    from repro.faults import run_campaign
    from repro.faults.campaign import summary_text

    # the trace closes before the determinism replay, which must not
    # double it
    with _traced(args.trace):
        out(f"faults: campaign={args.campaign} seed={args.seed}")
        reports = run_campaign(args.campaign, seed=args.seed)
        text = summary_text(reports)
        out(text)
        _emit_site_events(reports)

    if args.check_determinism:
        replay = summary_text(run_campaign(args.campaign, seed=args.seed))
        if replay != text:
            err("faults: NONDETERMINISM — replay with the same seed "
                "produced a different summary")
            return 2
        out("faults: replay with the same seed is byte-identical")

    if any(report.violations for report in reports):
        err("faults: invariant violations detected")
        return 1
    return 0


def cluster(args) -> int:
    """Run the sharded/replicated KV service end to end."""
    from repro.cluster import harness

    with _traced(args.trace):
        if args.wal_matrix:
            from repro.faults.cluster import run_wal_crash_matrix
            matrix = run_wal_crash_matrix(seed=args.seed)
            out(matrix.summary())
            for violation in matrix.violations:
                err(f"cluster: {violation}")
            return 0 if matrix.ok else 1
        profile = harness.default_profile(ops=args.ops, seed=args.seed)
        kill_at = args.kill_at
        if args.kill is not None and kill_at is None:
            kill_at = profile.ops // 3
        restart_at = None
        if args.restart_after is not None:
            if args.kill is None:
                err("cluster: --restart-after needs --kill")
                return 2
            restart_at = min(kill_at + args.restart_after,
                             profile.ops - 1)
        out(f"cluster: {args.nodes} nodes rf={args.replicas} "
            f"seed={args.seed} ops={profile.ops}"
            + (f" kill={args.kill}@op{kill_at}" if args.kill else "")
            + (f" restart@op{restart_at}" if restart_at is not None
               else ""))
        _, report = harness.run_cluster(
            num_nodes=args.nodes, rf=args.replicas, seed=args.seed,
            profile=profile, kill_at_op=kill_at, kill_node=args.kill,
            restart_at_op=restart_at)
        for line in report.summary_lines():
            out(line)
        if not report.ok:
            err("cluster: service contract violated")
            return 1
        if restart_at is not None and not report.recovery:
            err("cluster: restart requested but never happened")
            return 1
        for rec in report.recovery:
            if not rec["serving"]:
                err(f"cluster: {rec['node']} restarted but never "
                    f"returned to serving")
                return 1
        return 0


def sched(args) -> int:
    """Run the multi-class scheduler under the mixed workload."""
    from repro.nros.sched import workload

    with _traced(args.trace):
        profile = workload.WorkloadProfile(ticks=args.ticks)
        metrics = workload.run_workload(args.cores, profile,
                                        seed=args.seed,
                                        record_trace=args.switch_trace)
        trace_lines = metrics.pop("switch_trace", None)
        out(f"sched: {args.cores} cores seed={args.seed} "
            f"ticks={profile.ticks} ({profile.batch} batch + "
            f"{profile.interactive} interactive + {profile.rt} rt)")
        out(json.dumps(metrics, indent=2, sort_keys=True))
        if trace_lines is not None:
            for core, label in trace_lines:
                out(f"  core{core} -> {label}")
        return 0


def analyze(args) -> int:
    from repro.analysis import cli as analysis_cli

    with _traced(args.trace):
        return analysis_cli.main(args)


def trace(args) -> int:
    """Work with JSONL trace files: schema / validate / summary."""
    if args.trace_command == "schema":
        out("trace record schema (one JSON object per line):")
        for key, types in obs.SCHEMA_REQUIRED.items():
            names = "|".join(t.__name__ for t in types)
            out(f"  {key:<8} required  {names}")
        out(f"  clock    one of {list(obs.CLOCK_DOMAINS)}")
        out("  *        any further field must be a JSON scalar "
            "(str|int|float|bool|null)")
        out("span events carry `dur` (duration in the emitting clock's "
            "unit: wall seconds or simulated ns)")
        return 0

    problems_total = 0
    records = []
    try:
        with open(args.file, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        err(f"trace: cannot read {args.file}: {exc}")
        return 2
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        problems = obs.validate_jsonl_line(line)
        if problems:
            problems_total += 1
            for problem in problems:
                err(f"{args.file}:{lineno}: {problem}")
        else:
            records.append(json.loads(line))

    if args.trace_command == "validate":
        out(f"trace: {len(records)} valid records, "
            f"{problems_total} invalid lines")
        return 1 if problems_total else 0

    # summary
    counts: dict[str, int] = {}
    durations: dict[str, obs.Histogram] = {}
    for record in records:
        name = record["name"]
        counts[name] = counts.get(name, 0) + 1
        if "dur" in record:
            durations.setdefault(
                name, obs.Histogram(name=name)).record(record["dur"])
    out(f"trace: {len(records)} events, {len(counts)} event types"
        + (f", {problems_total} invalid lines skipped"
           if problems_total else ""))
    for name in sorted(counts):
        line = f"  {name:<24} {counts[name]:>6}"
        if name in durations:
            snap = durations[name].snapshot()
            line += (f"   dur mean={snap['mean']:.6g} "
                     f"p50={snap['p50']:.6g} p99={snap['p99']:.6g} "
                     f"max={snap['max']:.6g}")
        out(line)
    return 1 if problems_total else 0


def _trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="stream every obs event of the run "
                             "into FILE (JSONL)")


def _prove_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--layers", default="all",
                        help="comma list of layers: all,"
                             + ",".join(_proof_layers()))
    parser.add_argument("--cache-dir", default=None,
                        help="proof-cache directory "
                             "(default: $REPRO_PROOF_CACHE or "
                             "~/.cache/repro/proofs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent proof cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="drop cached verdicts before running")
    parser.add_argument("--budget", type=int, default=None,
                        help="first-attempt SMT conflict budget N: "
                             "the retry ladder becomes N, 4N, "
                             "unbounded")
    parser.add_argument("--no-preprocess", action="store_true",
                        help="disable the SatELite CNF preprocessor "
                             "(ablation)")
    parser.add_argument("--no-incremental", action="store_true",
                        help="disable family grouping / incremental "
                             "assumption solving (ablation)")
    parser.add_argument("--events", type=int, default=0, metavar="N",
                        help="print the N slowest discharges")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        help="exit 3 if the cache hit rate is below "
                             "this fraction (CI warm-cache check)")
    _trace_option(parser)


def _faults_options(parser: argparse.ArgumentParser) -> None:
    from repro.faults.campaign import CAMPAIGNS

    parser.add_argument("--seed", type=int, default=1,
                        help="fault-plan seed (default 1)")
    parser.add_argument("--campaign", default="all",
                        choices=[*CAMPAIGNS, "all"],
                        help="which layer to attack (default all)")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice and require byte-identical "
                             "summaries")
    _trace_option(parser)


def _analyze_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="analyze an alternate tree (expects "
                             "layer_map.json in DIR; default: this "
                             "repository)")
    parser.add_argument("--skip", default=None,
                        help="comma list of passes to skip: "
                             "layering,purity,rg,lockorder,"
                             "deadsupp,race")
    parser.add_argument("--seed", type=int, default=None,
                        help="replay the race detector under one "
                             "seed only (default: the seed sweep)")
    parser.add_argument("--max-steps", type=int, default=200_000,
                        help="race-replay step budget per schedule")
    parser.add_argument("--mutant", default=None, metavar="NAME",
                        help="analyze a seeded mutant (expected "
                             "to be flagged): reader-lock-elision, "
                             "writer-lock-elision, sched mutants, "
                             "or the rg interference mutants "
                             "pmem-free-unlocked / "
                             "buddy-split-no-merge-lock")
    parser.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="output format; json emits one "
                             "canonical schema-validated payload "
                             "on stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule id and exit")
    _trace_option(parser)


def _cluster_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=3,
                        help="storage nodes (default 3)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="replication factor (default 2)")
    parser.add_argument("--ops", type=int, default=2_000,
                        help="workload operations (default 2000)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload/placement seed (default 1)")
    parser.add_argument("--kill", default=None, metavar="NODE",
                        help="fail-stop NODE mid-workload "
                             "(e.g. node1)")
    parser.add_argument("--kill-at", type=int, default=None,
                        metavar="OP",
                        help="operation index for --kill "
                             "(default: a third into the run)")
    parser.add_argument("--restart-after", type=int, default=None,
                        metavar="OPS",
                        help="with --kill: restart the killed "
                             "node from its disk image OPS "
                             "operations after the kill")
    parser.add_argument("--wal-matrix", action="store_true",
                        help="run the full WAL write-boundary "
                             "crash-recovery matrix and exit")
    _trace_option(parser)


def _sched_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=4,
                        help="runqueue count (default 4)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1)")
    parser.add_argument("--ticks", type=int, default=6_000,
                        help="workload ticks (default 6000)")
    parser.add_argument("--switch-trace", action="store_true",
                        help="print the per-core context-switch "
                             "trace after the metrics")
    _trace_option(parser)


def _trace_options(parser: argparse.ArgumentParser) -> None:
    trace_sub = parser.add_subparsers(dest="trace_command", required=True)
    trace_sub.add_parser("schema", help="print the event record schema")
    validate_parser = trace_sub.add_parser(
        "validate", help="validate every line against the schema")
    validate_parser.add_argument("file")
    summary_parser = trace_sub.add_parser(
        "summary", help="per-event counts and span duration stats")
    summary_parser.add_argument("file")


#: subcommand -> (help, options, handler).  `main` adds the options of
#: the chosen subcommand only: some resolve their choices by importing a
#: layer (`prove --layers`, `faults --campaign`), and no other
#: subcommand should pay for that import.
COMMANDS = {
    "prove": ("discharge the VC population (scheduled + cached)",
              _prove_options, prove),
    "faults": ("run the deterministic fault-injection campaign",
               _faults_options, faults),
    "analyze": ("verification-aware static analysis (layering, purity, "
                "races)", _analyze_options, analyze),
    "cluster": ("run the sharded, replicated KV service over the verified "
                "OS", _cluster_options, cluster),
    "sched": ("run the multi-class scheduler under the mixed workload",
              _sched_options, sched),
    "trace": ("inspect/validate JSONL trace files", _trace_options, trace),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Beyond isolation' (HotOS '23)")
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, add_options, _) in COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        if argv[:1] == [name]:
            add_options(command_parser)

    args = parser.parse_args(argv)
    if args.command is None:
        return tour()
    _, _, run = COMMANDS[args.command]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
