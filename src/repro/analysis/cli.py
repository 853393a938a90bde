"""``python -m repro analyze`` — run the verification-aware static
analysis passes and gate CI on the result.

Exit status (stable, CI scripts switch on it): 0 when every finding is
suppressed or absent, 1 on any active finding, 2 when the run itself
could not proceed (unknown pass or mutant).  The records of
:func:`repro.analysis.jsonreport.report_records` — ``analysis.finding``,
``.pass`` and ``.summary`` — are what ``--format json`` renders as one
canonical, schema-validated payload and what :mod:`repro.obs` carries,
so ``--trace out.jsonl`` holds exactly the same records.
"""

from __future__ import annotations

import json
import pathlib

from repro import obs
from repro.analysis.findings import (AnalysisReport, allow_comments,
                                     apply_suppressions, dead_suppressions)
from repro.analysis.imports import (check_layering, discover_sources,
                                    parse_sources)
from repro.analysis.purity import check_purity
from repro.analysis.race import detect_races
from repro.obs.console import err, out

PASSES = ("layering", "purity", "rg", "lockorder", "deadsupp", "race")

#: Passes whose findings suppression comments can waive.  The dead-
#: suppression lint only runs when all of them did: a waiver for a
#: skipped pass is not dead, just unexercised.
_STATIC_PASSES = ("layering", "purity", "rg", "lockorder")

#: Seeds replayed by the race pass.
RACE_SEEDS = tuple(range(16))


def repo_root() -> pathlib.Path:
    """The repository this installed package was loaded from."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parents[2]


def _load_layer_map(root: pathlib.Path):
    """A fixture tree carries its own map as layer_map.json:
    ``[[prefix, layer], ...]`` (optionally ``[prefix, layer, loc]``)."""
    path = root / "layer_map.json"
    if not path.exists():
        return None
    entries = json.loads(path.read_text(encoding="utf-8"))
    return [tuple(entry) for entry in entries]


def run_analysis(root=None, skip=(), seeds=None, max_steps: int = 200_000,
                 mutant: str | None = None) -> AnalysisReport:
    """Run the selected passes and return the combined report."""
    report = AnalysisReport()

    custom_root = root is not None
    root = pathlib.Path(root) if custom_root else repo_root()
    layer_map = _load_layer_map(root) if custom_root else None
    sources = discover_sources(root, None if layer_map else "src/repro")

    kind = payload = None
    if mutant is not None:
        from repro.analysis.mutants import MUTANTS, apply_rg_mutant

        if mutant not in MUTANTS:
            raise SystemExit(f"unknown --mutant {mutant!r}; choose from "
                             f"{sorted(MUTANTS)}")
        kind, payload = MUTANTS[mutant]
        if kind == "rg":
            sources = apply_rg_mutant(sources, mutant)

    trees, parse_errors = parse_sources(sources)
    report.extend(parse_errors)

    if "layering" not in skip:
        findings, stats = check_layering(trees, layer_map)
        report.extend(findings)
        report.stats["layering"] = stats

    if "purity" not in skip:
        findings, stats = check_purity(trees, layer_map)
        report.extend(findings)
        report.stats["purity"] = stats

    if "rg" not in skip:
        from repro.analysis.rg import check_interference

        findings, stats = check_interference(trees)
        report.extend(findings)
        if kind == "rg":
            stats["target"] = f"mutant:{mutant}"
        report.stats["rg"] = stats

    if "lockorder" not in skip:
        from repro.analysis.lockorder import check_lock_order

        findings, stats = check_lock_order(trees)
        report.extend(findings)
        report.stats["lockorder"] = stats

    allows = {path: allow_comments(text) for path, text in sources.items()}
    apply_suppressions(report.findings, allows)

    if "deadsupp" not in skip and not set(_STATIC_PASSES) & set(skip) \
            and kind != "rg":
        findings = dead_suppressions(report.findings, allows)
        report.extend(findings)
        report.stats["deadsupp"] = {"dead": len(findings)}

    if "race" not in skip:
        from repro.analysis.sched_race import detect_sched_races

        if seeds is None:
            seeds = RACE_SEEDS
        # a race-pass mutant replaces its protocol and runs alone; an rg
        # mutant is a static finding, so neither replay runs
        if kind in (None, "nr"):
            nr_factory = None
            if kind == "nr":
                from repro.nr.datastructures import KvStore

                nr_factory = lambda: payload(KvStore, num_nodes=2)  # noqa: E731
            _record_replay(report, "nr", mutant, detect_races(
                seeds, nr_factory=nr_factory, max_steps=max_steps))
        if kind in (None, "sched"):
            kwargs = {"protocol_cls": payload} if kind == "sched" else {}
            _record_replay(report, "sched", mutant,
                           detect_sched_races(seeds, **kwargs))
    return report


#: replay -> (stats stage, what a clean-tree race is attributed to, the
#: protocol's module, the module holding its mutants)
_REPLAYS = {
    "nr": ("race", "repro.nr protocol", "src/repro/nr/core.py",
           "src/repro/analysis/mutants.py"),
    "sched": ("race_sched", "repro.nros.sched protocol",
              "src/repro/nros/sched/smp.py",
              "src/repro/analysis/sched_race.py"),
}


def _record_replay(report, replay, mutant, race_report) -> None:
    """Fold one race replay's report into the analysis report."""
    from repro.analysis.findings import Finding

    stage, protocol, path, mutant_path = _REPLAYS[replay]
    source = f"mutant:{mutant}" if mutant else protocol
    for race in race_report.races:
        report.findings.append(Finding(
            rule="race.unordered-access",
            path=mutant_path if mutant else path, line=1,
            message=f"[{source}] {race.render()}"))
    report.stats[stage] = {
        "schedules": race_report.schedules,
        "steps": race_report.steps,
        "accesses": race_report.accesses,
        "races": len(race_report.races),
        "target": mutant or f"{replay}-protocol",
    }


def main(args) -> int:
    from repro.analysis.jsonreport import (EXIT_CLEAN, EXIT_ERROR,
                                           EXIT_FINDINGS, render_json,
                                           report_records)

    as_json = getattr(args, "format", "text") == "json"
    if args.list_rules:
        out("analysis rules:")
        for rule, text in sorted(RULES.items()):
            out(f"  {rule:<28} {text}")
        return 0

    skip = {name for name in (args.skip or "").split(",") if name}
    unknown = skip - set(PASSES)
    if unknown:
        err(f"unknown --skip {sorted(unknown)}; choose from "
            f"{sorted(PASSES)}")
        return EXIT_ERROR

    seeds = None
    if args.seed is not None:
        seeds = [args.seed]

    try:
        report = run_analysis(root=args.root, skip=skip, seeds=seeds,
                              max_steps=args.max_steps, mutant=args.mutant)
    except SystemExit as exc:          # unknown mutant and friends
        err(str(exc))
        return EXIT_ERROR
    bus = obs.bus()
    if bus.active:
        for record in report_records(report):
            bus.emit(**record)

    if as_json:
        out(render_json(report))
        return EXIT_CLEAN if report.clean else EXIT_FINDINGS

    for finding in report.findings:
        (out if finding.suppressed else err)("  " + finding.render())
    for line in report.summary_lines():
        out("analyze: " + line)

    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


#: rule id -> one-line description (for --list-rules and the README).
RULES = {
    "layering.spec-imports-exec":
        "a spec module imports the implementation it specifies",
    "layering.exec-imports-proof":
        "an exec module imports spec/proof at module level "
        "(breaks ghost-code erasure)",
    "layering.forbidden-import":
        "an import the layer map's allowed-imports matrix forbids",
    "ghost-import":
        "deferred spec/proof import from exec code without an explicit "
        "'# repro: allow(ghost-import)' marker",
    "erasure.exec-reaches-proof":
        "an exec module reaches the proof layer transitively at import "
        "time",
    "erasure.spec-reaches-exec":
        "a spec module reaches the implementation transitively at "
        "import time",
    "layers.unmapped":
        "a file the layer map does not classify",
    "purity.mutation":
        "a contract predicate or spec function mutates observable state",
    "purity.io":
        "a contract predicate or spec function performs I/O",
    "purity.nondeterminism":
        "a contract predicate or spec function reads a nondeterministic "
        "source (unseeded random, wall clock)",
    "console.bare-print":
        "bare print() outside repro.obs.console",
    "race.unordered-access":
        "two conflicting protocol step accesses (NR or SMP runqueue) "
        "with no happens-before edge and no common lock",
    "rg.unguarded-write":
        "a lock-guarded atomic action writes shared state outside its "
        "'with self.<lock>:' bracket",
    "rg.unguarded-read":
        "a lock-guarded atomic action reads shared state outside its "
        "lock bracket",
    "rg.undeclared-write":
        "an action writes shared state its declared guarantee does not "
        "cover",
    "rg.undeclared-read":
        "an action reads shared state outside its declared footprint",
    "rg.unspecified-action":
        "an undeclared method mutates shared state (interference the "
        "rely never admitted)",
    "rg.missing-action":
        "a declared atomic action has no matching method (the rg spec "
        "rotted)",
    "rg.nr-bypass":
        "code reaches through .replicas around the NR log outside the "
        "sanctioned accessors",
    "lockorder.cycle":
        "the static lock acquisition graph has a cycle (a deadlock-"
        "capable lock order)",
    "lockorder.unordered-same-class":
        "two locks of the same class nested without a sanctioned "
        "ordering (sorted acquisition)",
    "suppression.dead":
        "a '# repro: allow(rule)' comment that no longer suppresses "
        "any finding",
    "parse-error":
        "a source file failed to parse",
}
