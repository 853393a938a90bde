"""`repro.analysis` — verification-aware static analysis.

Six passes machine-check the boundaries the paper's argument rests on,
driven by one declarative layer map (:mod:`repro.analysis.layers`) that
also feeds the Section-5 proof-to-code ratio.  The four static passes
read the trees :func:`~repro.analysis.imports.parse_sources` parses once
per run:

* ``layering`` (:mod:`repro.analysis.imports`) — the layering /
  ghost-code-erasure checker over the AST import graph;
* ``purity`` (:mod:`repro.analysis.purity`) — the contract-purity lint
  for spec-layer functions (the syscall predicates and their ``SPECS``
  rows) and spec state machines, plus the bare-``print()`` console rule;
* ``rg`` (:mod:`repro.analysis.rg`) — the rely-guarantee interference
  checker: shared-state footprints against the actions
  :mod:`repro.verif.rgspec` declares;
* ``lockorder`` (:mod:`repro.analysis.lockorder`) — the static lock
  acquisition graph must be acyclic, same-class nesting ordered.

``deadsupp`` flags ``# repro: allow(<rule>)`` waivers that no longer
suppress a finding, and ``race`` replays the NR step protocol
(:mod:`repro.analysis.race`) and the SMP runqueue protocol
(:mod:`repro.analysis.sched_race`) under the adversarial interleaver
with a lockset + vector-clock detector.  Every checker has a seeded
mutant it must flag (:mod:`repro.analysis.mutants`).

Findings are structured (:mod:`repro.analysis.findings`), and the
tokenizer is the one reader of the allow-comment syntax.  ``python -m
repro analyze`` (:mod:`repro.analysis.cli`) is the entry point and CI
gate.
"""

from repro.analysis.findings import AnalysisReport, Finding
from repro.analysis.imports import ImportEdge, build_import_graph, \
    check_layering, discover_sources, parse_sources
from repro.analysis.layers import LAYER_MAP, classify_layer, \
    loc_classification, loc_kind
from repro.analysis.purity import check_purity
from repro.analysis.race import RaceMonitor, RaceReport, detect_races, \
    instrument, replay

__all__ = [
    "AnalysisReport",
    "Finding",
    "ImportEdge",
    "LAYER_MAP",
    "RaceMonitor",
    "RaceReport",
    "build_import_graph",
    "check_layering",
    "check_purity",
    "classify_layer",
    "detect_races",
    "discover_sources",
    "instrument",
    "loc_classification",
    "loc_kind",
    "parse_sources",
    "replay",
]
