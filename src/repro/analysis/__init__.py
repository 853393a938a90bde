"""`repro.analysis` — verification-aware static analysis.

Three passes machine-check the boundaries the paper's argument rests
on, driven by one declarative layer map (:mod:`repro.analysis.layers`)
that also feeds the Section-5 proof-to-code ratio:

* :mod:`repro.analysis.imports` — the layering / ghost-code-erasure
  checker over the AST import graph;
* :mod:`repro.analysis.purity` — the contract-purity lint for spec-layer
  functions (the syscall predicates and their ``SPECS`` rows) and spec
  state machines (plus the bare-``print()`` console rule);
* :mod:`repro.analysis.race` — the lockset + vector-clock race
  detector replaying the NR step protocol under the adversarial
  interleaver, with seeded mutants (:mod:`repro.analysis.mutants`) CI
  requires it to flag.

Findings are structured (:mod:`repro.analysis.findings`) with a
``# repro: allow(<rule>)`` suppression syntax; ``python -m repro
analyze`` (:mod:`repro.analysis.cli`) is the entry point and CI gate.
"""

from repro.analysis.findings import AnalysisReport, Finding, allowed_rules
from repro.analysis.imports import ImportEdge, build_import_graph, \
    check_layering, discover_sources
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
    "allowed_rules",
    "build_import_graph",
    "check_layering",
    "check_purity",
    "classify_layer",
    "detect_races",
    "discover_sources",
    "instrument",
    "loc_classification",
    "loc_kind",
    "replay",
]
