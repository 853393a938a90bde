"""A lightweight verification framework standing in for Verus.

The paper verifies NrOS with Verus: specifications are state machines,
implementations refine them, and the SMT solver discharges verification
conditions (VCs).  This package reproduces that structure with lightweight
formal methods:

* :mod:`repro.verif.statemachine` — specification state machines
* :mod:`repro.verif.vc` — verification-condition objects and results
* :mod:`repro.verif.engine` — the timed proof engine behind Figure 1a
* :mod:`repro.verif.explore` — bounded state-space exploration
* :mod:`repro.verif.refinement` — refinement obligations (simulation diagrams)
* :mod:`repro.verif.linear` — linear ownership tokens (data-race freedom)
"""

from repro.verif.vc import VC, VCResult, VCStatus
from repro.verif.engine import ProofEngine, ProofReport
from repro.verif.statemachine import SpecStateMachine, Transition

__all__ = [
    "VC",
    "VCResult",
    "VCStatus",
    "ProofEngine",
    "ProofReport",
    "SpecStateMachine",
    "Transition",
]
