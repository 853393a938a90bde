"""Proof-to-code ratio measurement (Section 5's headline metric).

The paper reports its page-table prototype at 10:1 proof-to-code.  Here the
"proof" is every line whose purpose is specification or verification — the
spec state machines, the interpretation function, the lemma and VC modules,
the verification framework, and the test suite — while "code" is the
executable implementation those proofs are about.

Classification is by module path, declared once in the layer map
(:data:`repro.analysis.layers.LAYER_MAP`) that also drives the
layering/erasure checker — :data:`CLASSIFICATION` is derived from it, so
the measured ratio and the machine-checked spec/proof/exec boundary
cannot drift apart.  The benchmark prints the measured ratio next to the
ratios the paper reports for seL4, CertiKOS, SeKVM, and Verve.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.analysis.layers import loc_classification

# (kind, path prefix relative to the repository root); first match wins.
# Derived from the shared layer map: spec/proof layers count as proof
# lines, exec as code, tooling as other (with per-entry overrides for
# e.g. the prover tooling and the runtime ownership checker).
CLASSIFICATION = loc_classification()


@dataclass
class LocReport:
    proof_lines: int = 0
    code_lines: int = 0
    other_lines: int = 0
    by_file: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.code_lines == 0:
            return 0.0
        return self.proof_lines / self.code_lines


def count_sloc(path: pathlib.Path) -> int:
    """Source lines of code: non-blank, non-comment-only lines."""
    count = 0
    in_docstring = False
    delimiter = None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_docstring:
            count += 1
            if delimiter in line:
                in_docstring = False
            continue
        if line.startswith("#"):
            continue
        count += 1
        for quote in ('"""', "'''"):
            if line.startswith(quote) or line.startswith(("r" + quote, "b" + quote)):
                body = line.split(quote, 1)[1]
                if quote not in body:
                    in_docstring = True
                    delimiter = quote
                break
    return count


def classify(relative: str) -> str:
    for kind, prefix in CLASSIFICATION:
        if relative.startswith(prefix):
            return kind
    return "other"


def measure(root: pathlib.Path | str | None = None) -> LocReport:
    """Measure the repository rooted at `root` (default: this repo)."""
    if root is None:
        root = pathlib.Path(__file__).resolve().parents[3]
    root = pathlib.Path(root)
    report = LocReport()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if any(part.startswith(".") for part in path.parts):
            continue
        kind = classify(relative)
        lines = count_sloc(path)
        report.by_file[relative] = (kind, lines)
        if kind == "proof":
            report.proof_lines += lines
        elif kind == "code":
            report.code_lines += lines
        else:
            report.other_lines += lines
    return report


def page_table_subset(root: pathlib.Path | str | None = None) -> LocReport:
    """The ratio restricted to the page-table artifact itself — the closest
    analogue of what the paper measured (its prototype, not its whole OS)."""
    full = measure(root)
    report = LocReport()
    proof_prefixes = ("src/repro/core/spec", "src/repro/core/refine",
                      "tests/test_refinement", "tests/test_pt_",
                      "tests/test_spec_")
    code_prefixes = ("src/repro/core/pt", "src/repro/hw/mmu.py",
                     "src/repro/hw/tlb.py", "src/repro/hw/mem.py")
    for relative, (kind, lines) in full.by_file.items():
        del kind
        if any(relative.startswith(p) for p in proof_prefixes):
            report.proof_lines += lines
            report.by_file[relative] = ("proof", lines)
        elif any(relative.startswith(p) for p in code_prefixes):
            report.code_lines += lines
            report.by_file[relative] = ("code", lines)
    return report
