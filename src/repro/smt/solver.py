"""User-facing SMT solving API.

Pipeline: term rewriting -> bit-blasting into an AIG (structural hashing) ->
Tseitin CNF of the output cone -> SatELite-style CNF preprocessing
(:mod:`repro.smt.preprocess`, above a size gate) -> CDCL SAT.  Models are
lifted back to a mapping from variable names to Python ints/bools and
re-checked against the concrete evaluator before being returned, so a buggy
lower layer — the preprocessor's model reconstruction included — can never
produce a bogus counterexample silently.

Each stage is written once, as a module-private helper (:func:`_lower`,
:func:`_load`, :func:`_search`, :func:`_lift`), and two entry points call
them:

* :class:`Solver` / :func:`prove` — the single-shot path: one goal, one
  solver, its output asserted.
* :class:`FamilySolver` — the incremental path: a *family* of
  structurally-similar goals lowered into one shared AIG, encoded
  unasserted into one CNF, loaded once into one CDCL instance, and each
  member solved under a per-goal assumption literal — so structural
  hashing, any preprocessing and learnt clauses are shared by the family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro import obs
from repro.smt import ast, interp, rewrite
from repro.smt.aig import FALSE, TRUE, node_of
from repro.smt.bitblast import BitBlaster
from repro.smt.cnf import CnfMapping, encode, output_literal
from repro.smt.preprocess import CnfBuffer, PreprocessResult, preprocess
from repro.smt.sat import SatResult, SatSolver, SatStats
from repro.smt.ast import Term


@dataclass
class SolverStats:
    """Breakdown of where solving time went, for the evaluation harness.

    The `*_seconds` fields are wall-clock and vary run to run; everything
    else is a deterministic function of the formula and the solver
    configuration, which is what the proof cache persists and what the
    determinism tests compare.
    """

    rewrite_seconds: float = 0.0
    blast_seconds: float = 0.0
    preprocess_seconds: float = 0.0
    sat_seconds: float = 0.0
    aig_nodes: int = 0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    #: Clauses actually loaded into the CDCL solver after preprocessing
    #: (equals `cnf_clauses` when preprocessing is disabled or skipped).
    cnf_clauses_preprocessed: int = 0
    decided_structurally: bool = False
    #: The preprocessor alone settled the query (root-level refutation or
    #: a clause set reduced to nothing) — no CDCL search was needed.
    decided_by_preprocessing: bool = False
    pre_units: int = 0
    pre_pure_literals: int = 0
    pre_subsumed: int = 0
    pre_strengthened: int = 0
    pre_eliminated_vars: int = 0
    sat_conflicts: int = 0
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_restarts: int = 0

    @property
    def solver_seconds(self) -> float:
        """Total time attributable to the solving pipeline itself."""
        return (self.rewrite_seconds + self.blast_seconds
                + self.preprocess_seconds + self.sat_seconds)

    def deterministic(self) -> dict[str, int | bool]:
        """The machine-independent counters (cacheable / comparable):
        every field but the wall-clock `*_seconds`."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.name.endswith("_seconds")}


@dataclass
class SolverResult:
    """Outcome of a `check()` call."""

    sat: bool
    model: dict[str, int | bool] = field(default_factory=dict)
    stats: SolverStats = field(default_factory=SolverStats)


class Solver:
    """An incremental-ish solver: collect assertions, then `check()`.

    `simplify=False` disables the rewriting pass and `preprocess=False` the
    CNF preprocessor (both used by the SMT ablation benchmark to quantify
    what each stage buys).
    """

    def __init__(self, simplify: bool = True, preprocess: bool = True) -> None:
        self._assertions: list[Term] = []
        self.simplify = simplify
        self.preprocess = preprocess

    def add(self, term: Term) -> None:
        if not term.sort.is_bool:
            raise TypeError(f"assertions must be Bool, got {term!r}")
        self._assertions.append(term)

    def check(self, max_conflicts: int | None = None) -> SolverResult:
        stats = SolverStats()
        original = ast.and_(*self._assertions) if self._assertions else ast.true()
        blaster = BitBlaster()
        formula, out = _lower(original, self.simplify, blaster, stats)
        if out in (TRUE, FALSE):
            return _decided(out == TRUE, original, stats)
        sat_solver = SatSolver()
        mapping, pre = _load(
            blaster, [out], sat_solver, stats, asserted=True,
            min_clauses=SINGLE_PREPROCESS_MIN_CLAUSES if self.preprocess
            else None)
        if pre is not None and pre.unsat:
            return SolverResult(sat=False, stats=stats)
        result = _search(sat_solver, stats, max_conflicts)
        if not result.sat:
            return SolverResult(sat=False, stats=stats)
        model = _lift(formula, original, blaster, mapping, pre, result.model)
        return SolverResult(sat=True, model=model, stats=stats)


#: Single-shot preprocessing only runs when the asserted cone's CNF is at
#: least this large.  Below it the cone is small enough that CDCL search on
#: the raw Tseitin clauses finishes before the preprocessor's occurrence
#: lists are even built; above it root unit propagation plus the reductions
#: shrink the instance faster than search explores it.  Measured on this
#: population: preprocessing is a wash or a small loss up to ~1.7k clauses
#: and wins >=2x from ~2k up (the hard square-expansion goals, ~6k clauses,
#: solve almost twice as fast preprocessed).
SINGLE_PREPROCESS_MIN_CLAUSES = 2048


#: Family-union preprocessing only runs when the union CNF is at least this
#: large.  Nothing is asserted in a family CNF, so there is no root unit
#: propagation to do the preprocessor's work for free (the thing that makes
#: single-shot preprocessing cheap): the reductions must grind through the
#: whole definitional clause set.  On small unions — where clause sharing
#: already makes each assumption solve nearly free — that grind costs more
#: than every member's search combined; it pays once CDCL search on the raw
#: union would dominate.  Measured crossover on this population sits between
#: ~2.4k clauses (preprocessing still loses) and ~6.4k (preprocessing wins
#: ~30%).
FAMILY_PREPROCESS_MIN_CLAUSES = 4096


def _lower(original: Term, simplify: bool, blaster: BitBlaster,
           stats: SolverStats) -> tuple[Term, int]:
    """Rewrite `original` and bit-blast it into `blaster`, adding both
    phases' span times to `stats`.  Returns the rewritten formula and its
    AIG output literal — `TRUE` / `FALSE` when rewriting or structural
    hashing already decided it (a constant formula is never blasted)."""
    with obs.span("smt.rewrite", histogram="smt.phase_seconds",
                  labels={"phase": "rewrite"}) as span:
        formula = rewrite.simplify(original) if simplify else original
    stats.rewrite_seconds += span.elapsed
    if formula.is_const:
        return formula, TRUE if formula.value else FALSE
    with obs.span("smt.blast", histogram="smt.phase_seconds",
                  labels={"phase": "blast"}) as span:
        out = blaster.blast_bool(formula)
    stats.blast_seconds += span.elapsed
    stats.aig_nodes = len(blaster.aig)
    return formula, out


def _load(blaster: BitBlaster, outputs: list[int], sat_solver: SatSolver,
          stats: SolverStats, *, asserted: bool, min_clauses: int | None,
          ) -> tuple[CnfMapping, PreprocessResult | None]:
    """Tseitin-encode the cones of `outputs` and load them into
    `sat_solver` — through :func:`preprocess` when the CNF has at least
    `min_clauses` clauses (None: never).

    `asserted` selects the caller's semantics.  An asserted (single-shot)
    output is a root unit, so an UNSAT preprocess is the verdict and
    nothing is loaded (the returned result says ``unsat``).  Unasserted
    (family) outputs are assumption literals, so their variables are frozen
    with the primary inputs, and an UNSAT preprocess is an internal error:
    definitional clauses are satisfiable by construction."""
    buffer = CnfBuffer()
    mapping = CnfMapping()
    for out in outputs:
        # Encoding extends the shared mapping: overlapping cones emit
        # their common nodes exactly once.
        encode(blaster.aig, [out], buffer, mapping=mapping,
               assert_outputs=asserted)
    stats.aig_nodes = len(blaster.aig)
    stats.cnf_vars = buffer.num_vars
    stats.cnf_clauses = mapping.num_clauses
    if min_clauses is None or len(buffer.clauses) < min_clauses:
        sat_solver.ensure_vars(buffer.num_vars)
        for clause in buffer.clauses:
            sat_solver.add_clause(clause)
        stats.cnf_clauses_preprocessed = len(buffer.clauses)
        return mapping, None

    # Primary inputs carry the lifted model bits; the preprocessor must not
    # resolve them away.
    frozen = [var for node, var in mapping.node_to_var.items()
              if blaster.aig.definition(node) is None]
    if not asserted:
        frozen += [abs(output_literal(mapping, out)) for out in outputs]
    with obs.span("smt.preprocess", histogram="smt.phase_seconds",
                  labels={"phase": "preprocess"}) as span:
        pre = preprocess(buffer.num_vars, buffer.clauses, frozen=frozen)
    stats.preprocess_seconds += span.elapsed
    stats.pre_units = pre.stats.units_fixed
    stats.pre_pure_literals = pre.stats.pure_literals
    stats.pre_subsumed = pre.stats.subsumed
    stats.pre_strengthened = pre.stats.strengthened
    stats.pre_eliminated_vars = pre.stats.eliminated_vars
    if pre.unsat and not asserted:
        raise RuntimeError(
            "internal solver error: unasserted family CNF preprocessed "
            "to UNSAT")
    stats.decided_by_preprocessing = pre.unsat or not pre.clauses
    if not pre.unsat:
        stats.cnf_clauses_preprocessed = pre.load_into(sat_solver)
    return mapping, pre


def _search(sat_solver: SatSolver, stats: SolverStats,
            max_conflicts: int | None, assumptions: list[int] | None = None,
            since: SatStats | None = None) -> SatResult:
    """Run CDCL and record in `stats` the solver's counters since the
    snapshot `since` (zero for a fresh solver, so clause loading counts;
    the shared solver's running totals before a family member's call)."""
    with obs.span("smt.sat", histogram="smt.phase_seconds",
                  labels={"phase": "sat"}) as span:
        result = sat_solver.solve(max_conflicts=max_conflicts,
                                  assumptions=assumptions)
    totals = sat_solver.stats
    since = since or SatStats()
    stats.sat_seconds = span.elapsed
    stats.sat_conflicts = totals.conflicts - since.conflicts
    stats.sat_decisions = totals.decisions - since.decisions
    stats.sat_propagations = totals.propagations - since.propagations
    stats.sat_restarts = totals.restarts - since.restarts
    return result


def _lift(formula: Term, original: Term, blaster: BitBlaster,
          mapping: CnfMapping, pre: PreprocessResult | None,
          sat_model: dict[int, bool]) -> dict[str, int | bool]:
    """Read a model of `original` off a SAT model of `formula`'s cone
    (repaired through the preprocessor's reconstruction stack when it ran),
    default the variables nothing constrains, and re-check it with the
    concrete evaluator."""
    if pre is not None:
        sat_model = pre.model(sat_model)
    model: dict[str, int | bool] = {}
    for var in ast.free_vars(formula):
        bits = blaster.var_bits(var.name)
        if bits is None:
            model[var.name] = False if var.sort.is_bool else 0
            continue
        values = []
        for lit in bits:
            sat_var = mapping.node_to_var.get(node_of(lit))
            values.append(False if sat_var is None
                          else sat_model.get(sat_var, False))
        if var.sort.is_bool:
            model[var.name] = values[0]
        else:
            model[var.name] = sum(1 << i for i, bit in enumerate(values)
                                  if bit)
    # Variables the simplifier eliminated are unconstrained: default them
    # so the model covers the *original* assertions.
    _complete(original, model)
    if interp.evaluate(original, model) is not True:
        raise RuntimeError(
            "internal solver error: SAT model fails concrete evaluation"
        )
    return model


def _complete(original: Term, model: dict[str, int | bool],
              ) -> dict[str, int | bool]:
    """Give every variable of `original` missing from `model` a default."""
    for var in ast.free_vars(original):
        if var.name not in model:
            model[var.name] = False if var.sort.is_bool else 0
    return model


def _decided(truth: bool, original: Term, stats: SolverStats) -> SolverResult:
    """A query settled structurally: when it is TRUE any assignment is a
    model."""
    stats.decided_structurally = True
    return SolverResult(sat=truth,
                        model=_complete(original, {}) if truth else {},
                        stats=stats)


class FamilySolver:
    """One shared solving context for a family of structurally-similar goals.

    Construction takes the *whole* family: every goal's negation is
    rewritten and bit-blasted into one shared AIG (structural hashing folds
    the parts the members have in common onto the same nodes), the union of
    the cones is Tseitin-encoded *unasserted* into one CNF, and that CNF is
    loaded once — preprocessed first when it reaches
    `FAMILY_PREPROCESS_MIN_CLAUSES`: full SatELite reductions, variable
    elimination included, with the primary inputs and every member's output
    variable frozen.  Each :meth:`prove_member` call then solves the shared
    CDCL instance under that member's single assumption literal, so learnt
    clauses carry over from member to member.

    Soundness: unasserted Tseitin cones constrain nothing on their own (the
    clauses are satisfiable definitions ``out_i <-> cone_i(inputs)``), so
    member `k`'s query answers exactly "is cone_k satisfiable?" — the same
    question the single-shot path asks.  Running the satisfiability-only
    preprocessing techniques here is sound because the clause set is
    *complete* before they run (nothing is added afterwards) and
    assumptions only touch frozen variables: bounded variable elimination
    is Davis–Putnam resolution, i.e. exact existential quantification — the
    reduced CNF is equivalent to the original over the surviving variables
    — and a model repaired through the reconstruction stack still passes
    the concrete re-evaluation gate.

    Per-member `SolverStats` report the shared context (AIG/CNF sizes and
    preprocessing counters are those of the union) plus *deltas* of the
    shared solver's cumulative SAT counters, so per-VC stats remain a
    deterministic function of the (ordered) family regardless of which
    scheduler lane runs it.
    """

    def __init__(self, goals: list[Term], simplify: bool = True,
                 preprocess: bool = True) -> None:
        self._blaster = BitBlaster()
        self._sat = SatSolver()
        self._base = SolverStats()
        # Per member: (output literal, rewritten formula, original); a
        # TRUE / FALSE output was settled before the CNF exists.
        self._members: list[tuple[int, Term, Term]] = []
        for goal in goals:
            original = ast.not_(goal)
            formula, out = _lower(original, simplify, self._blaster,
                                  self._base)
            self._members.append((out, formula, original))
        outputs = [out for out, _, _ in self._members
                   if out not in (TRUE, FALSE)]
        self._mapping, self._pre = _load(
            self._blaster, outputs, self._sat, self._base, asserted=False,
            min_clauses=FAMILY_PREPROCESS_MIN_CLAUSES if preprocess
            else None)

    @property
    def setup_seconds(self) -> float:
        """Wall-clock spent building the shared context (rewrite + blast +
        encode + preprocess) — the cost `prove_member` calls amortise."""
        return (self._base.rewrite_seconds + self._base.blast_seconds
                + self._base.preprocess_seconds)

    def __len__(self) -> int:
        return len(self._members)

    def prove_member(self, index: int,
                     max_conflicts: int | None = None) -> SolverResult:
        """Attempt to prove member `index`'s goal valid (sat=False) or
        refute it with a model of its negation (sat=True), under the shared
        family context.  Calls may repeat (the scheduler's retry ladder) —
        clauses learnt during a failed attempt still help the next one."""
        out, formula, original = self._members[index]
        # Each member carries the shared-context counters verbatim and a
        # 1/N share of the shared setup time, so summing members' solver
        # seconds over the family counts the setup exactly once.
        share = 1.0 / len(self._members)
        stats = replace(
            self._base,
            rewrite_seconds=self._base.rewrite_seconds * share,
            blast_seconds=self._base.blast_seconds * share,
            preprocess_seconds=self._base.preprocess_seconds * share,
        )
        if out in (TRUE, FALSE):
            return _decided(out == TRUE, original, stats)

        assumption = output_literal(self._mapping, out)
        if (self._pre is not None
                and self._pre.fixed.get(abs(assumption)) == (assumption < 0)):
            # Root propagation already refuted this cone's output.
            stats.decided_by_preprocessing = True
            return SolverResult(sat=False, stats=stats)
        result = _search(self._sat, stats, max_conflicts, [assumption],
                         since=replace(self._sat.stats))
        if not result.sat:
            return SolverResult(sat=False, stats=stats)
        model = _lift(formula, original, self._blaster, self._mapping,
                      self._pre, result.model)
        return SolverResult(sat=True, model=model, stats=stats)


def prove(
    goal: Term, simplify: bool = True, max_conflicts: int | None = None,
    preprocess: bool = True
) -> SolverResult:
    """Attempt to prove `goal` valid: returns sat=False when proved
    (the negation is unsatisfiable), else a counterexample model.

    `max_conflicts` bounds the CDCL search; exceeding it raises
    :class:`repro.smt.sat.BudgetExceeded` — the prover's per-VC "timeout"
    mechanism, expressed as a deterministic conflict budget rather than a
    wall-clock deadline so results do not depend on machine speed or job
    count."""
    solver = Solver(simplify=simplify, preprocess=preprocess)
    solver.add(ast.not_(goal))
    return solver.check(max_conflicts=max_conflicts)


def counterexample(goal: Term) -> dict[str, int | bool] | None:
    """None when `goal` is valid, otherwise a falsifying assignment."""
    result = prove(goal)
    if result.sat:
        return result.model
    return None
