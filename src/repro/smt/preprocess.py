"""SatELite-style CNF preprocessing (inprocessing) for the SAT layer.

The Tseitin encoding of an AIG cone is deliberately naive — three clauses
per AND gate, one auxiliary variable per node — which keeps the encoder
trivially correct but hands the CDCL loop thousands of variables whose
values are all *functionally determined* by the primary inputs.  This module
implements the classic SatELite reductions on the raw clause list before it
reaches the solver:

* **root unit propagation** — units are applied and their variables fixed;
* **pure-literal elimination** — a literal whose complement never occurs
  satisfies all its clauses for free;
* **subsumption** — a clause that is a superset of another is redundant;
* **self-subsuming resolution** — when ``C ∨ l`` and ``D ⊇ C ∨ {¬l}``,
  resolution strengthens ``D`` by deleting ``¬l``;
* **bounded variable elimination (BVE)** — a variable is resolved away when
  the set of non-tautological resolvents is no larger than the clauses it
  replaces (the NiVER bound).

Subsumption and self-subsumption are *equivalence*-preserving.  Pure-literal
elimination and BVE only preserve *satisfiability*; a model of the reduced
formula must be repaired before it can be read as a model of the original.
Every satisfiability-only step therefore pushes an entry onto a
:class:`ModelReconstructor` stack, and ``PreprocessResult.model()`` replays
the stack in reverse to extend a model of the output clauses into a model of
the input clauses — which is what keeps the SMT layer's concrete
re-evaluation gate satisfied for counterexamples that travel through
variable elimination.  Neither step touches a *frozen* variable, so freezing
every variable leaves only the equivalence-preserving reductions.

There is no configuration: every reduction always runs, bounded by the
constants below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


#: Skip BVE for variables occurring more often than this in either polarity
#: (SatELite's cheap-variable heuristic; resolving busy variables blows the
#: clause count up quadratically).
ELIM_OCCURRENCE_LIMIT = 10
#: How many more clauses than it removes an elimination may add (0 = the
#: NiVER "never grow" rule).
ELIM_GROWTH = 0
#: Fixpoint bound; each round runs every reduction once.
MAX_ROUNDS = 12

#: The preprocessor's part of the proof-cache solver configuration.  The
#: five ``=1`` fields name the reductions that once had switches; they stay
#: so that the text, and every cache key built from it, is unchanged.
FINGERPRINT = (f"up=1,pure=1,sub=1,ssub=1,bve=1,occ={ELIM_OCCURRENCE_LIMIT}"
               f",growth={ELIM_GROWTH},rounds={MAX_ROUNDS}")


@dataclass
class PreprocessStats:
    """Deterministic counters: a pure function of (clauses, frozen)."""

    clauses_in: int = 0
    clauses_out: int = 0
    vars_in: int = 0
    units_fixed: int = 0
    pure_literals: int = 0
    subsumed: int = 0
    strengthened: int = 0
    eliminated_vars: int = 0
    rounds: int = 0

    def deterministic(self) -> dict[str, int]:
        return {
            "pre_clauses_in": self.clauses_in,
            "pre_clauses_out": self.clauses_out,
            "pre_units": self.units_fixed,
            "pre_pure_literals": self.pure_literals,
            "pre_subsumed": self.subsumed,
            "pre_strengthened": self.strengthened,
            "pre_eliminated_vars": self.eliminated_vars,
        }


class CnfBuffer:
    """A clause sink duck-typing :class:`repro.smt.sat.SatSolver`'s
    construction API (``new_var`` / ``ensure_vars`` / ``add_clause``), so
    :func:`repro.smt.cnf.encode` can target it.  Unlike the solver it does
    no simplification — it just records the raw CNF for preprocessing."""

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = num_vars
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def ensure_vars(self, count: int) -> None:
        if count > self.num_vars:
            self.num_vars = count

    def add_clause(self, lits: list[int]) -> None:
        self.clauses.append(list(lits))


class ModelReconstructor:
    """Replays satisfiability-only eliminations onto a model.

    Entries are pushed in elimination order and replayed in reverse: when
    a step was applied to formula ``F`` yielding ``F'``, a model of ``F'``
    (already repaired for every *later* step) is extended to a model of
    ``F`` before the next-older entry runs.
    """

    def __init__(self) -> None:
        # ("pure", lit, []) or ("elim", var, saved original clauses)
        self._stack: list[tuple[str, int, list[list[int]]]] = []

    def __len__(self) -> int:
        return len(self._stack)

    def note_pure(self, lit: int) -> None:
        self._stack.append(("pure", lit, []))

    def note_elimination(self, var: int, clauses: list[list[int]]) -> None:
        self._stack.append(("elim", var, clauses))

    @staticmethod
    def _lit_true(model: dict[int, bool], lit: int) -> bool:
        value = model.get(abs(lit), False)
        return value if lit > 0 else not value

    def extend(self, model: dict[int, bool]) -> dict[int, bool]:
        """Extend `model` (of the preprocessed clauses) to satisfy every
        clause the eliminations removed."""
        model = dict(model)
        for kind, key, clauses in reversed(self._stack):
            if kind == "pure":
                # Every removed clause contained `key`; making it true
                # satisfies them all.
                model[abs(key)] = key > 0
                continue
            # BVE: the solver's value for `key` (if any) is unconstrained
            # noise — recompute it from the saved clauses.  Because every
            # non-tautological resolvent was added to the formula, at most
            # one polarity can have an otherwise-unsatisfied clause, so the
            # greedy rule below is total.
            value = False
            for clause in clauses:
                if key in clause and not any(
                    self._lit_true(model, lit) for lit in clause if lit != key
                ):
                    value = True
                    break
            model[key] = value
        return model


@dataclass
class PreprocessResult:
    """Outcome of :func:`preprocess`: an equisatisfiable clause set plus
    everything needed to map its models back onto the input."""

    num_vars: int
    clauses: list[list[int]]
    #: Root-level forced assignments (units and their consequences).
    fixed: dict[int, bool]
    unsat: bool
    reconstructor: ModelReconstructor
    stats: PreprocessStats

    def load_into(self, solver) -> int:
        """Feed the preprocessed problem into a solver-like object; returns
        the number of clauses loaded.  Fixed variables are re-emitted as
        unit clauses so incremental callers that later add cones mentioning
        those variables still see the constraint."""
        solver.ensure_vars(self.num_vars)
        if self.unsat:
            solver.add_clause([])
            return 1
        count = 0
        for var in sorted(self.fixed):
            solver.add_clause([var if self.fixed[var] else -var])
            count += 1
        for clause in self.clauses:
            solver.add_clause(list(clause))
            count += 1
        return count

    def model(self, sat_model: dict[int, bool]) -> dict[int, bool]:
        """Repair a model of `clauses` into a model of the input CNF."""
        full = dict(sat_model)
        full.update(self.fixed)
        return self.reconstructor.extend(full)


class _Db:
    """Mutable clause database with occurrence lists.

    Clauses live in a tombstoned list; `occur[lit]` holds the indices of
    live clauses containing `lit`.  All iteration that can influence the
    output walks indices / variables in sorted order, so the result is a
    deterministic function of the input.
    """

    def __init__(self, num_vars: int) -> None:
        self.num_vars = num_vars
        self.clauses: list[set[int] | None] = []
        self.occur: dict[int, set[int]] = {}
        self.assign: dict[int, bool] = {}
        self.unit_queue: deque[int] = deque()
        self.unsat = False
        self.eliminated: set[int] = set()

    # -- plumbing ----------------------------------------------------------

    def lit_value(self, lit: int):
        value = self.assign.get(abs(lit))
        if value is None:
            return None
        return value if lit > 0 else not value

    def add(self, lits) -> int | None:
        """Insert a clause (assumed tautology-free and deduped), simplifying
        it against the root assignment first; returns its index, or None for
        clauses that collapse to units/empties (routed to the unit queue /
        unsat flag) or are already satisfied."""
        if self.unsat:
            return None
        assign = self.assign
        cleaned: list[int] = []
        for lit in lits:
            value = assign.get(lit if lit > 0 else -lit)
            if value is not None:
                if value == (lit > 0):
                    return None  # satisfied at root
                continue  # falsified at root: drop literal
            cleaned.append(lit)
        if not cleaned:
            self.unsat = True
            return None
        if len(cleaned) == 1:
            self.enqueue_unit(cleaned[0])
            return None
        index = len(self.clauses)
        clause = set(cleaned)
        self.clauses.append(clause)
        occur = self.occur
        for lit in clause:
            entry = occur.get(lit)
            if entry is None:
                occur[lit] = {index}
            else:
                entry.add(index)
        return index

    def remove(self, index: int) -> None:
        clause = self.clauses[index]
        if clause is None:
            return
        for lit in clause:
            self.occur[lit].discard(index)
        self.clauses[index] = None

    def enqueue_unit(self, lit: int) -> None:
        value = self.lit_value(lit)
        if value is False:
            self.unsat = True
        elif value is None:
            self.assign[abs(lit)] = lit > 0
            self.unit_queue.append(lit)

    def live_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.clauses) if c is not None]


def _normalise(lits) -> list[int] | None:
    """Dedupe; returns None for tautologies."""
    seen: set[int] = set()
    for lit in lits:
        if -lit in seen:
            return None
        seen.add(lit)
    return sorted(seen)


def _propagate(db: _Db, stats: PreprocessStats, dirty: set[int]) -> None:
    """Apply queued root units to the clause database."""
    while db.unit_queue and not db.unsat:
        lit = db.unit_queue.popleft()
        stats.units_fixed += 1
        # Clauses satisfied by `lit` vanish; clauses containing the
        # complement lose a literal (and may become units themselves).
        for index in sorted(db.occur.get(lit, set())):
            db.remove(index)
        for index in sorted(db.occur.get(-lit, set())):
            clause = db.clauses[index]
            if clause is None:
                continue
            db.remove(index)
            remaining = clause - {-lit}
            new_index = db.add(remaining)
            if new_index is not None:
                dirty.add(new_index)


def _subsumption_round(db: _Db, stats: PreprocessStats,
                       dirty: set[int]) -> bool:
    """Forward subsumption + self-subsuming resolution to fixpoint over the
    `dirty` worklist.  Returns True if anything changed."""
    changed = False
    worklist = deque(sorted(dirty))
    dirty.clear()
    queued = set(worklist)
    while worklist:
        index = worklist.popleft()
        queued.discard(index)
        clause = db.clauses[index]
        if clause is None:
            continue
        # Cheapest literal first: candidates must contain every literal of
        # `clause`, so the smallest occurrence list bounds the scan.
        pivot = min(clause, key=lambda l: (len(db.occur.get(l, ())), l))
        for other_index in sorted(db.occur.get(pivot, set())):
            if other_index == index:
                continue
            other = db.clauses[other_index]
            if other is None or len(other) < len(clause):
                continue
            if clause <= other:
                db.remove(other_index)
                stats.subsumed += 1
                changed = True
        for lit in sorted(clause):
            # `clause` with `lit` flipped: any superset loses `-lit`.
            rest = clause - {lit}
            for other_index in sorted(db.occur.get(-lit, set())):
                other = db.clauses[other_index]
                if other is None or len(other) < len(clause):
                    continue
                if rest <= other:
                    db.remove(other_index)
                    strengthened = other - {-lit}
                    stats.strengthened += 1
                    changed = True
                    new_index = db.add(strengthened)
                    if new_index is not None and new_index not in queued:
                        worklist.append(new_index)
                        queued.add(new_index)
            if db.clauses[index] is None:
                break
        if db.unsat:
            break
    return changed


def _pure_literal_round(db: _Db, frozen: set[int], stats: PreprocessStats,
                        reconstructor: ModelReconstructor) -> bool:
    changed = False
    for var in range(1, db.num_vars + 1):
        if var in frozen or var in db.assign or var in db.eliminated:
            continue
        pos = db.occur.get(var, set())
        neg = db.occur.get(-var, set())
        if pos and not neg:
            pure = var
        elif neg and not pos:
            pure = -var
        else:
            continue
        reconstructor.note_pure(pure)
        db.eliminated.add(var)
        stats.pure_literals += 1
        changed = True
        for index in sorted(db.occur.get(pure, set())):
            db.remove(index)
    return changed


def _elimination_round(db: _Db, frozen: set[int], stats: PreprocessStats,
                       reconstructor: ModelReconstructor,
                       dirty: set[int]) -> bool:
    changed = False
    for var in range(1, db.num_vars + 1):
        if db.unsat:
            break
        if var in frozen or var in db.assign or var in db.eliminated:
            continue
        pos = sorted(db.occur.get(var, set()))
        neg = sorted(db.occur.get(-var, set()))
        if not pos and not neg:
            continue
        if len(pos) > ELIM_OCCURRENCE_LIMIT or len(neg) > ELIM_OCCURRENCE_LIMIT:
            continue
        resolvents: list[set[int]] = []
        budget = len(pos) + len(neg) + ELIM_GROWTH
        feasible = True
        # Both parents are tautology-free, so a resolvent is tautological
        # iff a literal of one side's rest clashes with the other side's.
        neg_rests = []
        for ni in neg:
            rest = db.clauses[ni] - {-var}
            neg_rests.append((rest, {-l for l in rest}))
        for pi in pos:
            pc_rest = db.clauses[pi] - {var}
            for nc_rest, nc_negated in neg_rests:
                if not pc_rest.isdisjoint(nc_negated):
                    continue  # tautology
                resolvents.append(pc_rest | nc_rest)
                if len(resolvents) > budget:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        saved = [sorted(db.clauses[i]) for i in pos + neg]
        reconstructor.note_elimination(var, saved)
        db.eliminated.add(var)
        stats.eliminated_vars += 1
        changed = True
        for index in pos + neg:
            db.remove(index)
        for resolvent in resolvents:
            new_index = db.add(resolvent)
            if new_index is not None:
                dirty.add(new_index)
    return changed


def preprocess(num_vars: int, clauses, frozen=()) -> PreprocessResult:
    """Reduce `clauses` (iterable of literal lists over vars ``1..num_vars``).
    Variables in `frozen` are never eliminated by a
    satisfiability-only technique, so their values in any model of the
    output are directly meaningful for the input — the SMT layer freezes
    the primary-input variables it lifts models from."""
    stats = PreprocessStats(vars_in=num_vars)
    reconstructor = ModelReconstructor()
    frozen_set = {abs(v) for v in frozen}
    db = _Db(num_vars)
    dirty: set[int] = set()

    for lits in clauses:
        stats.clauses_in += 1
        for lit in lits:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range")
        normalised = _normalise(lits)
        if normalised is None:
            continue  # tautology
        index = db.add(normalised)
        if index is not None:
            dirty.add(index)

    while not db.unsat:
        _propagate(db, stats, dirty)
        if db.unsat or stats.rounds >= MAX_ROUNDS:
            break
        stats.rounds += 1
        changed = _subsumption_round(db, stats, dirty)
        if db.unit_queue:
            continue  # strengthening produced units: re-propagate first
        changed |= _pure_literal_round(db, frozen_set, stats, reconstructor)
        changed |= _elimination_round(db, frozen_set, stats, reconstructor,
                                      dirty)
        if db.unit_queue:
            continue
        if not changed:
            break

    out_clauses = [sorted(db.clauses[i]) for i in db.live_indices()]
    stats.clauses_out = len(out_clauses)
    return PreprocessResult(
        num_vars=num_vars,
        clauses=out_clauses,
        fixed=dict(sorted(db.assign.items())),
        unsat=db.unsat,
        reconstructor=reconstructor,
        stats=stats,
    )
