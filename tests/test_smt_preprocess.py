"""SatELite-style CNF preprocessor tests.

The load-bearing property is differential: for random small CNFs the
preprocessed problem must agree with brute force on satisfiability, and
every model found on the preprocessed clauses must — after
:meth:`PreprocessResult.model` reconstruction — satisfy the *original*
clauses, including clauses dropped by pure-literal elimination and
bounded variable elimination.
"""

import itertools
import random

from repro.smt.preprocess import (
    FINGERPRINT,
    CnfBuffer,
    ModelReconstructor,
    preprocess,
)
from repro.smt.sat import SatSolver


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause)
               for clause in clauses):
            return True
    return False


def check_model(model, clauses):
    for clause in clauses:
        assert any(model.get(abs(l), False) == (l > 0) for l in clause), \
            (clause, model)


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        lits = []
        for _ in range(size):
            var = rng.randint(1, num_vars)
            lits.append(var if rng.random() < 0.5 else -var)
        clauses.append(lits)
    return clauses


def solve_preprocessed(num_vars, clauses, frozen=(), assumptions=None):
    """Preprocess, then run CDCL on the residue; returns (sat, model-or-None)
    with the model reconstructed onto the original variables."""
    pre = preprocess(num_vars, clauses, frozen=frozen)
    if pre.unsat:
        return False, None
    solver = SatSolver()
    pre.load_into(solver)
    result = solver.solve(assumptions=assumptions)
    if not result.sat:
        return False, None
    return True, pre.model(result.model)


class TestDifferentialFuzz:
    def test_random_cnfs_agree_with_brute_force(self):
        rng = random.Random(11)
        for trial in range(300):
            num_vars = rng.randint(1, 8)
            clauses = random_cnf(rng, num_vars, rng.randint(1, 24))
            expected = brute_force_sat(num_vars, clauses)
            got, model = solve_preprocessed(num_vars, clauses)
            assert got == expected, (trial, clauses)
            if got:
                check_model(model, clauses)

    def test_equivalence_preserving_subset_is_equivalent(self):
        """With every variable frozen (no pure literals, no BVE) the reduced
        clause set plus the fixed units must be logically *equivalent* to
        the input — every total assignment satisfies one iff it satisfies
        the other."""
        rng = random.Random(7)
        for _ in range(120):
            num_vars = rng.randint(1, 6)
            clauses = random_cnf(rng, num_vars, rng.randint(1, 16))
            pre = preprocess(num_vars, clauses,
                             frozen=range(1, num_vars + 1))
            for bits in itertools.product([False, True], repeat=num_vars):
                def lit_true(l):
                    return bits[abs(l) - 1] == (l > 0)

                original_ok = all(any(lit_true(l) for l in c)
                                  for c in clauses)
                if pre.unsat:
                    reduced_ok = False
                else:
                    reduced_ok = (
                        all(bits[var - 1] == value
                            for var, value in pre.fixed.items())
                        and all(any(lit_true(l) for l in c)
                                for c in pre.clauses)
                    )
                assert original_ok == reduced_ok, (clauses, bits)

    def test_deterministic_counters(self):
        rng = random.Random(3)
        for _ in range(40):
            num_vars = rng.randint(2, 8)
            clauses = random_cnf(rng, num_vars, rng.randint(2, 20))
            first = preprocess(num_vars, clauses)
            second = preprocess(num_vars, [list(c) for c in clauses])
            assert first.stats.deterministic() == \
                second.stats.deterministic()
            assert first.clauses == second.clauses
            assert first.fixed == second.fixed


class TestFrozenVariables:
    def test_frozen_vars_survive_for_assumptions(self):
        """A frozen variable must stay queryable: solving the preprocessed
        clauses under the assumption `v` / `-v` must agree with brute force
        of the original plus that unit, for either polarity."""
        rng = random.Random(23)
        for _ in range(80):
            num_vars = rng.randint(2, 7)
            clauses = random_cnf(rng, num_vars, rng.randint(2, 18))
            target = rng.randint(1, num_vars)
            pre = preprocess(num_vars, clauses, frozen=[target])
            for polarity in (target, -target):
                expected = brute_force_sat(num_vars,
                                           clauses + [[polarity]])
                if pre.unsat or pre.fixed.get(target) == (polarity < 0):
                    got, model = False, None
                else:
                    solver = SatSolver()
                    pre.load_into(solver)
                    result = solver.solve(assumptions=[polarity])
                    got = result.sat
                    model = pre.model(result.model) if got else None
                assert got == expected, (clauses, polarity)
                if got:
                    check_model(model, clauses + [[polarity]])


class TestTechniques:
    def test_unit_propagation_fixes_chain(self):
        pre = preprocess(3, [[1], [-1, 2], [-2, 3]])
        assert not pre.unsat
        assert pre.fixed == {1: True, 2: True, 3: True}
        assert pre.clauses == []
        assert pre.stats.units_fixed == 3

    def test_root_conflict_is_unsat(self):
        pre = preprocess(2, [[1], [-1]])
        assert pre.unsat

    def test_pure_literal_satisfies_its_clauses(self):
        pre = preprocess(3, [[1, 2], [1, 3]])
        assert not pre.unsat
        assert pre.stats.pure_literals >= 1
        model = pre.model({})
        check_model(model, [[1, 2], [1, 3]])

    def test_frozen_pure_literal_not_dropped(self):
        pre = preprocess(3, [[1, 2], [1, 3]], frozen=[1, 2, 3])
        combined = pre.clauses + [[v if pre.fixed[v] else -v]
                                  for v in pre.fixed]
        assert combined, "frozen vars must keep their constraints"

    def test_subsumption_removes_superset(self):
        pre = preprocess(3, [[1, 2], [1, 2, 3]], frozen=[1, 2, 3])
        assert pre.stats.subsumed == 1
        assert pre.clauses == [[1, 2]]

    def test_self_subsumption_strengthens(self):
        pre = preprocess(3, [[1, 2], [-1, 2, 3]], frozen=[1, 2, 3])
        assert pre.stats.strengthened >= 1
        assert [2, 3] in [sorted(c) for c in pre.clauses]

    def test_variable_elimination_resolves(self):
        pre = preprocess(3, [[1, 2], [-1, 3]], frozen=[2, 3])
        assert pre.stats.eliminated_vars == 1
        assert [sorted(c) for c in pre.clauses] == [[2, 3]]

    def test_elimination_model_reconstruction(self):
        """The solver's residual model says nothing about an eliminated
        variable; reconstruction must pick the polarity that satisfies the
        dropped clauses."""
        clauses = [[1, 2], [-1, 3], [2, 3]]
        pre = preprocess(3, clauses, frozen=[2, 3])
        solver = SatSolver()
        pre.load_into(solver)
        result = solver.solve(assumptions=[-2])
        assert result.sat
        model = pre.model(result.model)
        check_model(model, clauses + [[-2]])


class TestBuildingBlocks:
    def test_cnf_buffer_ducktypes_solver_api(self):
        buffer = CnfBuffer()
        assert buffer.new_var() == 1
        buffer.ensure_vars(5)
        assert buffer.num_vars == 5
        buffer.add_clause([1, -2])
        assert buffer.clauses == [[1, -2]]

    def test_reconstructor_replays_in_reverse(self):
        rec = ModelReconstructor()
        rec.note_elimination(1, [[1, 2], [-1, 3]])
        rec.note_pure(-2)
        model = rec.extend({3: False})
        # pure -2 makes var 2 False, then var 1 must be True for [1, 2]
        assert model[2] is False
        assert model[1] is True

    def test_fingerprint_is_the_cache_key_text(self):
        """Proof-cache keys built before the knobs became constants must
        still match: the text is pinned byte for byte."""
        assert FINGERPRINT == ("up=1,pure=1,sub=1,ssub=1,bve=1,occ=10"
                               ",growth=0,rounds=12")
