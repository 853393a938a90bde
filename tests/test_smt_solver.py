"""End-to-end solver tests: validity, counterexamples, model soundness."""

import random

from repro.smt import ast, interp
from repro.smt.solver import (
    FAMILY_PREPROCESS_MIN_CLAUSES,
    FamilySolver,
    Solver,
    counterexample,
    prove,
)
from tests.test_smt_bitblast import random_term


class TestProve:
    def test_trivial_valid(self):
        x = ast.bv_var("x", 8)
        assert not prove(ast.eq(x, x)).sat  # valid => negation UNSAT

    def test_trivial_invalid(self):
        x = ast.bv_var("x", 8)
        result = prove(ast.eq(x, ast.bv_const(0, 8)))
        assert result.sat
        assert result.model["x"] != 0

    def test_add_commutes(self):
        x = ast.bv_var("x", 16)
        y = ast.bv_var("y", 16)
        assert counterexample(ast.eq(x + y, y + x)) is None

    def test_add_associates(self):
        x = ast.bv_var("x", 8)
        y = ast.bv_var("y", 8)
        z = ast.bv_var("z", 8)
        assert counterexample(ast.eq((x + y) + z, x + (y + z))) is None

    def test_sub_is_add_neg(self):
        x = ast.bv_var("x", 12)
        y = ast.bv_var("y", 12)
        assert counterexample(ast.eq(x - y, x + ast.bvneg(y))) is None

    def test_demorgan(self):
        x = ast.bv_var("x", 8)
        y = ast.bv_var("y", 8)
        goal = ast.eq(ast.bvnot(x & y), ast.bvnot(x) | ast.bvnot(y))
        assert counterexample(goal) is None

    def test_ult_total_order(self):
        x = ast.bv_var("x", 8)
        y = ast.bv_var("y", 8)
        goal = ast.or_(ast.ult(x, y), ast.ult(y, x), ast.eq(x, y))
        assert counterexample(goal) is None

    def test_wrong_lemma_gives_countermodel(self):
        x = ast.bv_var("x", 8)
        y = ast.bv_var("y", 8)
        # x - y == y - x is false in general
        goal = ast.eq(x - y, y - x)
        model = counterexample(goal)
        assert model is not None
        assert interp.evaluate(goal, model) is False

    def test_overflow_lemma(self):
        """x < x + 1 fails exactly at the max value — solver finds it."""
        x = ast.bv_var("x", 8)
        goal = ast.ult(x, x + ast.bv_const(1, 8))
        model = counterexample(goal)
        assert model == {"x": 0xFF}

    def test_guarded_overflow_lemma_valid(self):
        x = ast.bv_var("x", 8)
        guard = ast.ult(x, ast.bv_const(0xFF, 8))
        goal = ast.implies(guard, ast.ult(x, x + ast.bv_const(1, 8)))
        assert counterexample(goal) is None

    def test_alignment_lemma(self):
        """aligned(va, 4096) implies low 12 bits are zero."""
        va = ast.bv_var("va", 64)
        aligned = ast.eq(
            va & ast.bv_const(0xFFF, 64), ast.bv_const(0, 64)
        )
        low_zero = ast.eq(ast.extract(va, 11, 0), ast.bv_const(0, 12))
        assert counterexample(ast.implies(aligned, low_zero)) is None

    def test_page_offset_fits(self):
        """aligned base + offset < 4096 stays within the page (no carry
        into the frame bits)."""
        base = ast.bv_var("base", 64)
        off = ast.bv_var("off", 64)
        four_k = ast.bv_const(0x1000, 64)
        aligned = ast.eq(base & ast.bv_const(0xFFF, 64), ast.bv_const(0, 64))
        in_page = ast.ult(off, four_k)
        same_frame = ast.eq(
            (base + off) & ast.bv_const(0xFFFF_FFFF_FFFF_F000, 64),
            base & ast.bv_const(0xFFFF_FFFF_FFFF_F000, 64),
        )
        goal = ast.implies(ast.and_(aligned, in_page), same_frame)
        assert counterexample(goal) is None


class TestSolverApi:
    def test_multiple_assertions_conjunction(self):
        x = ast.bv_var("x", 8)
        s = Solver()
        s.add(ast.ult(ast.bv_const(10, 8), x))
        s.add(ast.ult(x, ast.bv_const(12, 8)))
        result = s.check()
        assert result.sat
        assert result.model["x"] == 11

    def test_unsat_conjunction(self):
        x = ast.bv_var("x", 8)
        s = Solver()
        s.add(ast.ult(x, ast.bv_const(5, 8)))
        s.add(ast.ult(ast.bv_const(10, 8), x))
        assert not s.check().sat

    def test_non_bool_assertion_rejected(self):
        s = Solver()
        try:
            s.add(ast.bv_var("x", 8))
        except TypeError:
            return
        raise AssertionError("expected TypeError")

    def test_empty_check_sat(self):
        assert Solver().check().sat

    def test_stats_structural(self):
        x = ast.bv_var("x", 8)
        result = prove(ast.eq(x, x))
        assert result.stats.decided_structurally

    def test_stats_cnf_counts(self):
        x = ast.bv_var("x", 8)
        y = ast.bv_var("y", 8)
        s = Solver()
        s.add(ast.eq(x * y, ast.bv_const(143, 8)))
        result = s.check()
        assert result.sat
        assert (result.model["x"] * result.model["y"]) & 0xFF == 143
        assert result.stats.cnf_vars > 0
        assert result.stats.cnf_clauses > 0

    def test_no_simplify_mode_still_sound(self):
        x = ast.bv_var("x", 16)
        y = ast.bv_var("y", 16)
        goal = ast.eq(x + y, y + x)
        assert not prove(goal, simplify=False).sat


def _square_expansion(k, width):
    """(x + k)^2 == x^2 + 2kx + k^2: valid, multiplier-deep."""
    x = ast.bv_var("x", width)
    c = ast.bv_const(k, width)
    s = ast.bvadd(x, c)
    rhs = ast.bvadd(ast.bvadd(ast.bvmul(x, x),
                              ast.bvmul(ast.bv_const(2 * k, width), x)),
                    ast.bvmul(c, c))
    return ast.eq(ast.bvmul(s, s), rhs)


class TestFamilySolver:
    def test_preprocessed_union_agrees_with_single_shot(self):
        """A family whose union CNF reaches the preprocessing gate: every
        member's verdict matches the single-shot path, and every model —
        repaired through variable elimination — satisfies the member's
        negated goal."""
        y = ast.bv_var("y", 10)
        goals = [ast.not_(_square_expansion(k, 10)) for k in (1, 2, 3)]
        goals += [ast.true(), ast.false(), ast.ult(y, ast.bv_const(3, 10)),
                  ast.ult(ast.bvand(y, ast.bv_const(7, 10)),
                          ast.bv_const(8, 10))]
        family = FamilySolver(goals)
        members = [family.prove_member(index) for index in range(len(goals))]
        for index, (goal, member) in enumerate(zip(goals, members)):
            assert member.sat == prove(goal).sat, index
            if member.sat:
                assert interp.evaluate(goal, member.model) is False
        assert [member.sat for member in members] == \
            [True, True, True, False, True, True, False]
        assert members[0].stats.cnf_clauses >= FAMILY_PREPROCESS_MIN_CLAUSES
        assert members[0].stats.pre_eliminated_vars > 0


class TestRandomEquivalence:
    """Random miters: solver verdict must agree with brute-force sampling."""

    def test_random_miters(self):
        from tests.test_smt_bitblast import LINEAR_OPS

        rng = random.Random(77)
        for _ in range(20):
            a = random_term(rng, 3, width=6, ops=LINEAR_OPS)
            b = random_term(rng, 3, width=6, ops=LINEAR_OPS)
            goal = ast.eq(a, b)
            # Brute-force ground truth over all 2^18 assignments is too
            # slow; use the solver and then *verify* its answer.
            result = prove(goal)
            if result.sat:
                assert interp.evaluate(goal, result.model) is False
            else:
                for _ in range(64):
                    env = {n: rng.randrange(64) for n in "abc"}
                    assert interp.evaluate(goal, env) is True
