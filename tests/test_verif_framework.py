"""Tests for state machines, exploration, refinement, and the proof engine."""

import pytest

from repro.smt import ast
from repro.verif.engine import ProofEngine
from repro.verif.explore import check_inductive, reachable_states
from repro.verif.refinement import RefinementProof, SimulationCase
from repro.verif.statemachine import SpecStateMachine, Transition
from repro.verif.vc import VC, VCStatus, forall_vc, smt_vc


def counter_machine(limit=5, stride=1):
    """A bounded counter: inc when below limit, reset anytime."""
    return SpecStateMachine(
        name="counter",
        init_states=[0],
        transitions=[
            Transition(
                name="inc",
                enabled=lambda s, a: s < limit,
                apply=lambda s, a: s + stride,
            ),
            Transition(
                name="reset",
                enabled=lambda s, a: True,
                apply=lambda s, a: 0,
            ),
        ],
        invariants={"bounded": lambda s: 0 <= s <= limit},
    )


class Counted:
    """A state that counts how often it is hashed."""

    def __init__(self, value):
        self.value = value
        self.hashes = 0

    def __eq__(self, other):
        return isinstance(other, Counted) and self.value == other.value

    def __hash__(self):
        self.hashes += 1
        return hash(self.value)

    def __repr__(self):
        return f"Counted({self.value})"


def counted_machine(**invariants):
    """Counters mod 12 under inc, double and reset: most successors equal
    a state discovered earlier.  `made` lists every successor built."""
    made = []

    def apply(update):
        def fire(s, a):
            made.append(Counted(update(s.value)))
            return made[-1]
        return fire

    machine = SpecStateMachine(
        name="counted", init_states=[Counted(0)],
        transitions=[Transition(name, lambda s, a: True, apply(update))
                     for name, update in (("inc", lambda v: (v + 1) % 12),
                                          ("dbl", lambda v: 2 * v % 12),
                                          ("zero", lambda v: 0))],
        invariants={"below12": lambda s: s.value < 12,
                    "nonneg": lambda s: s.value >= 0, **invariants})
    return machine, made


class TestStateMachine:
    def test_step(self):
        m = counter_machine()
        assert m.step(0, "inc") == 1
        assert m.step(3, "reset") == 0

    def test_step_disabled_raises(self):
        m = counter_machine(limit=2)
        with pytest.raises(ValueError):
            m.step(2, "inc")

    def test_unknown_transition(self):
        with pytest.raises(KeyError):
            counter_machine().transition("nope")

    def test_enabled_steps(self):
        m = counter_machine(limit=1)
        steps = list(m.enabled_steps(1))
        assert ("reset", (), 0) in steps
        assert all(name != "inc" for name, _, _ in steps)

    def test_enabled_steps_are_computed_once_per_machine(self):
        calls = []

        def apply(s, a):
            calls.append(s)
            return s + 1

        def machine():
            return SpecStateMachine(
                name="m", init_states=[0],
                transitions=[Transition("inc", lambda s, a: True, apply)])

        m = machine()
        assert m.enabled_steps(0) is m.enabled_steps(0)
        assert m.enabled_steps(0) == (("inc", (), 1),)
        assert calls == [0]
        assert machine().enabled_steps(0) == (("inc", (), 1),)
        assert calls == [0, 0], "a second instance shares no memo"

    def test_check_invariants(self):
        m = counter_machine(limit=3)
        assert m.check_invariants(2) is None
        assert m.check_invariants(7) == "bounded"

    def test_violated_is_memoised_per_machine(self):
        m = counter_machine(limit=3)
        m.invariants["even"] = lambda s: s % 2 == 0
        assert m.violated(2) == ()
        assert m.violated(7) == ("bounded", "even")
        assert m.violated(7) is m.violated(7)
        assert m.check_invariants(5) == "bounded"

    def test_sub_machine_keeps_its_own_verdicts(self):
        """A machine sharing another's transitions but not all of its
        invariants judges states against its own invariants only."""
        m = counter_machine(limit=3)
        m.invariants["even"] = lambda s: s % 2 == 0
        assert m.violated(5) == ("bounded", "even")
        sub = SpecStateMachine(name="sub", init_states=m.init_states,
                               transitions=m.transitions,
                               invariants={"even": m.invariants["even"]})
        assert sub.violated(5) == ("even",)
        assert sub.violated(4) == ()
        assert m.violated(4) == ("bounded",)


class TestExplore:
    def test_reachable_states(self):
        result = reachable_states(counter_machine(limit=4))
        assert result.ok
        assert sorted(result.states) == [0, 1, 2, 3, 4]
        assert not result.truncated

    def test_invariant_violation_found_with_trace(self):
        machine = counter_machine(limit=5, stride=2)
        machine.invariants["even_only_wrong"] = lambda s: s != 4
        result = reachable_states(machine)
        assert not result.ok
        name, state, trace = result.violation
        assert name == "even_only_wrong"
        assert state == 4
        # replay the trace from an initial state
        replayed = machine.init_states[0]
        for step_name, args in trace:
            replayed = machine.step(replayed, step_name, args)
        assert replayed == state

    def test_truncation(self):
        result = reachable_states(counter_machine(limit=100), max_states=10)
        assert result.truncated

    def test_max_depth(self):
        result = reachable_states(counter_machine(limit=50), max_depth=3)
        assert result.truncated
        assert max(result.states) <= 3

    def test_max_depth_on_a_complete_space_is_not_truncated(self):
        """A state at the depth bound truncates the run only if it has a
        successor the run has not seen."""
        chain = SpecStateMachine(
            name="chain", init_states=[0],
            transitions=[Transition("next", lambda s, a: s < 2,
                                    lambda s, a: s + 1)])
        result = reachable_states(chain, max_depth=2)
        assert result.states == [0, 1, 2]
        assert not result.truncated
        assert reachable_states(chain, max_depth=1).truncated

    def test_check_inductive_holds(self):
        m = counter_machine(limit=4)
        assert check_inductive(m, range(0, 5), "bounded") is None

    def test_check_inductive_counterexample(self):
        m = counter_machine(limit=4)
        m.invariants["lt3"] = lambda s: s < 3
        cex = check_inductive(m, range(0, 5), "lt3")
        assert cex is not None
        state, name, args, successor = cex
        assert state == 2 and name == "inc" and successor == 3

    def test_check_inductive_rejects_unknown_names(self):
        """A misspelt invariant or action is an error, not a pass: the
        action filter would otherwise skip every step."""
        m = counter_machine(limit=4)
        m.invariants["lt3"] = lambda s: s < 3
        assert check_inductive(m, range(0, 5), "lt3", action="inc") == \
            (2, "inc", (), 3)
        assert check_inductive(m, range(0, 5), "lt3", action="reset") is None
        with pytest.raises(KeyError):
            check_inductive(m, range(0, 5), "lt4")
        with pytest.raises(KeyError):
            check_inductive(m, range(0, 5), "lt3", action="icn")

    def test_counterexample_survives_a_full_memo(self):
        """Verdicts judged for one invariant's induction serve the next:
        a non-inductive invariant still yields its counterexample."""
        m = counter_machine(limit=4)
        m.invariants["lt3"] = lambda s: s < 3
        assert check_inductive(m, range(0, 5), "bounded") is None
        assert all(m.violated(s) is m.violated(s) for s in range(0, 5))
        assert check_inductive(m, range(0, 5), "lt3") == (2, "inc", (), 3)

    def test_each_state_invariant_pair_is_judged_once(self):
        """Exploration and every induction pass share one verdict per
        (state, invariant)."""
        judged = []

        def counted(name, pred):
            def check(s):
                judged.append((name, s))
                return pred(s)
            return check

        m = counter_machine(limit=4)
        m.invariants = {"bounded": counted("bounded", m.invariants["bounded"]),
                        "nonneg": counted("nonneg", lambda s: s >= 0)}
        result = reachable_states(m)
        for name in m.invariants:
            assert check_inductive(m, result.states, name) is None
        assert judged and len(judged) == len(set(judged))

    def test_failing_exploration_returns_states_in_bfs_order(self):
        """On a violation `states` is every state discovered, in BFS
        order — not a set's order, which for `str` states depends on the
        hash seed."""
        m = SpecStateMachine(
            name="words", init_states=[""],
            transitions=[Transition(letter, lambda s, a: True,
                                    lambda s, a, letter=letter: s + letter)
                         for letter in "xy"],
            invariants={"short": lambda s: len(s) < 3})
        result = reachable_states(m)
        assert result.violation[:2] == ("short", "xxx")
        assert result.states == sorted(result.states,
                                       key=lambda s: (len(s), s))
        assert len(result.states) == 15


class TestInterning:
    def test_each_successor_is_hashed_once(self):
        """Exploration hashes each successor `apply` builds once, to
        intern it; `check_inductive` then hashes each candidate once per
        call and walks successors by id.  Every memoised successor is
        the canonical object exploration returned."""
        m, made = counted_machine()
        result = reachable_states(m)
        assert result.ok and len(result.states) == 12
        for name in m.invariants:
            assert check_inductive(m, result.states, name) is None
        canonical = {id(s) for s in result.states}
        assert len(made) == 3 * len(result.states)
        for s in made:
            assert s.hashes == (1 + len(m.invariants) if id(s) in canonical
                                else 1), s
        by_value = {s.value: s for s in result.states}
        for state in result.states:
            for _name, _args, successor in m.enabled_steps(state):
                assert successor is by_value[successor.value]

    def test_a_violation_trace_is_rebuilt_from_parent_links(self):
        """A failing run keeps no trace per queued state: its trace is
        rebuilt from parent links, by id, and still replays."""
        m, made = counted_machine(not7=lambda s: s.value != 7)
        result = reachable_states(m)
        name, state, trace = result.violation
        assert (name, state.value) == ("not7", 7)
        assert [step for step, _ in trace] == \
            ["inc", "inc", "inc", "dbl", "inc"]
        assert any(s is state for s in result.states)
        assert all(s.hashes == 1 for s in made + m.init_states)
        replayed = m.init_states[0]
        for step, args in trace:
            replayed = m.step(replayed, step, args)
        assert replayed == state


class TestRefinement:
    def _machines(self):
        # low: counter stepping by 1 twice per high step (with parity flag)
        low = SpecStateMachine(
            name="low",
            init_states=[(0, 0)],
            transitions=[
                Transition(
                    name="half",
                    enabled=lambda s, a: s[0] < 6,
                    apply=lambda s, a: (s[0] + 1, 1 - s[1]),
                ),
            ],
        )
        high = SpecStateMachine(
            name="high",
            init_states=[0],
            transitions=[
                Transition(
                    name="tick",
                    enabled=lambda s, a: s < 3,
                    apply=lambda s, a: s + 1,
                ),
            ],
        )
        return low, high

    def test_simulation_holds(self):
        low, high = self._machines()
        states = [s for s in reachable_states(low).states]

        # abstraction: completed pairs of half-steps
        proof = RefinementProof(
            low=low,
            high=high,
            abstraction=lambda s: s[0] // 2,
            cases=[
                # a half step is a stutter when it starts a pair, a tick
                # when it completes one; model both with a custom VC split
                # by parity using two cases over the same low transition.
            ],
            state_source=lambda: states,
        )
        # init obligation alone
        assert proof.init_vc().discharge().ok

    def test_commuting_diagram(self):
        identity = lambda s: s
        base = SpecStateMachine(
            name="base",
            init_states=[0],
            transitions=[
                Transition("inc", lambda s, a: s < 3, lambda s, a: s + 1)
            ],
        )
        proof = RefinementProof(
            low=base,
            high=base,
            abstraction=identity,
            cases=[SimulationCase("inc", "inc")],
            state_source=lambda: [0, 1, 2, 3],
        )
        report_results = [vc.discharge() for vc in proof.all_vcs()]
        assert all(r.ok for r in report_results)

    def test_broken_diagram_detected(self):
        low = SpecStateMachine(
            name="low2",
            init_states=[0],
            transitions=[
                Transition("inc2", lambda s, a: s < 4, lambda s, a: s + 2)
            ],
        )
        high = SpecStateMachine(
            name="high2",
            init_states=[0],
            transitions=[
                Transition("inc1", lambda s, a: True, lambda s, a: s + 1)
            ],
        )
        proof = RefinementProof(
            low=low,
            high=high,
            abstraction=lambda s: s,
            cases=[SimulationCase("inc2", "inc1")],
            state_source=lambda: [0, 2, 4],
        )
        result = proof.step_vc(proof.cases[0]).discharge()
        assert result.status is VCStatus.FAILED
        assert "commute" in result.detail

    def test_stutter_case(self):
        low = SpecStateMachine(
            name="low3",
            init_states=[(0, 0)],
            transitions=[
                Transition(
                    "internal",
                    lambda s, a: True,
                    lambda s, a: (s[0], s[1] + 1) if s[1] < 3 else s,
                )
            ],
        )
        high = SpecStateMachine(name="high3", init_states=[0], transitions=[])
        proof = RefinementProof(
            low=low,
            high=high,
            abstraction=lambda s: s[0],
            cases=[SimulationCase("internal", None)],
            state_source=lambda: [(0, 0), (0, 1)],
        )
        assert proof.step_vc(proof.cases[0]).discharge().ok


class TestVCsAndEngine:
    def test_forall_vc_pass_and_fail(self):
        good = forall_vc("all_even", "demo", range(0, 10, 2), lambda x: x % 2 == 0)
        assert good.discharge().ok
        bad = forall_vc("all_even_bad", "demo", range(5), lambda x: x % 2 == 0)
        result = bad.discharge()
        assert result.status is VCStatus.FAILED
        assert result.counterexample == 1

    def test_smt_vc(self):
        x = ast.bv_var("x", 8)
        vc = smt_vc("x_eq_x", "lemmas", lambda: ast.eq(x, x))
        assert vc.discharge().ok
        bad = smt_vc("x_eq_0", "lemmas", lambda: ast.eq(x, ast.bv_const(0, 8)))
        result = bad.discharge()
        assert result.status is VCStatus.FAILED

    def test_vc_error_reported(self):
        def boom():
            raise RuntimeError("kaput")

        vc = VC(name="bad", category="demo", check=boom)
        result = vc.discharge()
        assert result.status is VCStatus.ERROR
        assert "kaput" in result.detail

    def test_engine_report(self):
        engine = ProofEngine()
        engine.add(forall_vc("a", "g1", [1, 2], lambda x: x > 0), group="g1")
        engine.add(forall_vc("b", "g1", [1, 2], lambda x: x < 2), group="g1")
        engine.add(forall_vc("c", "g2", [()], lambda x: True), group="g2")
        assert engine.vc_count == 3
        seen = []
        report = engine.run(progress=seen.append)
        assert len(seen) == 3
        assert report.total == 3
        assert report.proved == 2
        assert not report.all_proved
        assert len(report.failed) == 1
        assert report.total_seconds >= 0
        assert 0 < report.fraction_within(10.0) <= 1.0
        assert len(report.cdf()) == 3
        assert any("verification conditions: 3" in line
                   for line in report.summary_lines())

    def test_engine_group_reuse(self):
        engine = ProofEngine()
        engine.add(forall_vc("a", "g", [()], lambda x: True), group="g")
        engine.add(forall_vc("b", "g", [()], lambda x: True), group="g")
        assert len(engine.groups) == 1
