"""Tests for the scheduler specification and its proof obligations:
the bounded state space is finite and invariant-clean, every invariant
is inductive, hand-broken states are flagged (no vacuous invariants),
and the scheduler VC family discharges through the proof engine."""

import gc
import hashlib
import sys
import weakref

import pytest

from repro.verif import schedspec as ss
from repro.verif.explore import check_inductive, reachable_states
from repro.verif.schedproof import (
    MAX_STATES,
    _broken_states,
    _perturbed_states,
    scheduler_vcs,
)


@pytest.fixture(scope="module")
def explored():
    machine = ss.sched_machine()
    return machine, reachable_states(machine, max_states=MAX_STATES)


# -- the state space ----------------------------------------------------------


def test_reachable_space_is_finite_and_clean(explored):
    machine, result = explored
    assert not result.truncated, \
        "per-core renormalization must keep the space finite"
    assert result.ok, f"invariant violated: {result.violation[:2]}"
    assert len(result.states) > 1_000


def test_reachable_space_is_pinned(explored):
    """The coverage claim is about this space: a spec edit that grows or
    shrinks it must show up here, not only in a comment."""
    machine, result = explored
    assert len(result.states) == 7451
    assert sum(len(machine.enabled_steps(s)) for s in result.states) == 28623


def test_reachable_space_is_pinned_in_bfs_order(explored):
    """The same space in the same order, not only of the same size: a
    BLAKE2b over each state's field values, in exploration order, with
    the (name, args) labels of its enabled steps.  Written against
    field names only, so a change of state representation that keeps
    the spec keeps the digest."""
    machine, result = explored
    digest = hashlib.blake2b(digest_size=16)
    for state in result.states:
        threads = tuple((t.tid, t.kind, t.weight, t.vruntime, t.state,
                         t.core) for t in state.threads)
        labels = tuple((name, args)
                       for name, args, _ in machine.enabled_steps(state))
        digest.update(repr((state.ncores, threads, state.queues,
                            state.weight_sums, state.ready_counts,
                            state.rt_streak, labels)).encode())
    assert digest.hexdigest() == "460a56d2adf0f33a53db32b790f755ae"


def test_memoised_steps_equal_a_fresh_machines(explored):
    """`enabled_steps` and `violated` are computed once per state and
    machine; exploration has already filled `machine`'s memos, `fresh`
    computes from scratch."""
    machine, result = explored
    fresh = ss.sched_machine()
    perturbed = _perturbed_states(result.states)
    assert set(perturbed) - set(result.states), "perturbation adds states"
    assert any(fresh.violated(s) for s in perturbed), \
        "some perturbed state violates an invariant"
    for state in list(result.states) + perturbed:
        steps = machine.enabled_steps(state)
        assert steps == fresh.enabled_steps(state)
        assert machine.enabled_steps(state) is steps
        verdict = machine.violated(state)
        assert verdict == fresh.violated(state)
        assert verdict == tuple(name for name, pred in ss.INVARIANTS.items()
                                if not pred(state))
        assert machine.violated(state) is verdict


def test_every_invariant_is_inductive(explored):
    machine, result = explored
    for name in ss.INVARIANTS:
        counterexample = check_inductive(machine, result.states, name)
        assert counterexample is None, \
            f"{name} not inductive: {counterexample[:3]}"


def test_a_violation_trace_replays():
    """With `rt_first` tightened to forbid an RT streak of 2, the run
    fails three steps from the SMP configuration; the trace rebuilt from
    parent links replays to the reported state, and every memoised
    successor of a state the run expanded is the object it returned."""
    machine = ss.sched_machine([ss.smp_config()])
    rt_first = machine.invariants["rt_first"]
    machine.invariants["rt_first"] = \
        lambda s: rt_first(s) and max(s.rt_streak) < 2
    result = reachable_states(machine, max_states=MAX_STATES)
    name, state, trace = result.violation
    assert name == "rt_first" and len(trace) >= 3
    replayed = machine.init_states[0]
    for step, args in trace:
        replayed = machine.step(replayed, step, args)
    assert replayed == state
    canonical = {id(s) for s in result.states}
    expanded = result.states[:next(i for i, s in enumerate(result.states)
                                   if s is state)]
    assert len(expanded) > 10
    for s in expanded:
        for _name, _args, successor in machine.enabled_steps(s):
            assert id(successor) in canonical


def test_canonicalization_is_idempotent(explored):
    machine, result = explored
    for state in result.states[::200]:
        assert ss.canonical(state) == state


def test_transitions_preserve_canonical_form(explored):
    machine, result = explored
    state = result.states[0]
    for name, args, successor in machine.enabled_steps(state):
        assert ss.canonical(successor) == successor


# -- vacuity ------------------------------------------------------------------


def test_broken_states_are_flagged(explored):
    machine, _result = explored          # a machine whose memo is full
    for expected, state in _broken_states().items():
        assert expected in machine.violated(state), \
            f"hand-broken state for {expected} not flagged"
        assert machine.check_invariants(state) is not None


def test_detects_violations_vc_flags_after_exploration():
    """The vacuity VC reads the same verdict memo exploration and the
    induction VCs fill; it must still flag every hand-broken state."""
    vcs = {vc.name: vc for vc in scheduler_vcs()}
    assert vcs["sched-spec-explored"].check() is None
    assert vcs["sched-spec-detects-violations"].check() is None


def test_rt_streak_violation_flagged():
    base = ss.uniprocessor_config()
    # pick the fair thread, then claim the streak survived the pick
    picked = ss.sched_machine().step(base, "pick", (0,))
    running = ss.running_on(picked, 0)
    if running.kind == ss.FAIR:
        broken = picked._replace(rt_streak=(1,))
        assert not ss.inv_rt_first(broken)


# -- the pick policy ----------------------------------------------------------


def test_pick_chooses_rt_over_fair():
    state = ss.smp_config()
    chosen = ss.pick_choice(state, 0)
    assert chosen.kind == ss.RT


def test_pick_throttle_forces_fair():
    state = ss.smp_config()
    throttled = state._replace(rt_streak=(ss.RT_STREAK_LIMIT, 0))
    chosen = ss.pick_choice(throttled, 0)
    assert chosen.kind == ss.FAIR
    # min-vruntime fair thread wins
    fair = ss.queued_on(throttled, 0, ss.FAIR)
    assert chosen.vruntime == min(t.vruntime for t in fair)


# -- the VC family ------------------------------------------------------------


def test_scheduler_vcs_all_discharge():
    vcs = scheduler_vcs()
    assert len(vcs) >= 10
    for vc in vcs:
        counterexample = vc.check()
        assert counterexample is None, \
            f"{vc.name} failed: {counterexample}"


def test_a_discharged_family_is_freed(monkeypatch):
    """The family's explored machine, its memos and every state its VCs
    derive live only as long as the VCs do.  The weakref catches a cache
    that keeps the machine; the block count catches one that keeps only
    states (a module-level dict of induction states keyed by id held
    ~55 000 blocks)."""
    build, built = ss.sched_machine, []

    def sched_machine():
        machine = build()
        built.append(weakref.ref(machine))
        return machine

    monkeypatch.setattr(ss, "sched_machine", sched_machine)
    gc.collect()
    blocks = sys.getallocatedblocks()
    vcs = [vc for vc in scheduler_vcs() if vc.name.startswith("sched-spec-")]
    for vc in vcs:
        assert vc.check() is None, vc.name
    assert len(built) == 1, "one machine per family"
    del vcs, vc
    gc.collect()
    assert built[0]() is None, "a discharged family leaks its machine"
    assert sys.getallocatedblocks() - blocks < 1_000, \
        "a discharged family leaks its states"


def test_a_live_family_holds_one_copy_per_state():
    """While the family is alive, its machine holds each explored state
    once: successors are interned, so the memo keeps no second copy of a
    state reached again (≈ 39 blocks per state when it did)."""
    gc.collect()
    blocks = sys.getallocatedblocks()
    vcs = [vc for vc in scheduler_vcs() if vc.name.startswith("sched-spec-")]
    for vc in vcs:
        assert vc.check() is None, vc.name
    gc.collect()
    assert sys.getallocatedblocks() - blocks <= 25 * 7451


def test_build_proof_registers_scheduler_group():
    from repro.core.refine.proof import build_proof

    engine = build_proof(include_lemmas=False, include_structural=False,
                         include_nr=False, include_contract=False,
                         include_sched=True)
    names = [vc.name for vc in engine.vcs()]
    assert any(name.startswith("sched-spec-") for name in names)
    assert any(name.startswith("sched-impl-") for name in names)
    assert all(vc.category == "scheduler" for vc in engine.vcs())
    assert engine.rebuild_spec[1]["include_sched"] is True


def test_scheduler_vcs_prove_through_engine():
    from repro.core.refine.proof import build_proof

    engine = build_proof(include_lemmas=False, include_structural=False,
                         include_nr=False, include_contract=False,
                         include_sched=True)
    report = engine.run()
    assert report.all_proved, \
        [r.name for r in report.failed]
